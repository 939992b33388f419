// Load generator of the serve benchmark: pre-recorded shots replayed over
// loopback TCP in open loop (frames sent on a fixed schedule, commits
// timed from when their completing frame was due) or closed loop
// (pipelined, up to max_inflight unresolved shots per stream).
//
// Input preparation — exact shot records and their offline predictions —
// happens once, before any timed phase, and is reported separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "decoder/sliding_window.hpp"
#include "inject/campaign.hpp"
#include "noise/timeline.hpp"

namespace radbench {

/// Recorded quiet shots of one engine plus the offline sliding-window
/// prediction of each (the bit-for-bit expectation of a streamed decode).
struct ShotPool {
  std::vector<std::vector<std::uint64_t>> words;  // full syndrome per shot
  std::vector<std::vector<std::uint32_t>> defects;
  std::vector<std::uint64_t> expected;
  std::vector<std::vector<std::uint64_t>> round_masks;  // per round
  std::size_t num_windows = 0;
  double prep_s = 0.0;
};

ShotPool prep_pool(const radsurf::InjectionEngine& engine,
                   const radsurf::RadiationTimeline& timeline,
                   const radsurf::SlidingWindowOptions& window,
                   std::size_t shots, std::uint64_t seed);

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t streams = 2;
  std::size_t rounds_per_frame = 10;
  /// Open loop: offered shots per second per stream (> 0).  Closed loop
  /// when 0.
  double open_shots_per_s = 0.0;
  std::size_t max_inflight = 4;
  double duration_s = 1.0;
  /// Length of the segments throughput and latency are sampled over.
  double segment_s = 0.25;
  /// Added to every shot id, so phases against one server never reuse ids.
  std::uint64_t shot_id_base = 0;
  /// Self-test hook: stream 0 ends with a frame carrying stray bits.
  bool send_bad_frame = false;
};

struct LoadResult {
  std::size_t shots_sent = 0;
  std::size_t results = 0;
  std::size_t sheds = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;
  std::size_t missing_commits = 0;  // windows of sent shots never committed
  std::vector<double> late_ms;      // open loop: send time - due time
  // Per whole segment of the sending window: results/s, and (open loop)
  // the latencies of the commits that fell due in it.  Only the open loop
  // keeps latencies, so memory does not grow with closed-loop throughput.
  std::vector<double> segment_rates;
  std::vector<std::vector<double>> segment_latencies_ms;

  std::vector<double> all_latencies_ms() const;
};

/// Latency recorded for a commit that never arrived (shed, error or
/// missing): above every limit a run could set.
inline constexpr double kMissingCommitMs = 1e6;

LoadResult run_load(const ShotPool& pool, const LoadOptions& options);

}  // namespace radbench
