// Traced, stage-by-stage replays of the library pipeline and the per-layer
// probes of traced runs.  Every span wraps a call into one module's public
// functions; the library itself carries no clocks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "codes/code.hpp"
#include "decoder/decode_cache.hpp"
#include "decoder/decoder.hpp"
#include "detector/detectors.hpp"
#include "detector/error_model.hpp"
#include "inject/campaign.hpp"
#include "loadgen.hpp"
#include "noise/timeline.hpp"
#include "serve/session.hpp"
#include "transpile/transpiler.hpp"

namespace radbench {

/// The static pipeline of one engine configuration, built stage by stage:
/// build -> transpile -> noise apply -> DEM -> matching graph -> decoder,
/// plus the detector set and noiseless reference the sampler needs.
struct StagedEngine {
  radsurf::TranspileResult transpiled;
  radsurf::Circuit noisy_base;
  radsurf::DetectorErrorModel dem;
  radsurf::MatchingGraph graph;
  radsurf::DetectorSet detectors;
  radsurf::BitVec reference;
  std::unique_ptr<radsurf::Decoder> decoder;  // null without whole history
  std::unique_ptr<radsurf::CachingDecoder> cached;
};

StagedEngine stage_engine(Tracer& tracer, const radsurf::SurfaceCode& code,
                          const radsurf::Graph& arch,
                          const radsurf::EngineOptions& options);

/// Non-empty defect sets seen while replaying, for the decoder probes.
struct DefectSample {
  std::size_t capacity = 2048;
  std::vector<std::vector<std::uint32_t>> sets;
  void offer(const std::vector<std::uint32_t>& defects) {
    if (!defects.empty() && sets.size() < capacity) sets.push_back(defects);
  }
};

/// One campaign cell, stage by stage: reference trace, frame batches,
/// 64x64 transpose, decode; shots the frame path cannot express (or every
/// shot, with `exact_all`) go through the compact exact engine.
void stage_cell(Tracer& tracer, const StagedEngine& staged,
                const radsurf::Circuit& circuit,
                const std::vector<std::uint32_t>* erasure, std::size_t shots,
                std::uint64_t seed, bool exact_all, radsurf::Decoder& decoder,
                DefectSample& sample);

/// Strike-reweighted window decoder of one heralded realization, stage by
/// stage (DEM with the reset field -> matching graph -> windows).
std::unique_ptr<radsurf::SlidingWindowDecoder> stage_aware_decoder(
    Tracer& tracer, const radsurf::Circuit& instrumented,
    const std::vector<std::uint32_t>& detector_rounds, std::size_t rounds,
    const radsurf::SlidingWindowOptions& window);

/// Sampler and transpose probes on one instrumented circuit:
/// stab.frame_shots_per_s, bitmat.transpose_s (per 1024-shot batch) and
/// stab.exact_shots_per_s (compact exact engine).
void stab_probes(Report& report, const radsurf::Circuit& circuit,
                 const radsurf::DetectorSet& detectors, bool tiny);

/// Uncached and first-sight MWPM decodes of recorded defect sets, with the
/// matcher work counters of this run only.
void decoder_probes(Report& report, const radsurf::MatchingGraph& graph,
                    const DefectSample& sample, bool tiny);

/// Serve-layer probes on one engine: window decoder build and decode
/// rates, the in-process session and the protocol codec on the pool's
/// frames, and the counters and latencies of the loopback run `live`.
struct LiveServe {
  LoadResult load;
  radsurf::serve::ServeStatsSnapshot stats;
};
void serve_probes(Report& report, Tracer& tracer,
                  const radsurf::InjectionEngine& engine,
                  const radsurf::RadiationTimeline& timeline,
                  const radsurf::SlidingWindowOptions& window,
                  const ShotPool& pool, const LiveServe& live);

/// Start a server on `engine`, run one load phase against it, shut down.
LiveServe run_live(const radsurf::InjectionEngine& engine,
                   const radsurf::RadiationTimeline& timeline,
                   const radsurf::SlidingWindowOptions& window,
                   const ShotPool& pool, LoadOptions load);

/// Engine-side counters of the workload (engine public accessors).
struct EngineCounters {
  double sampled_shots = 0.0;  // weight of residual_fraction
  double residual_weighted = 0.0;
  radsurf::PromotionStats promotion;
  radsurf::DecodeCacheStats cache;
  std::size_t bypassed = 0;
  void add(const radsurf::InjectionEngine& engine, double shots);
};
void report_engine_counters(Report& report, const EngineCounters& c,
                            std::size_t aware_rebuilds);

/// Trace-run bookkeeping common to every workload: span coverage of the
/// untraced wall time, tracing overhead, build-stage totals.
void report_trace_summary(Report& report, const Tracer& tracer,
                          std::uint32_t replay_root, double untraced_s,
                          double traced_s);

}  // namespace radbench
