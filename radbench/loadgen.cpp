#include "loadgen.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "serve/client.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace radbench {

using radsurf::serve::ServeClient;

ShotPool prep_pool(const radsurf::InjectionEngine& engine,
                   const radsurf::RadiationTimeline& timeline,
                   const radsurf::SlidingWindowOptions& window,
                   std::size_t shots, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  ShotPool pool;
  const std::vector<radsurf::RecordedShot> recorded =
      engine.record_timeline_shots(timeline, {}, shots, seed);
  const std::unique_ptr<radsurf::SlidingWindowDecoder> offline =
      engine.make_stream_decoder(nullptr, {}, window);
  pool.num_windows = offline->num_windows();

  const std::vector<std::uint32_t>& rounds = engine.detector_rounds();
  const std::size_t words = (rounds.size() + 63) / 64;
  pool.round_masks.assign(offline->num_rounds(),
                          std::vector<std::uint64_t>(words, 0));
  for (std::size_t d = 0; d < rounds.size(); ++d)
    pool.round_masks[rounds[d]][d / 64] |= std::uint64_t{1} << (d % 64);

  pool.words.assign(shots, std::vector<std::uint64_t>(words, 0));
  pool.defects.resize(shots);
  pool.expected.assign(shots, 0);
  radsurf::parallel_chunks(
      shots, 256, radsurf::Rng(seed),
      [&](const radsurf::ChunkRange& range, radsurf::Rng&) {
        for (std::size_t s = range.begin; s < range.end; ++s) {
          pool.defects[s] = recorded[s].defects;
          for (const std::uint32_t d : recorded[s].defects)
            pool.words[s][d / 64] |= std::uint64_t{1} << (d % 64);
          pool.expected[s] = offline->decode(recorded[s].defects);
        }
      });
  pool.prep_s = seconds_since(t0);
  return pool;
}

std::vector<double> LoadResult::all_latencies_ms() const {
  std::vector<double> all;
  for (const std::vector<double>& seg : segment_latencies_ms)
    all.insert(all.end(), seg.begin(), seg.end());
  return all;
}

namespace {

struct StreamOutcome {
  std::size_t shots_sent = 0;
  std::size_t results = 0;
  std::size_t sheds = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;
  std::size_t missing = 0;
  // Open loop only: commit latencies by segment of their due time.
  std::vector<std::vector<double>> segment_latencies_ms;
  std::vector<double> late_ms;
  std::vector<double> result_times_s;  // since the phase start
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void run_stream(ServeClient& client, const radsurf::serve::HelloAck& ack,
                const ShotPool& pool, const LoadOptions& o,
                std::size_t stream, Clock::time_point t_start,
                StreamOutcome& out) {
  const std::size_t num_rounds = ack.num_rounds;
  const std::size_t num_windows = ack.num_windows;
  // End round of every window, from the server's advertised layout.
  std::vector<std::size_t> ends;
  for (std::size_t begin = 0;; begin += ack.commit) {
    const std::size_t end = std::min<std::size_t>(begin + ack.window,
                                                  num_rounds);
    ends.push_back(end);
    if (end == num_rounds) break;
  }
  RADSURF_ASSERT_MSG(ends.size() == num_windows && num_windows < 1024,
                     "radbench: window layout disagrees with HELLO_ACK");
  // Per-frame detector masks and the windows each frame completes.
  struct FramePlan {
    std::uint32_t first_round, num_rounds;
    std::vector<std::uint64_t> mask;
    std::size_t windows_before, windows_after;
  };
  std::vector<FramePlan> plan;
  std::size_t done_windows = 0;
  for (std::size_t r = 0; r < num_rounds; r += o.rounds_per_frame) {
    const std::size_t complete = std::min(r + o.rounds_per_frame, num_rounds);
    FramePlan f{static_cast<std::uint32_t>(r),
                static_cast<std::uint32_t>(complete - r),
                std::vector<std::uint64_t>(ack.syndrome_words, 0),
                done_windows, done_windows};
    for (std::size_t rr = r; rr < complete; ++rr)
      for (std::size_t w = 0; w < f.mask.size(); ++w)
        f.mask[w] |= pool.round_masks[rr][w];
    while (done_windows < ends.size() && ends[done_windows] <= complete)
      ++done_windows;
    f.windows_after = done_windows;
    plan.push_back(std::move(f));
  }
  const std::size_t frames_per_shot = plan.size();
  const std::size_t pool_offset = stream * pool.words.size() / o.streams;
  const std::uint64_t id_base =
      o.shot_id_base + (static_cast<std::uint64_t>(stream) << 32);
  const auto pool_index = [&](std::uint64_t shot_id) {
    return (pool_offset + (shot_id - id_base)) % pool.words.size();
  };

  const bool open = o.open_shots_per_s > 0.0;
  const auto whole_segments =
      static_cast<std::size_t>(o.duration_s / o.segment_s);
  if (open) out.segment_latencies_ms.resize(whole_segments);
  // Records one commit latency in the segment its completing frame fell
  // due in (whole segments of the sending window only).
  const auto record_latency = [&](Clock::time_point due_at, double ms) {
    const auto seg = static_cast<std::size_t>(
        seconds_between(t_start, due_at) / o.segment_s);
    if (open && seg < whole_segments)
      out.segment_latencies_ms[seg].push_back(ms);
  };

  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  bool aborted = false;
  // (shot, window) -> when the frame completing that window was due.
  std::unordered_map<std::uint64_t, Clock::time_point> due;
  const auto key = [](std::uint64_t shot_id, std::size_t window) {
    return shot_id * 1024 + window;
  };

  std::thread reader([&] {
    try {
      while (true) {
        ServeClient::ServerReply reply = client.read_reply();
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        switch (reply.kind) {
          case ServeClient::ServerReply::Kind::kCommit: {
            const auto it = due.find(
                key(reply.commit.shot_id, reply.commit.window_index));
            if (it != due.end()) {
              record_latency(it->second, ms_between(it->second, now));
              due.erase(it);
            }
            break;
          }
          case ServeClient::ServerReply::Kind::kResult:
            ++out.results;
            if (reply.result.prediction !=
                pool.expected[pool_index(reply.result.shot_id)])
              ++out.mismatches;
            out.result_times_s.push_back(seconds_between(t_start, now));
            --inflight;
            cv.notify_all();
            break;
          case ServeClient::ServerReply::Kind::kShed:
            ++out.sheds;
            --inflight;
            cv.notify_all();
            break;
          case ServeClient::ServerReply::Kind::kByeAck:
            return;
          case ServeClient::ServerReply::Kind::kError:
          case ServeClient::ServerReply::Kind::kClosed:
          case ServeClient::ServerReply::Kind::kTimeout:
            ++out.errors;
            aborted = true;
            cv.notify_all();
            return;
        }
      }
    } catch (const std::exception&) {
      // A malformed reply: the stream is dead.
      std::lock_guard<std::mutex> lock(mu);
      ++out.errors;
      aborted = true;
      cv.notify_all();
    }
  });

  const double frame_interval_s =
      open ? 1.0 / (o.open_shots_per_s * static_cast<double>(frames_per_shot))
           : 0.0;
  radsurf::serve::RoundsFrame frame;
  frame.words.resize(ack.syndrome_words);
  bool sent_ok = true;
  for (std::uint64_t k = 0; sent_ok; ++k) {
    if (open) {
      if (static_cast<double>(k) / o.open_shots_per_s >= o.duration_s) break;
      std::lock_guard<std::mutex> lock(mu);
      if (aborted) break;
      ++inflight;
    } else {
      if (seconds_since(t_start) >= o.duration_s) break;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return aborted || inflight < o.max_inflight; });
      if (aborted) break;
      ++inflight;
    }
    const std::uint64_t shot_id = id_base + k;
    const std::vector<std::uint64_t>& full = pool.words[pool_index(shot_id)];
    for (std::size_t f = 0; f < frames_per_shot && sent_ok; ++f) {
      const FramePlan& p = plan[f];
      Clock::time_point due_at = Clock::now();
      if (open) {
        const double offset =
            static_cast<double>(k * frames_per_shot + f) * frame_interval_s;
        due_at = t_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offset));
        std::this_thread::sleep_until(due_at);
        out.late_ms.push_back(ms_between(due_at, Clock::now()));
      }
      frame.shot_id = shot_id;
      frame.first_round = p.first_round;
      frame.num_rounds = p.num_rounds;
      for (std::size_t w = 0; w < frame.words.size(); ++w)
        frame.words[w] = full[w] & p.mask[w];
      if (p.windows_after > p.windows_before) {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t w = p.windows_before; w < p.windows_after; ++w)
          due[key(shot_id, w)] = due_at;
      }
      sent_ok = client.send_rounds(frame);
    }
    if (sent_ok) ++out.shots_sent;
  }
  if (o.send_bad_frame && stream == 0 && sent_ok) {
    // Bits outside the rounds the frame declares: a protocol error.
    frame.shot_id = id_base + (std::uint64_t{1} << 31);
    frame.first_round = plan[0].first_round;
    frame.num_rounds = plan[0].num_rounds;
    for (std::size_t w = 0; w < frame.words.size(); ++w)
      frame.words[w] = ~plan[0].mask[w];
    sent_ok = client.send_rounds(frame);
  }
  if (!sent_ok) {
    std::lock_guard<std::mutex> lock(mu);
    ++out.errors;
  }
  client.send_bye();
  reader.join();
  client.close();
  // Commits that never arrived count above every latency limit.
  out.missing = due.size();
  for (const auto& entry : due) record_latency(entry.second, kMissingCommitMs);
}

}  // namespace

LoadResult run_load(const ShotPool& pool, const LoadOptions& o) {
  RADSURF_CHECK_ARG(o.streams > 0 && !pool.words.empty(),
                    "radbench: load needs streams and a shot pool");
  std::vector<ServeClient> clients;
  std::vector<radsurf::serve::HelloAck> acks;
  for (std::size_t i = 0; i < o.streams; ++i) {
    clients.push_back(ServeClient::connect_tcp(o.port));
    acks.push_back(clients.back().handshake());
    clients.back().set_read_timeout_ms(10000);
  }
  std::vector<StreamOutcome> outcomes(o.streams);
  const Clock::time_point t_start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < o.streams; ++i)
    threads.emplace_back([&, i] {
      run_stream(clients[i], acks[i], pool, o, i, t_start, outcomes[i]);
    });
  for (std::thread& t : threads) t.join();

  LoadResult r;
  const auto whole = static_cast<std::size_t>(o.duration_s / o.segment_s);
  std::vector<std::vector<double>> result_times(whole);
  if (o.open_shots_per_s > 0.0) r.segment_latencies_ms.resize(whole);
  for (const StreamOutcome& s : outcomes) {
    r.shots_sent += s.shots_sent;
    r.results += s.results;
    r.sheds += s.sheds;
    r.errors += s.errors;
    r.mismatches += s.mismatches;
    r.missing_commits += s.missing;
    r.late_ms.insert(r.late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    for (std::size_t i = 0; i < s.segment_latencies_ms.size(); ++i)
      r.segment_latencies_ms[i].insert(r.segment_latencies_ms[i].end(),
                                       s.segment_latencies_ms[i].begin(),
                                       s.segment_latencies_ms[i].end());
    for (const double t : s.result_times_s) {
      const auto seg = static_cast<std::size_t>(t / o.segment_s);
      if (seg < whole) result_times[seg].push_back(t);
    }
  }
  // Throughput per segment: results over the time between the segment's
  // first and last result (whole segments only: the tail drains).
  for (const std::vector<double>& seg : result_times) {
    if (seg.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(seg.begin(), seg.end());
    if (*hi > *lo)
      r.segment_rates.push_back(static_cast<double>(seg.size() - 1) /
                                (*hi - *lo));
  }
  return r;
}

}  // namespace radbench
