#include "layers.hpp"

#include <algorithm>

#include "decoder/mwpm.hpp"
#include "detector/matching_graph.hpp"
#include "noise/depolarizing.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "stab/compact_tableau.hpp"
#include "stab/frame_sim.hpp"
#include "stab/tableau_sim.hpp"
#include "util/bitmat.hpp"

namespace radbench {

using namespace radsurf;

StagedEngine stage_engine(Tracer& tracer, const SurfaceCode& code,
                          const Graph& arch, const EngineOptions& options) {
  StagedEngine s;
  Circuit logical;
  tracer.time("circuit.build", [&] { logical = code.build(options.rounds); });
  tracer.time("transpile", [&] {
    s.transpiled = transpile(logical, arch, TranspileOptions{options.layout});
  });
  const double p_dec = options.decoder_error_rate > 0.0
                           ? options.decoder_error_rate
                           : std::max(options.physical_error_rate, 1e-3);
  Circuit decoder_noisy;
  tracer.time("noise.apply", [&] {
    s.noisy_base = DepolarizingModel{options.physical_error_rate,
                                     options.uniform_two_qubit,
                                     options.measurement_error_rate}
                       .apply(s.transpiled.circuit);
    decoder_noisy = DepolarizingModel{p_dec, options.uniform_two_qubit,
                                      options.measurement_error_rate}
                        .apply(s.transpiled.circuit);
  });
  tracer.time("detector.dem", [&] {
    s.dem = DetectorErrorModel::from_circuit(decoder_noisy);
  });
  tracer.time("detector.matching_graph",
              [&] { s.graph = MatchingGraph::from_dem(s.dem); });
  if (options.whole_history_decoder) {
    tracer.time("decoder.build", [&] {
      s.decoder = make_decoder(options.decoder, s.graph);
      s.cached = std::make_unique<CachingDecoder>(*s.decoder);
      s.cached->enable_auto_bypass();
    });
  }
  tracer.time("detector.compile", [&] {
    s.detectors = DetectorSet::compile(s.transpiled.circuit);
  });
  tracer.time("stab.reference", [&] {
    s.reference = TableauSimulator(s.transpiled.circuit).reference_sample();
  });
  return s;
}

void stage_cell(Tracer& tracer, const StagedEngine& staged,
                const Circuit& circuit,
                const std::vector<std::uint32_t>* erasure, std::size_t shots,
                std::uint64_t seed, bool exact_all, Decoder& decoder,
                DefectSample& sample) {
  Rng rng(seed);
  std::vector<std::uint32_t> defects;
  BitVec record(staged.detectors.num_records());
  std::size_t exact_shots = exact_all ? shots : 0;
  if (!exact_all) {
    ReferenceTrace trace;
    const bool needs_trace = erasure != nullptr || contains_reset_noise(circuit);
    if (needs_trace)
      tracer.time("stab.reference_trace", [&] {
        trace = TableauSimulator(circuit).reference_trace(erasure);
      });
    constexpr std::size_t kBatch = 1024;
    FrameSimulator sim(circuit, kBatch, needs_trace ? &trace : nullptr);
    DetectorSet::SyndromeScratch scratch;
    BitTable syndromes, observables;
    BitVec residual(kBatch);
    for (std::size_t done = 0; done < shots; done += kBatch) {
      const MeasurementFlips* flips = nullptr;
      tracer.time("stab.frame", [&] {
        flips = erasure ? &sim.run_with_erasure(rng, *erasure, &residual)
                        : &sim.run(rng, &residual);
      });
      tracer.time("bitmat.transpose", [&] {
        staged.detectors.transposed_flips(*flips, scratch, syndromes,
                                          observables);
      });
      const std::size_t batch = std::min(kBatch, shots - done);
      tracer.time("decoder.decode", [&] {
        const std::size_t words = syndromes.words_per_row();
        for (std::size_t s = 0; s < batch; ++s) {
          if (residual.get(s)) {
            ++exact_shots;
            continue;
          }
          if (syndromes.row_or(s) == 0) continue;
          (void)decoder.decode_syndrome(syndromes.row(s), words);
          if (sample.sets.size() < sample.capacity) {
            defects.clear();
            append_syndrome_defects(syndromes.row(s), words, defects);
            sample.offer(defects);
          }
        }
      });
    }
  }
  if (exact_shots == 0) return;
  tracer.time("stab.exact", [&] {
    CompactTableauSimulator sim(CircuitTape::compile(circuit));
    for (std::size_t s = 0; s < exact_shots; ++s) {
      if (erasure)
        sim.sample_with_erasure_into(rng, *erasure, record);
      else
        sim.sample_into(rng, record);
      std::uint64_t actual = 0;
      staged.detectors.defects_and_observables_into(record, staged.reference,
                                                    defects, &actual);
      (void)decoder.decode(defects);
      sample.offer(defects);
    }
  });
}

std::unique_ptr<SlidingWindowDecoder> stage_aware_decoder(
    Tracer& tracer, const Circuit& instrumented,
    const std::vector<std::uint32_t>& detector_rounds, std::size_t rounds,
    const SlidingWindowOptions& window) {
  DetectorErrorModel dem;
  tracer.time("detector.dem", [&] {
    DemOptions options;
    options.include_reset_approximation = true;
    dem = DetectorErrorModel::from_circuit(instrumented, options);
  });
  MatchingGraph graph;
  tracer.time("detector.matching_graph",
              [&] { graph = MatchingGraph::from_dem(dem); });
  std::unique_ptr<SlidingWindowDecoder> decoder;
  tracer.time("decoder.window_build", [&] {
    decoder = std::make_unique<SlidingWindowDecoder>(graph, detector_rounds,
                                                     rounds, window);
  });
  return decoder;
}

void stab_probes(Report& report, const Circuit& circuit,
                 const DetectorSet& detectors, bool tiny) {
  constexpr std::size_t kBatch = 1024;
  ReferenceTrace trace;
  const bool needs_trace = contains_reset_noise(circuit);
  if (needs_trace) trace = TableauSimulator(circuit).reference_trace(nullptr);
  FrameSimulator sim(circuit, kBatch, needs_trace ? &trace : nullptr);
  Rng rng(7);
  BitVec residual(kBatch);
  DetectorSet::SyndromeScratch scratch;
  BitTable syndromes, observables;
  double frame_s = 0.0, transpose_s = 0.0;
  std::size_t batches = 0;
  const double budget = tiny ? 0.0 : 0.15;
  do {
    const Clock::time_point t0 = Clock::now();
    const MeasurementFlips& flips = sim.run(rng, &residual);
    const Clock::time_point t1 = Clock::now();
    detectors.transposed_flips(flips, scratch, syndromes, observables);
    frame_s += seconds_between(t0, t1);
    transpose_s += seconds_since(t1);
    ++batches;
  } while (frame_s + transpose_s < budget || batches < 2);
  report.metric("stab.frame_shots_per_s",
                static_cast<double>(batches * kBatch) / frame_s, "1/s");
  report.metric("bitmat.transpose_s",
                transpose_s / static_cast<double>(batches), "s");

  CompactTableauSimulator exact(CircuitTape::compile(circuit));
  BitVec record(circuit.num_measurements());
  std::size_t exact_shots = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    exact.sample_into(rng, record);
    ++exact_shots;
  } while (seconds_since(t0) < budget || exact_shots < 4);
  report.metric("stab.exact_shots_per_s",
                static_cast<double>(exact_shots) / seconds_since(t0), "1/s");
}

void decoder_probes(Report& report, const MatchingGraph& graph,
                    const DefectSample& sample, bool tiny) {
  std::vector<std::vector<std::uint32_t>> sets = sample.sets;
  if (sets.empty()) sets.push_back({0});
  const std::unique_ptr<Decoder> cold = make_decoder(DecoderKind::MWPM, graph);
  const auto* mwpm = dynamic_cast<const MwpmDecoder*>(cold.get());
  Clock::time_point t0 = Clock::now();
  for (const auto& d : sets) (void)cold->decode(d);
  const double cold_s = seconds_since(t0);
  for (const auto& d : sets) (void)cold->decode(d);  // first repeat
  const MwpmMatcherStats stats = mwpm ? mwpm->matcher_stats()
                                      : MwpmMatcherStats{};
  // Warm decodes: Dijkstra rows are grown, every set is resident.
  std::size_t decodes = 0;
  t0 = Clock::now();
  do {
    for (const auto& d : sets) (void)cold->decode(d);
    decodes += sets.size();
  } while (!tiny && seconds_since(t0) < 0.15);
  const double warm_s = seconds_since(t0);
  report.metric("decoder.decodes_per_s",
                static_cast<double>(decodes) / warm_s, "1/s");
  report.metric("decoder.cold_decodes_per_s",
                static_cast<double>(sets.size()) / cold_s, "1/s");
  report.metric("decoder.clusters_dp", static_cast<double>(stats.clusters_dp),
                "count");
  report.metric("decoder.clusters_sparse",
                static_cast<double>(stats.clusters_sparse), "count");
  report.metric("decoder.regions_grown",
                static_cast<double>(stats.regions_grown), "count");
  report.metric("decoder.blossoms_formed",
                static_cast<double>(stats.blossoms_formed), "count");
  report.metric("decoder.warm_reuses", static_cast<double>(stats.warm_reuses),
                "count");
}

namespace {

// The frames a stream of `shot` sends, rounds_per_frame rounds each.
std::vector<serve::RoundsFrame> shot_frames(const ShotPool& pool,
                                            std::size_t shot,
                                            std::size_t rounds_per_frame) {
  std::vector<serve::RoundsFrame> frames;
  const std::size_t rounds = pool.round_masks.size();
  for (std::size_t r = 0; r < rounds; r += rounds_per_frame) {
    const std::size_t complete = std::min(r + rounds_per_frame, rounds);
    serve::RoundsFrame f;
    f.shot_id = shot;
    f.first_round = static_cast<std::uint32_t>(r);
    f.num_rounds = static_cast<std::uint32_t>(complete - r);
    f.words.assign(pool.words[shot].size(), 0);
    for (std::size_t rr = r; rr < complete; ++rr)
      for (std::size_t w = 0; w < f.words.size(); ++w)
        f.words[w] |= pool.words[shot][w] & pool.round_masks[rr][w];
    frames.push_back(std::move(f));
  }
  return frames;
}

}  // namespace

LiveServe run_live(const InjectionEngine& engine,
                   const RadiationTimeline& timeline,
                   const SlidingWindowOptions& window, const ShotPool& pool,
                   LoadOptions load) {
  serve::ServeOptions options;
  options.window = window;
  serve::ServeServer server(engine, &timeline, options);
  server.start();
  load.port = server.tcp_port();
  LiveServe live;
  live.load = run_load(pool, load);
  server.shutdown();
  live.stats = server.stats();
  return live;
}

void serve_probes(Report& report, Tracer& tracer,
                  const InjectionEngine& engine,
                  const RadiationTimeline& timeline,
                  const SlidingWindowOptions& window, const ShotPool& pool,
                  const LiveServe& live) {
  constexpr std::size_t kRoundsPerFrame = 10;
  // Window decoders: construction and whole-shot decodes on a fresh memo.
  std::unique_ptr<SlidingWindowDecoder> dec;
  tracer.time("decoder.window_build", [&] {
    dec = engine.make_stream_decoder(nullptr, {}, window);
  });
  // Bounded share of the pool: the probes price per-shot and per-frame
  // work, not the pool size.
  const std::size_t limit = std::min<std::size_t>(pool.words.size(), 512);
  std::size_t decodes = 0;
  Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < limit; ++s) {
    (void)dec->decode(pool.defects[s]);
    ++decodes;
  }
  report.metric("decoder.window_decodes_per_s",
                static_cast<double>(decodes) / seconds_since(t0), "1/s");
  report.metric("decoder.window_memo_hit_rate",
                dec->memo_lookups() == 0
                    ? 0.0
                    : static_cast<double>(dec->memo_hits()) /
                          static_cast<double>(dec->memo_lookups()),
                "fraction");

  // In-process session (decode self time, no sockets) and protocol codec
  // on the same frames.
  serve::ServeOptions options;
  options.window = window;
  serve::ServeShared shared(engine, &timeline, options);
  serve::StreamSession session(shared);
  // As many shots as the live run streamed (bounded), in pool order, so
  // the session's memo is as warm as the live server's was.
  const std::size_t replayed =
      std::clamp<std::size_t>(live.load.shots_sent, 1, 2048);
  std::vector<serve::Reply> replies;
  std::vector<double> session_ms;  // per frame: the p50 pairs with commits'
  std::size_t frames = 0;
  double codec_s = 0.0;
  for (std::size_t s = 0; s < replayed; ++s) {
    for (serve::RoundsFrame& f :
         shot_frames(pool, s % pool.words.size(), kRoundsPerFrame)) {
      f.shot_id = s;
      t0 = Clock::now();
      const serve::RoundsFrame decoded =
          serve::decode_rounds(serve::encode_rounds(f));
      const Clock::time_point t1 = Clock::now();
      replies.clear();
      session.handle_rounds(decoded, replies);
      session_ms.push_back(1e3 * seconds_since(t1));
      codec_s += seconds_between(t0, t1);
      ++frames;
    }
  }
  const double session_p50 = quantile_or_zero(session_ms, 0.5);
  report.metric("serve.session_ms_per_frame", session_p50, "ms");
  report.metric("serve.protocol_ns_per_frame",
                1e9 * codec_s / static_cast<double>(frames), "ns");

  const double p50 = quantile_or_zero(live.load.all_latencies_ms(), 0.5);
  report.metric("serve.transport_wait_ms", p50 - session_p50, "ms");
  report.metric("serve.windows_committed",
                static_cast<double>(live.stats.windows_committed), "count");
  report.metric("serve.shed_shots", static_cast<double>(live.stats.shed_shots),
                "count");
  report.metric("serve.protocol_errors",
                static_cast<double>(live.stats.protocol_errors), "count");
  report.metric("serve.replies_dropped",
                static_cast<double>(live.stats.replies_dropped), "count");
  report.metric("serve.queue_high_water",
                static_cast<double>(live.stats.queue_high_water), "count");
  report.metric("loadgen.late_ms_p99",
                quantile_or_zero(live.load.late_ms, 0.99), "ms");
  report.metric("loadgen.prep_s", pool.prep_s, "s");
}

void EngineCounters::add(const InjectionEngine& engine, double shots) {
  sampled_shots += shots;
  residual_weighted += engine.residual_fraction() * shots;
  const PromotionStats p = engine.promotion_stats();
  promotion.groups += p.groups;
  promotion.promoted_shots += p.promoted_shots;
  promotion.exact_replays += p.exact_replays;
  cache += engine.decode_cache_stats();
  bypassed += engine.cache_bypassed() ? 1 : 0;
}

void report_engine_counters(Report& report, const EngineCounters& c,
                            std::size_t aware_rebuilds) {
  report.metric("inject.residual_fraction",
                c.sampled_shots > 0 ? c.residual_weighted / c.sampled_shots
                                    : 0.0,
                "fraction");
  report.metric("inject.exact_replays",
                static_cast<double>(c.promotion.exact_replays), "count");
  report.metric("inject.promo_groups",
                static_cast<double>(c.promotion.groups), "count");
  report.metric("inject.promoted_shots",
                static_cast<double>(c.promotion.promoted_shots), "count");
  report.metric("inject.aware_rebuilds", static_cast<double>(aware_rebuilds),
                "count");
  report.metric("decoder.cache_hit_rate", c.cache.hit_rate(), "fraction");
  report.metric("decoder.cache_lookups", static_cast<double>(c.cache.lookups),
                "count");
  report.metric("decoder.cache_bypassed", static_cast<double>(c.bypassed),
                "count");
}

void report_trace_summary(Report& report, const Tracer& tracer,
                          std::uint32_t replay_root, double untraced_s,
                          double traced_s) {
  report.metric("transpile.s", tracer.total("transpile"), "s");
  report.metric("detector.dem_s", tracer.total("detector.dem"), "s");
  report.metric("detector.matching_graph_s",
                tracer.total("detector.matching_graph"), "s");
  report.metric("stab.reference_s", tracer.total("stab.reference"), "s");
  report.metric("decoder.window_build_s",
                tracer.total("decoder.window_build"), "s");
  report.metric("trace.span_coverage",
                tracer.child_time(replay_root) / untraced_s, "fraction");
  report.metric("trace.overhead_s", traced_s - untraced_s, "s");
}

}  // namespace radbench
