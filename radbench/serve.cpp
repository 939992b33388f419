// serve_rep5_200r: `radsurf serve` in-process on the specs/serve.json
// experiment (rep-(5,1) on mesh:5x2, 200 rounds, W = 10 / C = 5), quiet
// streams over 2 loopback TCP connections.  An open-loop phase at a fixed
// offered rate measures commit latency; a closed-loop phase (pipelined,
// max_inflight = 4) measures capacity.  Every RESULT is pinned against
// the offline decode of the same recorded shot.
#include <algorithm>
#include <memory>
#include <sstream>

#include "arch/topologies.hpp"
#include "codes/repetition.hpp"
#include "layers.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"

namespace radbench {

using namespace radsurf;

namespace {

// Two connections: the server runs a reader and a worker thread per
// connection, so server plus client threads stay near a 4-core host.
constexpr std::size_t kStreams = 2;
constexpr std::size_t kRoundsPerFrame = 10;
// Offered load of the open-loop phase, per stream — about half the
// closed-loop capacity of a 4-vCPU host.  A constant: never adapted to
// the run, so latency is measured at the same load on every commit.
constexpr double kOpenShotsPerStream = 800.0;
// Distinct recorded shots; phases replay them cyclically.
constexpr std::size_t kPoolShots = 4096;

// Per-connection ingest queue, in frames.  The shared benchmark host stalls
// threads for 5-10 ms at times; the default 128 frames hold 8 ms of the
// offered load, so a stall would shed shots and fail the run.
constexpr std::size_t kQueueFrames = 4096;

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.server.queue_capacity = kQueueFrames;
  return cfg;
}

struct Server {
  std::unique_ptr<InjectionEngine> engine;
  std::unique_ptr<RadiationTimeline> timeline;
  std::unique_ptr<serve::ServeServer> server;
  // The server borrows the engine and timeline: stop it first.
  void reset() {
    server.reset();
    timeline.reset();
    engine.reset();
  }
};

/// The system's own set-up: engine construction, then server start until
/// it accepts connections.
Server start_server(const serve::ServeConfig& cfg) {
  Server s;
  s.engine = cfg.build_engine();
  s.timeline = std::make_unique<RadiationTimeline>(cfg.build_timeline(*s.engine));
  s.server = std::make_unique<serve::ServeServer>(*s.engine, s.timeline.get(),
                                                  cfg.server_options());
  s.server->start();
  return s;
}

void serve_gates(Report& report, const std::vector<LoadResult>& phases,
                 const serve::ServeStatsSnapshot& stats,
                 std::size_t num_windows) {
  std::size_t mismatches = 0, errors = 0, sheds = 0, missing = 0, sent = 0;
  for (const LoadResult& r : phases) {
    mismatches += r.mismatches;
    errors += r.errors;
    sheds += r.sheds;
    missing += r.missing_commits;
    sent += r.shots_sent;
  }
  report.attempt(sent);
  report.gate("serve_mismatch", mismatches == 0, mismatches,
              std::to_string(mismatches) +
                  " streamed predictions differ from the offline decode");
  report.gate("serve_protocol", errors == 0 && stats.protocol_errors == 0,
              errors + stats.protocol_errors,
              std::to_string(errors) + " client errors, " +
                  std::to_string(stats.protocol_errors) +
                  " server protocol errors");
  report.gate("serve_shed", sheds == 0 && missing == 0,
              sheds + (missing + num_windows - 1) / num_windows,
              std::to_string(sheds) + " shed shots, " +
                  std::to_string(missing) + " missing commits");
}

}  // namespace

void run_serve(const Options& o, Report& report) {
  const serve::ServeConfig cfg = serve_config();
  const double phase_s = o.tiny ? 0.1 : 0.45 * o.seconds;
  Rng seeds(o.seed);

  // Latency is sampled per 0.1 s of due time: a host stall then spoils a
  // few segments, not the run's lower-quartile p99.
  LoadOptions open;
  open.segment_s = 0.1;
  open.streams = kStreams;
  open.rounds_per_frame = kRoundsPerFrame;
  open.open_shots_per_s = kOpenShotsPerStream;
  open.duration_s = phase_s;
  open.send_bad_frame = o.violate == "protocol";
  LoadOptions closed = open;
  closed.open_shots_per_s = 0.0;
  closed.max_inflight = cfg.max_inflight;
  closed.shot_id_base = std::uint64_t{1} << 40;
  closed.send_bad_frame = false;
  closed.segment_s = 0.25;

  if (!o.trace) {
    PassSamples samples;
    Server s;
    for (int i = 0; i < (o.tiny ? 1 : kSetupRepeats); ++i) {
      s.reset();
      const Clock::time_point t0 = Clock::now();
      s = start_server(cfg);
      samples.setup_s.push_back(seconds_since(t0));
    }
    // Load-generator input, outside every timed phase.
    ShotPool pool = prep_pool(*s.engine, *s.timeline, cfg.window,
                              o.tiny ? 64 : kPoolShots, seeds.next());
    if (o.violate == "mismatch") pool.expected[0] ^= 1;
    open.port = closed.port = s.server->tcp_port();
    const LoadResult open_r = run_load(pool, open);
    const LoadResult closed_r = run_load(pool, closed);
    s.server->shutdown();
    const serve::ServeStatsSnapshot stats = s.server->stats();

    // Latency from the open-loop segments, capacity from the closed-loop
    // ones.
    for (const std::vector<double>& seg : open_r.segment_latencies_ms) {
      samples.p50_ms.push_back(quantile_or_zero(seg, 0.5));
      samples.p99_ms.push_back(quantile_or_zero(seg, 0.99));
      samples.commits += seg.size();
    }
    samples.rates = closed_r.segment_rates;
    report_end_to_end(report, samples);
    std::ostringstream note;
    note << "open loop: " << open_r.shots_sent << " shots, sender late p99 "
         << quantile_or_zero(open_r.late_ms, 0.99) << " ms; closed loop: "
         << closed_r.results << " shots; queue high water "
         << stats.queue_high_water << "; loadgen prep " << pool.prep_s
         << " s (excluded)";
    report.note(note.str());
    serve_gates(report, {open_r, closed_r}, stats, pool.num_windows);
    return;
  }

  // Traced run: one untraced pass (set-up + open-loop phase), the same
  // pass under spans, then the engine's build stages staged one by one.
  const ShotPool pool = [&] {
    const std::unique_ptr<InjectionEngine> engine = cfg.build_engine();
    return prep_pool(*engine, cfg.build_timeline(*engine), cfg.window,
                     o.tiny ? 64 : kPoolShots / 2, seeds.next());
  }();
  open.duration_s = o.tiny ? 0.1 : 1.5;
  const Clock::time_point u0 = Clock::now();
  {
    Server s = start_server(cfg);
    open.port = s.server->tcp_port();
    const LoadResult r = run_load(pool, open);
    s.server->shutdown();
    serve_gates(report, {r}, s.server->stats(), pool.num_windows);
  }
  const double untraced_s = seconds_since(u0);

  Tracer tracer;
  const std::uint32_t root_id =
      static_cast<std::uint32_t>(tracer.spans().size() + 1);
  Server s;
  LiveServe live;
  const double traced_s = tracer.time("replay", [&] {
    tracer.time("serve.engine", [&] {
      s.engine = cfg.build_engine();
      s.timeline =
          std::make_unique<RadiationTimeline>(cfg.build_timeline(*s.engine));
    });
    tracer.time("serve.start", [&] {
      s.server = std::make_unique<serve::ServeServer>(
          *s.engine, s.timeline.get(), cfg.server_options());
      s.server->start();
    });
    open.port = s.server->tcp_port();
    tracer.time("serve.open_loop", [&] { live.load = run_load(pool, open); });
    tracer.time("serve.shutdown", [&] { s.server->shutdown(); });
    live.stats = s.server->stats();
  });
  const RepetitionCode code(static_cast<int>(cfg.distance),
                            RepetitionFlavor::BIT_FLIP);
  EngineOptions opts;
  opts.physical_error_rate = cfg.error_rate;
  opts.rounds = cfg.rounds;
  opts.whole_history_decoder = false;
  const StagedEngine staged =
      stage_engine(tracer, code, make_topology(cfg.arch), opts);
  Circuit quiet;
  tracer.time("noise.instrument", [&] {
    quiet = instrument_timeline_noise(
        staged.noisy_base,
        s.timeline->schedule(s.engine->architecture(), {}, cfg.rounds));
  });

  report.metric("detector.dem_mechanisms",
                static_cast<double>(staged.dem.mechanisms.size()), "count");
  report.metric("noise.sample_s", tracer.total("noise.instrument"), "s");
  report.metric("noise.events", 0.0, "count");
  EngineCounters counters;
  counters.add(*s.engine, 0.0);
  report_engine_counters(report, counters, live.stats.aware_rebuilds);
  stab_probes(report, quiet, staged.detectors, o.tiny);
  DefectSample sample;
  for (const auto& d : pool.defects) sample.offer(d);
  decoder_probes(report, staged.graph, sample, o.tiny);
  serve_probes(report, tracer, *s.engine, *s.timeline, cfg.window, pool, live);
  report_trace_summary(report, tracer, root_id, untraced_s, traced_s);
  if (!o.trace_out.empty()) tracer.write(o.trace_out);
}

}  // namespace radbench
