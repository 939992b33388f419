// Campaign workloads: paper_sweep, strike_rotated_d17, burst_aware_d5.
//
// Untraced runs measure the engine's own public campaign calls; traced
// runs time one untraced pass, replay the same configuration stage by
// stage under spans, and run the per-layer probes.
#include <algorithm>
#include <memory>
#include <sstream>

#include "arch/topologies.hpp"
#include "codes/repetition.hpp"
#include "codes/rotated.hpp"
#include "codes/xxzz.hpp"
#include "core/experiments.hpp"
#include "layers.hpp"
#include "noise/radiation.hpp"

namespace radbench {

using namespace radsurf;

namespace {

/// Quiet shot pool and a short loopback open-loop run on `engine`, for the
/// serve-layer probes of a campaign workload's traced run.
void campaign_serve_probes(Report& report, Tracer& tracer,
                           const InjectionEngine& engine,
                           const SlidingWindowOptions& window,
                           std::size_t pool_shots, double offered_per_stream,
                           std::uint64_t seed, bool tiny) {
  const RadiationTimeline timeline(engine.radiation(), TimelineOptions{});
  const ShotPool pool =
      prep_pool(engine, timeline, window, tiny ? 8 : pool_shots, seed);
  LoadOptions load;
  load.open_shots_per_s = offered_per_stream;
  load.duration_s = tiny ? 0.05 : 0.5;
  const LiveServe live = run_live(engine, timeline, window, pool, load);
  serve_probes(report, tracer, engine, timeline, window, pool, live);
}

// --- paper_sweep ----------------------------------------------------------

struct SweepConfig {
  std::string name;
  std::unique_ptr<SurfaceCode> code;
  Graph arch;
};

std::vector<SweepConfig> sweep_configs() {
  std::vector<SweepConfig> out;
  out.push_back({"rep5",
                 std::make_unique<RepetitionCode>(5, RepetitionFlavor::BIT_FLIP),
                 make_mesh(5, 2)});
  out.push_back({"xxzz33", std::make_unique<XXZZCode>(3, 3), make_mesh(5, 4)});
  auto rep15 = std::make_unique<RepetitionCode>(15, RepetitionFlavor::BIT_FLIP);
  Graph mesh = scaled_mesh_for(rep15->num_qubits());
  out.push_back({"rep15", std::move(rep15), std::move(mesh)});
  return out;
}

// Shots per campaign cell: two frame chunks of 1024, so cells run in
// parallel while a whole pass over the three engines stays near 1.5 s
// (a throughput sample).  A radiation event runs one cell per temporal
// sample (ns = 10).
constexpr std::size_t kSweepShots = 2048;

struct SweepPass {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  std::size_t shots = 0;
  std::size_t cells = 0;
  std::vector<double> latencies_ms;
  std::vector<std::unique_ptr<InjectionEngine>> engines;
  std::vector<std::size_t> engine_shots;
};

SweepPass sweep_pass(const std::vector<SweepConfig>& configs,
                     std::uint64_t seed, std::size_t shots,
                     std::vector<std::pair<std::string, LerTally>>& tallies) {
  SweepPass pass;
  Clock::time_point t0 = Clock::now();
  for (const SweepConfig& c : configs)
    pass.engines.push_back(
        std::make_unique<InjectionEngine>(*c.code, c.arch, EngineOptions{}));
  pass.setup_s = seconds_since(t0);
  Rng order_rng(seed);
  const auto tally = [&](const std::string& group) -> LerTally& {
    for (auto& [name, t] : tallies)
      if (name == group) return t;
    tallies.emplace_back(group, LerTally{});
    return tallies.back().second;
  };
  for (std::size_t e = 0; e < configs.size(); ++e) {
    const InjectionEngine& engine = *pass.engines[e];
    const std::string prefix = "paper_sweep/" + configs[e].name + "/";
    std::size_t engine_shots = 0;
    const auto cell = [&](const std::string& kind, std::size_t cell_shots,
                          const auto& run) {
      const Clock::time_point c0 = Clock::now();
      const std::size_t errors = run(order_rng.next());
      pass.campaign_s += seconds_since(c0);
      pass.latencies_ms.push_back(1e3 * pass.campaign_s);
      pass.shots += cell_shots;
      engine_shots += cell_shots;
      ++pass.cells;
      tally(prefix + kind).add(errors, cell_shots);
    };
    cell("intrinsic", shots, [&](std::uint64_t s) {
      return engine.run_intrinsic(shots, s).successes;
    });
    // The root list is a generated input: every active root, in an order
    // drawn from the seed.
    std::vector<std::uint32_t> roots = engine.active_qubits();
    for (std::size_t i = roots.size(); i > 1; --i)
      std::swap(roots[i - 1], roots[order_rng.below(i)]);
    const std::size_t samples = engine.radiation().sample_values().size();
    for (const std::uint32_t root : roots) {
      cell("event", shots * samples, [&](std::uint64_t s) {
        std::size_t errors = 0;
        for (const Proportion& p : engine.run_radiation_event(root, shots, s))
          errors += p.successes;
        return errors;
      });
      cell("erasure", shots, [&](std::uint64_t s) {
        return engine.run_erasure({root}, shots, s).successes;
      });
    }
    pass.engine_shots.push_back(engine_shots);
  }
  return pass;
}

}  // namespace

void run_paper_sweep(const Options& o, Report& report) {
  const std::vector<SweepConfig> configs = sweep_configs();
  const std::size_t shots = o.tiny ? 128 : kSweepShots;
  std::vector<std::pair<std::string, LerTally>> tallies;
  Rng seeds(o.seed);

  if (!o.trace) {
    PassSamples samples;
    const Clock::time_point t0 = Clock::now();
    do {
      SweepPass pass = sweep_pass(configs, seeds.next(), shots, tallies);
      samples.setup_s.push_back(pass.setup_s);
      samples.add_pass(static_cast<double>(pass.shots) / pass.campaign_s,
                       pass.latencies_ms);
      report.attempt(pass.cells);
    } while (seconds_since(t0) < o.seconds ||
             (!o.tiny && samples.rates.size() < 3));
    report_end_to_end(report, samples);
    gate_ler(report, tallies, o);
    return;
  }

  // Traced run: one untraced pass, then its stage-by-stage replay.
  const Clock::time_point u0 = Clock::now();
  SweepPass pass = sweep_pass(configs, seeds.next(), shots, tallies);
  const double untraced_s = seconds_since(u0);
  report.attempt(pass.cells);
  EngineCounters counters;
  for (std::size_t e = 0; e < pass.engines.size(); ++e)
    counters.add(*pass.engines[e], static_cast<double>(pass.engine_shots[e]));

  Tracer tracer;
  const std::uint32_t root_id =
      static_cast<std::uint32_t>(tracer.spans().size() + 1);
  DefectSample xxzz_sample;
  double mechanisms = 0.0;
  std::size_t events = 0;
  Circuit xxzz_strike;
  std::vector<StagedEngine> staged;
  staged.reserve(configs.size());
  const double traced_s = tracer.time("replay", [&] {
    Rng replay_rng(o.seed);
    for (std::size_t e = 0; e < configs.size(); ++e) {
      staged.push_back(stage_engine(tracer, *configs[e].code, configs[e].arch,
                                    EngineOptions{}));
      const StagedEngine& s = staged.back();
      mechanisms += static_cast<double>(s.dem.mechanisms.size());
      DefectSample scratch;
      DefectSample& sample = configs[e].name == "xxzz33" ? xxzz_sample
                                                         : scratch;
      stage_cell(tracer, s, s.noisy_base, nullptr, shots, replay_rng.next(),
                 false, *s.cached, sample);
      const RadiationModel model;
      const std::vector<double> values = model.sample_values();
      for (const std::uint32_t root : s.transpiled.touched_physical_qubits()) {
        for (const double value : values) {
          Circuit strike;
          tracer.time("noise.instrument", [&] {
            strike = instrument_reset_noise(
                s.noisy_base,
                model.qubit_probabilities(configs[e].arch, root, value, true));
          });
          ++events;
          stage_cell(tracer, s, strike, nullptr, shots, replay_rng.next(),
                     false, *s.cached, sample);
          if (configs[e].name == "xxzz33" && xxzz_strike.num_qubits() == 0)
            xxzz_strike = strike;
        }
        const std::vector<std::uint32_t> erased = {root};
        ++events;
        stage_cell(tracer, s, s.noisy_base, &erased, shots, replay_rng.next(),
                   false, *s.cached, sample);
      }
    }
  });
  const StagedEngine* xxzz_staged = &staged[1];  // configs[1] is xxzz33

  report.metric("detector.dem_mechanisms", mechanisms, "count");
  report.metric("noise.sample_s", tracer.total("noise.instrument"), "s");
  report.metric("noise.events", static_cast<double>(events), "count");
  report_engine_counters(report, counters, 0);
  stab_probes(report, xxzz_strike, xxzz_staged->detectors, o.tiny);
  decoder_probes(report, xxzz_staged->graph, xxzz_sample, o.tiny);
  campaign_serve_probes(report, tracer, *pass.engines[0], SlidingWindowOptions{},
                        256, 400.0, o.seed, o.tiny);
  report_trace_summary(report, tracer, root_id, untraced_s, traced_s);
  if (!o.trace_out.empty()) tracer.write(o.trace_out);
  gate_ler(report, tallies, o);
}

// --- strike_rotated_d17 ------------------------------------------------------

namespace {

constexpr std::size_t kStrikeShots = 32;
// Cells per pass: about half a second of work per throughput sample.
constexpr std::size_t kStrikeCellsPerPass = 8;

EngineOptions strike_options() {
  EngineOptions opts;
  opts.layout = LayoutStrategy::TRIVIAL;  // native graph: identity layout
  return opts;
}

void strike_gates(Report& report, const InjectionEngine& engine,
                  const Options& o) {
  std::string engine_name = engine.replay_engine();
  double residual = engine.residual_fraction();
  if (o.violate == "replay_engine") engine_name = "compact";
  if (o.violate == "residual") residual = 0.5;
  report.gate("replay_engine", engine_name == "compact:w19", 1,
              "replay engine " + engine_name + " (expected compact:w19)");
  std::ostringstream detail;
  detail << "residual fraction " << residual << " (expected 1)";
  report.gate("residual_fraction", residual == 1.0, 1, detail.str());
}

}  // namespace

void run_strike_d17(const Options& o, Report& report) {
  const RotatedCode code(17, RotatedMemory::Z);
  const Graph arch = native_graph_for(code);
  const std::size_t shots = o.tiny ? 4 : kStrikeShots;
  std::vector<std::pair<std::string, LerTally>> tallies(
      1, {"strike_rotated_d17/strike", LerTally{}});
  LerTally& tally = tallies[0].second;
  Rng seeds(o.seed);

  if (!o.trace) {
    PassSamples samples;
    std::unique_ptr<InjectionEngine> engine;
    for (int i = 0; i < (o.tiny ? 1 : kSetupRepeats); ++i) {
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<InjectionEngine>(code, arch, strike_options());
      samples.setup_s.push_back(seconds_since(t0));
    }
    // One full-intensity spreading strike at a fixed root.
    const std::uint32_t root = engine->active_qubits()[0];
    const Clock::time_point t0 = Clock::now();
    do {
      std::vector<double> latencies;
      double pass_s = 0.0;
      for (std::size_t c = 0; c < (o.tiny ? 1 : kStrikeCellsPerPass); ++c) {
        const Clock::time_point c0 = Clock::now();
        const Proportion p =
            engine->run_radiation_at(root, 1.0, true, shots, seeds.next());
        pass_s += seconds_since(c0);
        latencies.push_back(1e3 * pass_s);
        tally.add(p.successes, shots);
        report.attempt(1);
      }
      samples.add_pass(
          static_cast<double>(shots * latencies.size()) / pass_s, latencies);
    } while (seconds_since(t0) < o.seconds);
    report_end_to_end(report, samples);
    strike_gates(report, *engine, o);
    gate_ler(report, tallies, o);
    return;
  }

  const std::size_t cells = o.tiny ? 1 : 8;
  const Clock::time_point u0 = Clock::now();
  const InjectionEngine engine(code, arch, strike_options());
  const std::uint32_t root = engine.active_qubits()[0];
  for (std::size_t i = 0; i < cells; ++i) {
    const Proportion p =
        engine.run_radiation_at(root, 1.0, true, shots, seeds.next());
    tally.add(p.successes, shots);
  }
  const double untraced_s = seconds_since(u0);
  report.attempt(cells);
  EngineCounters counters;
  counters.add(engine, static_cast<double>(cells * shots));

  Tracer tracer;
  const std::uint32_t root_id =
      static_cast<std::uint32_t>(tracer.spans().size() + 1);
  DefectSample sample;
  sample.capacity = 256;
  StagedEngine staged;
  Circuit strike;
  const double traced_s = tracer.time("replay", [&] {
    staged = stage_engine(tracer, code, arch, strike_options());
    tracer.time("noise.instrument", [&] {
      strike = instrument_reset_noise(
          staged.noisy_base,
          engine.radiation().qubit_probabilities(arch, root, 1.0, true));
    });
    Rng replay_rng(o.seed);
    for (std::size_t i = 0; i < cells; ++i)
      stage_cell(tracer, staged, strike, nullptr, shots, replay_rng.next(),
                 true, *staged.cached, sample);
  });

  report.metric("detector.dem_mechanisms",
                static_cast<double>(staged.dem.mechanisms.size()), "count");
  report.metric("noise.sample_s", tracer.total("noise.instrument"), "s");
  report.metric("noise.events", 1.0, "count");
  report_engine_counters(report, counters, 0);
  stab_probes(report, strike, staged.detectors, o.tiny);
  decoder_probes(report, staged.graph, sample, o.tiny);
  campaign_serve_probes(report, tracer, engine, SlidingWindowOptions{}, 8,
                        20.0, o.seed, o.tiny);
  report_trace_summary(report, tracer, root_id, untraced_s, traced_s);
  if (!o.trace_out.empty()) tracer.write(o.trace_out);
  strike_gates(report, engine, o);
  gate_ler(report, tallies, o);
}

// --- burst_aware_d5 ------------------------------------------------------------

namespace {

constexpr std::size_t kBurstRounds = 8;
constexpr std::size_t kBurstShots = 256;
// Realizations per pass: a fixed herald mix, so throughput measures the
// code and not how many strikes a seed happened to draw.
constexpr std::size_t kBurstHeralded = 3;
constexpr std::size_t kBurstQuiet = 5;

EngineOptions burst_options() {
  EngineOptions opts;
  opts.rounds = kBurstRounds;
  opts.layout = LayoutStrategy::TRIVIAL;
  opts.whole_history_decoder = false;
  opts.physical_error_rate = 1e-3;
  opts.decoder.herald_aware = true;
  return opts;
}

TimelineOptions burst_timeline_options() {
  TimelineOptions t;
  t.events_per_round = 0.15;
  t.duration_rounds = 6;
  t.chip_burst = true;
  t.qp_lambda = 1.5;
  t.intensity = 0.5;
  return t;
}

const SlidingWindowOptions kBurstWindow{4, 2};

/// The pass's realizations: the first kBurstHeralded non-empty Poisson
/// draws, then kBurstQuiet quiet ones.
std::vector<std::vector<RadiationEvent>> burst_realizations(
    const InjectionEngine& engine, const RadiationTimeline& timeline,
    std::uint64_t seed) {
  std::vector<std::vector<RadiationEvent>> out;
  Rng rng(seed);
  while (out.size() < kBurstHeralded) {
    auto events = timeline.sample(kBurstRounds, engine.active_qubits(),
                                  &engine.architecture(), rng);
    if (!events.empty()) out.push_back(std::move(events));
  }
  out.resize(kBurstHeralded + kBurstQuiet);
  return out;
}

struct BurstPass {
  double seconds = 0.0;
  std::size_t shots = 0;
  std::size_t cells = 0;
  std::vector<double> latencies_ms;
};

BurstPass burst_pass(const InjectionEngine& engine,
                     const RadiationTimeline& timeline, std::uint64_t seed,
                     std::size_t shots, LerTally& heralded, LerTally& quiet) {
  BurstPass pass;
  Rng seeds(seed);
  for (const auto& events : burst_realizations(engine, timeline, seeds.next())) {
    const Clock::time_point c0 = Clock::now();
    const Proportion p =
        engine.run_timeline(timeline, events, shots, seeds.next(), kBurstWindow);
    pass.seconds += seconds_since(c0);
    pass.latencies_ms.push_back(1e3 * pass.seconds);
    pass.shots += shots;
    ++pass.cells;
    LerTally& t = events.empty() ? quiet : heralded;
    t.add(p.successes, shots);
    t.unit_rates.push_back(p.rate());
    t.unit_shots.push_back(static_cast<double>(shots));
  }
  return pass;
}

void rebuild_gate(Report& report, const InjectionEngine& engine,
                  const RadiationTimeline& timeline, const Options& o,
                  std::uint64_t seed) {
  // The engine's own campaign counter: heralded realizations must decode
  // on rebuilt, strike-reweighted windows.
  const TimelineSummary summary =
      engine.run_timeline_campaign(timeline, 8, 8, seed, kBurstWindow);
  std::size_t rebuilds = summary.aware_rebuilds;
  if (o.violate == "rebuild") rebuilds = 0;
  report.attempt(1);
  report.gate("aware_rebuild", rebuilds >= 1, 1,
              std::to_string(rebuilds) + " aware rebuilds over " +
                  std::to_string(summary.num_timelines) + " realizations");
}

}  // namespace

void run_burst_aware_d5(const Options& o, Report& report) {
  const RotatedCode code(5, RotatedMemory::Z);
  const Graph arch = native_graph_for(code);
  const std::size_t shots = o.tiny ? 16 : kBurstShots;
  std::vector<std::pair<std::string, LerTally>> tallies = {
      {"burst_aware_d5/heralded", LerTally{}},
      {"burst_aware_d5/quiet", LerTally{}}};
  Rng seeds(o.seed);

  if (!o.trace) {
    PassSamples samples;
    std::unique_ptr<InjectionEngine> engine;
    for (int i = 0; i < (o.tiny ? 1 : kSetupRepeats); ++i) {
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<InjectionEngine>(code, arch, burst_options());
      samples.setup_s.push_back(seconds_since(t0));
    }
    const RadiationTimeline timeline(engine->radiation(),
                                     burst_timeline_options());
    const Clock::time_point t0 = Clock::now();
    do {
      const BurstPass pass =
          burst_pass(*engine, timeline, seeds.next(), shots,
                     tallies[0].second, tallies[1].second);
      samples.add_pass(static_cast<double>(pass.shots) / pass.seconds,
                       pass.latencies_ms);
      report.attempt(pass.cells);
    } while (seconds_since(t0) < o.seconds ||
             (!o.tiny && samples.rates.size() < 3));
    report_end_to_end(report, samples);
    rebuild_gate(report, *engine, timeline, o, seeds.next());
    gate_ler(report, tallies, o);
    return;
  }

  const Clock::time_point u0 = Clock::now();
  const InjectionEngine engine(code, arch, burst_options());
  const RadiationTimeline timeline(engine.radiation(), burst_timeline_options());
  const std::uint64_t pass_seed = seeds.next();
  const BurstPass pass = burst_pass(engine, timeline, pass_seed, shots,
                                    tallies[0].second, tallies[1].second);
  const double untraced_s = seconds_since(u0);
  report.attempt(pass.cells);
  EngineCounters counters;
  counters.add(engine, static_cast<double>(pass.shots));

  Tracer tracer;
  const std::uint32_t root_id =
      static_cast<std::uint32_t>(tracer.spans().size() + 1);
  DefectSample sample;
  StagedEngine staged;
  Circuit first_heralded;
  std::size_t events = 0, rebuilds = 0;
  const double traced_s = tracer.time("replay", [&] {
    staged = stage_engine(tracer, code, arch, burst_options());
    std::vector<std::vector<RadiationEvent>> realizations;
    Rng pass_seeds(pass_seed);
    tracer.time("noise.sample", [&] {
      realizations = burst_realizations(engine, timeline, pass_seeds.next());
    });
    for (const auto& realization : realizations) {
      events += realization.size();
      Circuit circuit;
      tracer.time("noise.instrument", [&] {
        circuit = instrument_timeline_noise(
            staged.noisy_base,
            timeline.schedule(arch, realization, kBurstRounds));
      });
      std::unique_ptr<SlidingWindowDecoder> decoder;
      if (realization.empty()) {
        tracer.time("decoder.window_build", [&] {
          decoder = engine.make_stream_decoder(nullptr, {}, kBurstWindow);
        });
      } else {
        decoder = stage_aware_decoder(tracer, circuit, engine.detector_rounds(),
                                      kBurstRounds, kBurstWindow);
        ++rebuilds;
        if (first_heralded.num_qubits() == 0) first_heralded = circuit;
      }
      stage_cell(tracer, staged, circuit, nullptr, shots, pass_seeds.next(),
                 false, *decoder, sample);
    }
  });

  report.metric("detector.dem_mechanisms",
                static_cast<double>(staged.dem.mechanisms.size()), "count");
  report.metric("noise.sample_s",
                tracer.total("noise.sample") + tracer.total("noise.instrument"),
                "s");
  report.metric("noise.events", static_cast<double>(events), "count");
  report_engine_counters(report, counters, rebuilds);
  stab_probes(report, first_heralded, staged.detectors, o.tiny);
  decoder_probes(report, staged.graph, sample, o.tiny);
  campaign_serve_probes(report, tracer, engine, kBurstWindow, 128, 200.0,
                        o.seed, o.tiny);
  report_trace_summary(report, tracer, root_id, untraced_s, traced_s);
  if (!o.trace_out.empty()) tracer.write(o.trace_out);
  rebuild_gate(report, engine, timeline, o, seeds.next());
  gate_ler(report, tallies, o);
}

}  // namespace radbench
