// radbench — the radsurf benchmark.
//
//   radbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--tiny] [--violate <gate>] [--calibrate] [--trace-out <path>]
//
// Runs one workload and prints diagnostic lines, an environment line, and
// as its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics of a traced
// replay with --trace 1.  Inputs (shot seeds, root orders, event
// realizations, recorded shots) are generated from --seed.
#include <sched.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "stab/simd.hpp"
#include "util/parallel.hpp"

namespace radbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric contract of BENCHMARK.json, checked on every run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"shots_per_s", "1/s"},
    {"commit_p50_ms", "ms"},  {"commit_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"transpile.s", "s"},
    {"detector.dem_s", "s"},
    {"detector.dem_mechanisms", "count"},
    {"detector.matching_graph_s", "s"},
    {"stab.frame_shots_per_s", "1/s"},
    {"stab.exact_shots_per_s", "1/s"},
    {"stab.reference_s", "s"},
    {"bitmat.transpose_s", "s"},
    {"inject.residual_fraction", "fraction"},
    {"inject.exact_replays", "count"},
    {"inject.promo_groups", "count"},
    {"inject.promoted_shots", "count"},
    {"inject.aware_rebuilds", "count"},
    {"decoder.cache_hit_rate", "fraction"},
    {"decoder.cache_lookups", "count"},
    {"decoder.cache_bypassed", "count"},
    {"decoder.decodes_per_s", "1/s"},
    {"decoder.cold_decodes_per_s", "1/s"},
    {"decoder.clusters_dp", "count"},
    {"decoder.clusters_sparse", "count"},
    {"decoder.regions_grown", "count"},
    {"decoder.blossoms_formed", "count"},
    {"decoder.warm_reuses", "count"},
    {"decoder.window_build_s", "s"},
    {"decoder.window_decodes_per_s", "1/s"},
    {"decoder.window_memo_hit_rate", "fraction"},
    {"noise.sample_s", "s"},
    {"noise.events", "count"},
    {"serve.session_ms_per_frame", "ms"},
    {"serve.protocol_ns_per_frame", "ns"},
    {"serve.transport_wait_ms", "ms"},
    {"serve.windows_committed", "count"},
    {"serve.shed_shots", "count"},
    {"serve.protocol_errors", "count"},
    {"serve.replies_dropped", "count"},
    {"serve.queue_high_water", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.prep_s", "s"},
    {"trace.span_coverage", "fraction"},
    {"trace.overhead_s", "s"},
};

const std::map<std::string, void (*)(const Options&, Report&)> kWorkloads = {
    {"paper_sweep", run_paper_sweep},
    {"strike_rotated_d17", run_strike_d17},
    {"burst_aware_d5", run_burst_aware_d5},
    {"serve_rep5_200r", run_serve},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "radbench: " << msg
            << "\nusage: radbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--violate <gate>] [--calibrate] "
               "[--trace-out <path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--violate") o.violate = value();
    else if (a == "--calibrate") o.calibrate = true;
    else if (a == "--trace-out") o.trace_out = value();
    else usage("unknown argument " + a);
  }
  if (kWorkloads.count(o.workload) == 0)
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const int threads = radsurf::hardware_threads();
  const int cpus = usable_cpus();
  if (threads > cpus) {
    std::cerr << "radbench: " << threads << " OpenMP threads exceed the "
              << cpus << " usable CPUs; set OMP_NUM_THREADS\n";
    return 2;
  }
  Report report;
  kWorkloads.at(o.workload)(o, report);

  for (const std::string& line : report.notes()) std::cout << "# " << line << "\n";
  std::cout << "# env {\"workload\": \"" << o.workload << "\", \"seed\": "
            << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"omp_threads\": " << threads << ", \"nproc\": " << cpus
            << ", \"simd\": \"" << radsurf::simd::backend()
            << "\", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"build\": \"" << RADBENCH_BUILD_TYPE << "\"}\n";
  if (o.calibrate) return report.correct() ? 0 : 1;

  const auto& specs = o.trace ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                                        std::end(kPerLayer))
                              : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                                        std::end(kEndToEnd));
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const Report::Metric* found = nullptr;
    for (const Report::Metric& m : report.metrics())
      if (m.name == spec.name) found = &m;
    if (found == nullptr || found->unit != spec.unit ||
        !std::isfinite(found->value)) {
      std::cerr << "radbench: metric " << spec.name
                << " missing, non-finite or not in " << spec.unit << "\n";
      return 3;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + number(found->value) + ", \"unit\": \"" +
               spec.unit + "\"}";
  }
  for (const Report::Metric& m : report.metrics()) {
    bool listed = false;
    for (const MetricSpec& spec : specs) listed |= m.name == spec.name;
    if (!listed)
      std::cout << "# extra " << m.name << " = " << number(m.value) << " "
                << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, report.attempted())
            << ", \"failed\": " << report.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace radbench

int main(int argc, char** argv) {
  try {
    return radbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "radbench: " << e.what() << "\n";
    return 1;
  }
}
