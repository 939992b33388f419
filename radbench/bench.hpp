// Shared plumbing of the radsurf benchmark: run options, the result
// report (metrics, attempted/failed operations, correctness gates), the
// span tracer of traced runs, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace radbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test budget: every loop runs a token amount of work, so a pass
  /// of all workloads takes seconds.  Rates are not meaningful.
  bool tiny = false;
  /// Self-test hook: name of one correctness gate whose check is fed a
  /// deliberately violated input ("" = none).
  std::string violate;
  /// Calibration mode: print pooled logical-error statistics for
  /// reference.hpp instead of a benchmark result.
  bool calibrate = false;
  /// Where a traced run writes its spans ("" = not written).
  std::string trace_out;
};

/// One benchmark run's output: metrics, operation counts and the
/// correctness gates that decide `correct`.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::size_t n) { attempted_ += n; }
  /// A correctness gate over `ops` operations: when `ok` is false every
  /// one of them counts as failed and the run is not correct.
  void gate(const std::string& name, bool ok, std::size_t ops,
            const std::string& detail);
  /// Free-form diagnostic line (stdout, before the result line).
  void note(const std::string& line) { notes_.push_back(line); }

  const std::vector<Metric>& metrics() const { return metrics_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder of traced runs (name, start, end, parent, id),
/// written out once the run ends.  Spans wrap calls into the library's
/// public functions from the benchmark side; the library has no clocks.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::string name;
    double start_s = 0.0;  // since the tracer's epoch
    double end_s = 0.0;
    double duration() const { return end_s - start_s; }
  };

  /// RAII span: opened as a child of the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Run `fn` inside a span and return its duration in seconds.
  double time(const std::string& name, const std::function<void()>& fn);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span named `name`.
  double total(const std::string& name) const;
  /// Wall time the children of span `id` cover (children of one parent run
  /// sequentially, so their durations add up without overlap).
  double child_time(std::uint32_t id) const;
  /// Write the spans as one JSON document.
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// q-quantile (linear interpolation); 0 for an empty sample.
inline double quantile_or_zero(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : radsurf::quantile(xs, q);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Pooled logical-error statistics of one gated group of campaign cells.
struct LerTally {
  std::uint64_t errors = 0;
  std::uint64_t shots = 0;
  std::size_t cells = 0;
  // Per-realization rates, for groups whose cells are random draws.
  std::vector<double> unit_rates;
  std::vector<double> unit_shots;
  void add(std::uint64_t e, std::uint64_t n) {
    errors += e;
    shots += n;
    ++cells;
  }
};

/// Check every tallied group against the stored reference (reference.hpp)
/// within its z-bound; a group with no stored reference fails.  With
/// `calibrate`, print the tallies in reference.hpp form instead.
void gate_ler(Report& report,
              const std::vector<std::pair<std::string, LerTally>>& groups,
              const Options& options);

/// The samples behind a run's end-to-end metrics: each set-up repeat, and
/// per pass (about a second of work) its throughput and the p50/p99 of its
/// commit latencies.  A campaign pass is submitted as one batch, so a
/// cell's commit latency runs from the pass start to the return of the
/// call that produced the cell's result; a serve commit's runs from when
/// its completing frame was due.  The run reports the median set-up time, the upper
/// quartile of pass throughput and the lower quartile of pass latencies:
/// interference on a shared host only ever slows a pass down, so the fast
/// quartile follows the program while the slow passes follow whatever else
/// the host runs (measured: same-seed medians moved 20%, upper quartiles
/// 4%).
struct PassSamples {
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::size_t commits = 0;
  void add_pass(double rate, const std::vector<double>& latencies_ms);
};
void report_end_to_end(Report& report, const PassSamples& samples);

/// Set-ups per run (campaign passes of paper_sweep set up once each): a
/// single-threaded engine build varies 30% from one build to the next on
/// a shared host, so setup_s is the median of several.
inline constexpr int kSetupRepeats = 5;

// Workload entry points (one translation unit each).
void run_paper_sweep(const Options& options, Report& report);
void run_strike_d17(const Options& options, Report& report);
void run_burst_aware_d5(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace radbench
