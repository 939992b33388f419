#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "reference.hpp"

namespace radbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::gate(const std::string& name, bool ok, std::size_t ops,
                  const std::string& detail) {
  notes_.push_back(std::string("gate ") + name + (ok ? " ok: " : " FAILED: ") +
                   detail);
  if (!ok) {
    correct_ = false;
    failed_ += ops == 0 ? 1 : ops;
  }
}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span s;
  s.id = static_cast<std::uint32_t>(index_ + 1);
  s.parent = tracer.open_.empty()
                 ? 0
                 : tracer.spans_[tracer.open_.back()].id;
  s.name = std::move(name);
  s.start_s = seconds_since(tracer.epoch_);
  tracer.spans_.push_back(std::move(s));
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_s = seconds_since(tracer_.epoch_);
  tracer_.open_.pop_back();
}

double Tracer::time(const std::string& name, const std::function<void()>& fn) {
  std::size_t index = spans_.size();
  {
    Scope scope(*this, name);
    fn();
  }
  return spans_[index].duration();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.duration();
  return sum;
}

double Tracer::child_time(std::uint32_t id) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.parent == id) sum += s.duration();
  return sum;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(9) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void PassSamples::add_pass(double rate,
                           const std::vector<double>& latencies_ms) {
  rates.push_back(rate);
  p50_ms.push_back(quantile_or_zero(latencies_ms, 0.5));
  p99_ms.push_back(quantile_or_zero(latencies_ms, 0.99));
  commits += latencies_ms.size();
}

void report_end_to_end(Report& report, const PassSamples& s) {
  report.metric("setup_s", quantile_or_zero(s.setup_s, 0.5), "s");
  report.metric("shots_per_s", quantile_or_zero(s.rates, 0.75), "1/s");
  report.metric("commit_p50_ms", quantile_or_zero(s.p50_ms, 0.25), "ms");
  report.metric("commit_p99_ms", quantile_or_zero(s.p99_ms, 0.25), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::ostringstream note;
  note << std::setprecision(4) << "samples: " << s.setup_s.size()
       << " set-ups, " << s.rates.size() << " passes, " << s.commits
       << " commits; pass throughput q25/q50/q75 "
       << quantile_or_zero(s.rates, 0.25) << " "
       << quantile_or_zero(s.rates, 0.5) << " "
       << quantile_or_zero(s.rates, 0.75) << "; pass p99 ms q25/q50/q75 "
       << quantile_or_zero(s.p99_ms, 0.25) << " "
       << quantile_or_zero(s.p99_ms, 0.5) << " "
       << quantile_or_zero(s.p99_ms, 0.75);
  report.note(note.str());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void gate_ler(Report& report,
              const std::vector<std::pair<std::string, LerTally>>& groups,
              const Options& options) {
  for (const auto& [name, tally] : groups) {
    const double rate = tally.shots == 0
                            ? 0.0
                            : static_cast<double>(tally.errors) /
                                  static_cast<double>(tally.shots);
    if (options.calibrate) {
      // Between-unit variance of the per-realization rates beyond their
      // binomial share (method of moments), for groups of random draws.
      double between = 0.0;
      const std::size_t k = tally.unit_rates.size();
      if (k > 1) {
        double mean = 0.0, binom = 0.0;
        for (std::size_t i = 0; i < k; ++i) mean += tally.unit_rates[i];
        mean /= static_cast<double>(k);
        double var = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          const double d = tally.unit_rates[i] - mean;
          var += d * d;
          binom += mean * (1.0 - mean) / tally.unit_shots[i];
        }
        var /= static_cast<double>(k - 1);
        between = std::max(0.0, var - binom / static_cast<double>(k));
      }
      std::ostringstream line;
      line << std::setprecision(9) << "    {\"" << name << "\", " << rate
           << ", " << tally.shots << ", " << between << "},";
      report.note(line.str());
      continue;
    }
    const LerReference* ref = find_reference(name);
    if (ref == nullptr) {
      report.gate("ler:" + name, false, tally.cells,
                  "no stored reference for this group");
      continue;
    }
    double expected = ref->ler;
    if (options.violate == "ler") expected = 1.0 - expected;
    const double p = std::clamp(expected, 1e-6, 1.0 - 1e-6);
    // Binomial variance of this run and of the stored reference, plus the
    // between-realization variance of randomly drawn cells.
    const double n = std::max<double>(1.0, static_cast<double>(tally.shots));
    const double units =
        std::max<double>(1.0, static_cast<double>(tally.unit_rates.size()));
    const double var = p * (1.0 - p) / n + p * (1.0 - p) / ref->shots +
                       ref->between_var / units;
    const double z = (rate - expected) / std::sqrt(var);
    std::ostringstream detail;
    detail << std::setprecision(4) << "ler " << rate << " over "
           << tally.shots << " shots vs reference " << expected
           << " (z = " << z << ", bound " << kLerZBound << ")";
    report.gate("ler:" + name, std::abs(z) <= kLerZBound, tally.cells,
                detail.str());
  }
}

}  // namespace radbench
