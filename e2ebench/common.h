// Shared vocabulary of the end-to-end benchmark: samples and their
// percentiles, the run result (correctness counters + named metrics), and
// the small clock and process helpers every workload uses.
#ifndef TPSET_E2EBENCH_COMMON_H_
#define TPSET_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relation/relation.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// The tail the choosing-metrics rule asks for: the highest percentile that
/// still has at least ten samples above it, capped at p99.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 0-100
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// One metric's samples.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const std::vector<double>& values() const { return v_; }
  double Median() const;
  /// Linear interpolation between order statistics; q in [0, 1].
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;
  /// With fewer than eleven samples no percentile has ten beyond it; the
  /// maximum is reported then, with `beyond` = 0 saying so.
  Tail TailValue() const;

 private:
  std::vector<double> v_;
};

/// Everything one run prints: correctness counters, metrics in insertion
/// order, and human-readable notes (tail ranks, attribution, provenance).
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  /// Counts one operation; a false `ok` is a failure, reported on stderr.
  void Count(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Peak resident set of this process in MiB (ru_maxrss, which Linux keeps
/// equal to VmHWM).
double PeakRssMb();

/// User + system CPU time of this process in milliseconds.
double ProcessCpuMs();

/// Moves the calling thread to the `k`-th CPU (mod the CPUs it may use),
/// then lets it run on any of them again; the scheduler leaves it where it
/// is. On a shared host each vCPU's speed drifts on its own, so a thread
/// that stayed on one vCPU for a whole run measured that vCPU. Moving it
/// at every session start spreads each run over all of them. Threads the
/// program starts afterwards still inherit the full CPU set.
void MoveToCpu(std::size_t k);

/// Sum of read-once probabilities over every output tuple: the valuation
/// step of "one query from text to the last output probability".
double ValuateAll(const tpset::TpRelation& rel);

/// Same tuples in the same order (fact, interval and lineage id) and the
/// same name: the bit-identity the replay and t4 checks require.
bool BitIdentical(const tpset::TpRelation& a, const tpset::TpRelation& b);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace e2e

#endif  // TPSET_E2EBENCH_COMMON_H_
