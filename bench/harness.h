// Shared benchmark harness: scaling knobs, timing, table output.
//
// Every bench_fig* binary regenerates one figure/table of the paper as a
// CSV series on stdout. Paper-scale runs are expensive; by default all
// dataset sizes are multiplied by TPSET_BENCH_SCALE (default 0.1) so that
// `for b in build/bench/*; do $b; done` finishes in minutes. Run with
// TPSET_BENCH_SCALE=1 (or pass --full) for the paper's sizes. Quadratic
// baselines are additionally capped; every applied cap is printed — no
// silent truncation.
#ifndef TPSET_BENCH_HARNESS_H_
#define TPSET_BENCH_HARNESS_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <thread>

namespace tpset::bench {

/// Provenance fragment stamped into every committed BENCH_*.json head: the
/// host's CPU count, the widest worker-thread count the bench exercises,
/// an "obs" key that always reads "on" now that recording is always
/// compiled in (kept so every BENCH JSON head has one shape), and the
/// ISO-8601 UTC generation timestamp — enough to judge whether two
/// committed runs are comparable. Returns `indent`-spaced lines ending in a
/// trailing comma, ready to splice into an object body:
///   "host_cpus": 2,
///   "threads": 8,
///   "obs": "on",
///   "generated_utc": "2026-08-08T12:34:56Z",
inline std::string ProvenanceJson(std::size_t threads, int indent = 2) {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char ts[32];
  std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%SZ", &utc);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%s\"host_cpus\": %u,\n%s\"threads\": %zu,\n"
                "%s\"obs\": \"on\",\n%s\"generated_utc\": \"%s\",\n",
                pad.c_str(), std::thread::hardware_concurrency(), pad.c_str(),
                threads, pad.c_str(), pad.c_str(), ts);
  return buf;
}

/// Dataset scale factor: TPSET_BENCH_SCALE env var, overridden to 1.0 by a
/// --full argument. Default 0.1.
inline double ScaleFactor(int argc = 0, char** argv = nullptr) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") return 1.0;
  }
  if (const char* env = std::getenv("TPSET_BENCH_SCALE")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.1;
}

/// Scales a paper-sized cardinality.
inline std::size_t Scaled(std::size_t paper_n, double scale) {
  std::size_t n = static_cast<std::size_t>(static_cast<double>(paper_n) * scale);
  return n < 2 ? 2 : n;
}

/// Wall-clock time of one invocation, in milliseconds.
inline double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Prints the standard series header.
inline void PrintHeader(const char* experiment) {
  std::printf("# %s\n", experiment);
  std::printf("experiment,operation,approach,n,runtime_ms\n");
}

/// Prints one series row.
inline void PrintRow(const char* experiment, const char* operation,
                     const std::string& approach, std::size_t n, double ms) {
  std::printf("%s,%s,%s,%zu,%.3f\n", experiment, operation, approach.c_str(), n,
              ms);
  std::fflush(stdout);
}

/// Announces a skipped measurement (cap applied).
inline void PrintCap(const char* experiment, const char* operation,
                     const std::string& approach, std::size_t n,
                     std::size_t cap) {
  std::printf("%s,%s,%s,%zu,SKIPPED(cap=%zu; quadratic baseline)\n", experiment,
              operation, approach.c_str(), n, cap);
  std::fflush(stdout);
}

}  // namespace tpset::bench

#endif  // TPSET_BENCH_HARNESS_H_
