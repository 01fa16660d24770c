// End-to-end benchmark binary: runs one workload through the public
// QueryExecutor API and prints every metric by name with its unit, then one
// JSON result line. See README.md for the workloads, the metric catalogue
// and how to run it.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//
// Exit status: 0 when every output check passed, 1 when any failed (the
// result line is still printed, with "correct": false), 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>

#include "common.h"
#include "obs/recorder.h"
#include "workloads.h"

namespace e2e {

double Samples::Median() const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Samples::Sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }

Tail Samples::TailValue() const {
  Tail t;
  t.n = v_.size();
  if (v_.empty()) return t;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  std::size_t idx = t.n > 10 ? t.n - 11 : t.n - 1;
  // No higher than p99: past it, the stream's ~6k reads per run read a few
  // dozen rare stalls whose count varies with the seed, and the ten-beyond
  // rank's ten-seed spread reached 0.28.
  if (t.n > 10) {
    idx = std::min(idx, static_cast<std::size_t>(
                            0.99 * static_cast<double>(t.n - 1)));
  }
  t.value = s[idx];
  t.beyond = t.n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(t.n);
  return t;
}

void RunResult::Count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "e2e_bench: FAILED %s\n", what.c_str());
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB -> MiB
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

void MoveToCpu(std::size_t k) {
  // The CPU set the process started with; read once, before any move.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int rank = static_cast<int>(k % static_cast<std::size_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || rank-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);  // migrates before returning
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
}

double ValuateAll(const tpset::TpRelation& rel) {
  double sum = 0.0;
  for (std::size_t i = 0; i < rel.size(); ++i) sum += rel.TupleProbability(i);
  return sum;
}

bool BitIdentical(const tpset::TpRelation& a, const tpset::TpRelation& b) {
  return a.name() == b.name() && a.tuples() == b.tuples();
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<oneshot_uniform|oneshot_skewed_t4|stream_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n",
               msg);
  return 2;
}

std::string ProvenanceJson(const Options& opt, std::size_t max_threads) {
#ifdef TPSET_OBS_DISABLED
  const char* obs_build = "off";
#else
  const char* obs_build = "on";
#endif
  return Format(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"host_cpus\": %u, \"threads\": [1%s], "
      "\"tpset_obs\": \"%s\", \"obs_collector\": \"%s\", "
      "\"cmake_build_type\": \"%s\", \"git_commit\": \"%s\"}",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), max_threads > 1 ? ", 4" : "",
      obs_build,
      tpset::obs::Recorder::Global().running() ? "on" : "off", E2E_BUILD_TYPE,
      opt.commit.c_str());
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return e2e::Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--commit") {
      opt.commit = val;
    } else {
      return e2e::Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return e2e::Usage("--workload, --seed, --seconds (0, 600] and --trace "
                      "0|1 are required");
  }

  void (*run)(const e2e::Options&, e2e::RunResult*) = nullptr;
  std::size_t max_threads = 1;
  if (opt.workload == "oneshot_uniform") {
    run = e2e::RunOneshotUniform;
  } else if (opt.workload == "oneshot_skewed_t4") {
    run = e2e::RunOneshotSkewedT4;
    max_threads = 4;
  } else if (opt.workload == "stream_mixed") {
    run = e2e::RunStreamMixed;
  } else {
    return e2e::Usage(("unknown workload " + opt.workload).c_str());
  }

  // The flight-recorder collector runs, as it does in any process that
  // appends (the engine starts it on the first epoch); starting it up
  // front keeps every session of every workload under the same conditions.
  tpset::obs::Recorder::Global().EnsureStarted();

  e2e::RunResult result;
  run(opt, &result);

  std::printf("# provenance %s\n", e2e::ProvenanceJson(opt, max_threads).c_str());
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("# failed_frac = %.6g ratio (%zu failed of %zu attempted)\n",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              result.failed, result.attempted);
  for (const auto& [name, vu] : result.metrics) {
    std::printf("%s = %.10g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string metrics;
  for (const auto& [name, vu] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    metrics += e2e::Format("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                           name.c_str(), v, vu.second.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  std::fflush(stdout);
  tpset::obs::Recorder::Global().Stop();
  return correct ? 0 : 1;
}
