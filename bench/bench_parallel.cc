// Thread-scaling of the partitioned parallel engine: LAWA-P at 1/2/4
// threads against sequential LAWA on a 1M-tuple-per-relation synthetic pair
// (scaled by TPSET_BENCH_SCALE), all three operations, measured on the
// host's own cores (the JSON records host_cpus).
//
// Each LAWA-P measurement carries the per-phase wall-time breakdown
// (sort/split/advance/apply); `apply` is the lineage intern in the
// operation's turn (LineageManager::ConcatBlock on the operation's pool)
// plus the output fill. The context uses hash-consing (the production
// default). Every rep runs against a freshly generated context and pair
// (same seed): a production operation builds lineage formulas the arena has
// not seen, so a warm-arena rerun — where every intern degrades to a cache
// hit — would systematically understate the apply phase. Every rep's output
// is compared with sequential LAWA's on its own fresh context, tuple for
// tuple and lineage id for id, and so is the arena's node count after it;
// each entry records the verdict as "identical", and any divergence exits
// non-zero.
//
// A second section runs the same measurement under *fact skew* — zipf(s=1.2)
// and a single 90%-weight fact — the inputs the morsel scheduler exists
// for.
//
// A third section A/Bs the advancers themselves (the scalar reference vs
// the fused kernel, both reading the sorted tuple arrays in place; see
// DESIGN.md "Columnar sweep kernel"): pure t1
// sweep walls (window enumeration only — the whole-op wall is dominated by
// lineage concatenation, which no sweep kernel can move), with the window
// streams cross-checked — any scalar/columnar divergence exits non-zero. A
// radix vs comparison sort measurement on shuffled input rides along.
//
// Output: the harness CSV rows, one "# json {...}" summary line per
// operation, and a machine-readable summary written to BENCH_parallel.json
// (override with --json <path>) so the perf trajectory is tracked across
// PRs.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <random>

#include "bench/harness.h"
#include "datagen/synthetic.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "net/http_server.h"
#include "obs/export.h"
#include "obs/http_endpoints.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "parallel/parallel_set_op.h"

using namespace tpset;
using namespace tpset::bench;

namespace {

// The thread counts every LAWA-P entry is measured at.
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

struct Sample {
  double wall_ms = 0.0;
  // The operator span's phase walls (its "sort", "split", "advance" and
  // "apply" children).
  double sort_ms = 0.0, split_ms = 0.0, advance_ms = 0.0, apply_ms = 0.0;
  LawaStats stats;
  bool identical = true;  // every rep's output and arena size equalled the
                          // reference's
};

// One phase child's wall, or 0 when the operator did not record it.
double PhaseMs(const obs::Span& span, const char* phase) {
  const obs::Span* child = span.FindChild(phase);
  return child == nullptr ? 0.0 : child->wall_ms;
}

// Fresh synthetic pair, deterministic across calls (fixed seed).
std::pair<TpRelation, TpRelation> FreshPair(const SyntheticPairSpec& spec) {
  auto ctx = std::make_shared<TpContext>(/*hash_consing=*/true);
  Rng rng(0x9A7A11E1);
  return GenerateSyntheticPair(ctx, spec, &rng);
}

// Fresh skewed pair, deterministic across calls.
std::pair<TpRelation, TpRelation> FreshSkewPair(const SkewedPairSpec& spec) {
  auto ctx = std::make_shared<TpContext>(/*hash_consing=*/true);
  Rng rng(0x5EED5EED);
  return GenerateSkewedPair(ctx, spec, &rng);
}

// Cold-arena best-of-reps for sequential LAWA; *reference receives the
// output (on its own context, which it keeps alive).
template <typename Fresh>
double BestSequentialCold(int reps, const Fresh& fresh, SetOpKind op,
                          TpRelation* reference) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto [r, s] = fresh();
    double ms = TimeMs([&]() { *reference = LawaSetOp(op, r, s); });
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// Best-of-reps LAWA-P wall time (with the fastest run's phase breakdown and
// stats), each rep against a cold arena; generation time is excluded. Every
// rep's output and arena node count are checked against `reference`'s.
template <typename Fresh>
Sample BestTimedCold(int reps, const Fresh& fresh, std::size_t threads,
                     SetOpKind op, const TpRelation& reference) {
  ParallelSetOpAlgorithm algo(threads);
  Sample best;
  bool identical = true;
  for (int i = 0; i < reps; ++i) {
    auto [r, s] = fresh();
    Sample run;
    TpRelation out;
    obs::Span span;
    run.wall_ms = TimeMs([&]() {
      out = algo.ComputeSequenced(op, r, s, /*seq=*/nullptr, /*ticket=*/0,
                                  &run.stats, &span);
    });
    run.sort_ms = PhaseMs(span, "sort");
    run.split_ms = PhaseMs(span, "split");
    run.advance_ms = PhaseMs(span, "advance");
    run.apply_ms = PhaseMs(span, "apply");
    identical = identical && out.tuples() == reference.tuples() &&
                out.context()->lineage().size() ==
                    reference.context()->lineage().size();
    if (i == 0 || run.wall_ms < best.wall_ms) best = run;
  }
  best.identical = identical;
  return best;
}

// "t1":{...},"t2":{...},"t4":{...} for one operation's samples.
std::string ThreadsJson(const Sample (&at)[std::size(kThreadCounts)]) {
  std::string out;
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    const Sample& s = at[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\"t%zu\":{\"wall_ms\":%.3f,\"sort_ms\":%.3f,"
                  "\"split_ms\":%.3f,\"advance_ms\":%.3f,\"apply_ms\":%.3f,"
                  "\"identical\":%s}",
                  i > 0 ? "," : "", kThreadCounts[i], s.wall_ms,
                  s.sort_ms, s.split_ms, s.advance_ms, s.apply_ms,
                  s.identical ? "true" : "false");
    out += buf;
  }
  return out;
}

// Measures LAWA and LAWA-P at every thread count for one operation over
// `fresh` pairs, printing CSV rows tagged `tag`. Returns false on a
// divergence from sequential LAWA.
template <typename Fresh>
bool MeasureOp(const char* experiment, const std::string& tag, int reps,
               const Fresh& fresh, SetOpKind op, std::size_t n,
               double* seq_ms, Sample (&at)[std::size(kThreadCounts)]) {
  TpRelation reference;
  *seq_ms = BestSequentialCold(reps, fresh, op, &reference);
  PrintRow(experiment, tag.c_str(), "LAWA", n, *seq_ms);
  bool identical = true;
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    const std::size_t threads = kThreadCounts[i];
    at[i] = BestTimedCold(reps, fresh, threads, op, reference);
    PrintRow(experiment, tag.c_str(), "LAWA-P/" + std::to_string(threads), n,
             at[i].wall_ms);
    if (!at[i].identical) {
      std::fprintf(stderr,
                   "bench_parallel: %s at t%zu diverged from sequential "
                   "LAWA\n",
                   tag.c_str(), threads);
      identical = false;
    }
  }
  return identical;
}

// ---- Kernel A/B (scalar vs columnar advance) ------------------------------

// One surviving window as the sweep emitted it, before lineage
// concatenation — the stream both kernels must produce identically.
struct KernelWindow {
  FactId fact;
  TimePoint start, end;
  LineageId lr, ls;
  bool operator==(const KernelWindow& o) const {
    return fact == o.fact && start == o.start && end == o.end && lr == o.lr &&
           ls == o.ls;
  }
};

// ---- Serving-overhead harness (--serve) -----------------------------------

// One blocking loopback GET, reading the response to EOF. Returns bytes
// received (0 on any failure — the bench does not care why a scrape missed,
// only that the server was under scrape load while it measured).
std::size_t ScrapeOnce(std::uint16_t port, const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::size_t total = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = std::string("GET ") + target +
                          " HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t got;
      while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        total += static_cast<std::size_t>(got);
      }
    }
  }
  ::close(fd);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // The bench runs with the flight recorder's collector live (as production
  // does): its sampling overhead is part of what the committed numbers
  // measure. DESIGN.md records the measured on/off delta.
  obs::Recorder::Global().Start();
  double scale = ScaleFactor(argc, argv);
  const char* json_path = "BENCH_parallel.json";
  const char* metrics_path = nullptr;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    }
  }

  // --serve: run the introspection HTTP server on an ephemeral loopback
  // port for the whole bench, with a client thread scraping /metrics every
  // 100ms — the production "Prometheus is watching" configuration. Compare
  // the measured walls against a --serve-less run to put a number on
  // serving overhead (recorded in DESIGN.md; the gate is <= 3% on the
  // advance wall).
  std::unique_ptr<net::HttpServer> server;
  std::thread scraper;
  std::atomic<bool> scraping{false};
  std::uint64_t scrapes = 0;
  if (serve) {
    server = std::make_unique<net::HttpServer>();
    obs::RegisterIntrospectionEndpoints(server.get(), nullptr);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_parallel: --serve failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("# serving on http://%s (scraping /metrics every 100ms)\n",
                server->address().c_str());
    scraping.store(true, std::memory_order_release);
    const std::uint16_t port = server->port();
    scraper = std::thread([&scraping, &scrapes, port]() {
      while (scraping.load(std::memory_order_acquire)) {
        if (ScrapeOnce(port, "/metrics") > 0) ++scrapes;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  std::printf("# parallel scaling: LAWA-P threads=1/2/4 vs LAWA, 1M "
              "tuples/relation (scale=%.3g), 1K facts, hash-consing on, "
              "outputs checked against LAWA\n", scale);
  PrintHeader("parallel");

  const std::size_t n = Scaled(1000000, scale);
  SyntheticPairSpec spec = TableIIIPreset(0.6);
  spec.num_tuples = n;
  spec.num_facts = std::max<std::size_t>(1, n / 1000);
  auto fresh = [&spec]() { return FreshPair(spec); };
  const int reps = 3;
  bool identical = true;

  std::string json = "{\n  \"experiment\": \"parallel\",\n";
  json += ProvenanceJson(/*threads=*/kThreadCounts[std::size(kThreadCounts) - 1]);
  {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "  \"scale\": %.4g,\n  \"n_per_relation\": %zu,\n"
                  "  \"num_facts\": %zu,\n  \"reps\": %d,\n"
                  "  \"hash_consing\": true,\n  \"cold_arena\": true,\n"
                  "  \"operations\": [\n",
                  scale, n, spec.num_facts, reps);
    json += head;
  }

  bool first_op = true;
  for (SetOpKind op : kAllSetOps) {
    const char* op_name = SetOpName(op);
    double seq_ms = 0.0;
    Sample at[std::size(kThreadCounts)];
    identical &= MeasureOp("parallel", op_name, reps, fresh, op, n, &seq_ms, at);
    const Sample& t1 = at[0];
    const Sample& t4 = at[std::size(kThreadCounts) - 1];
    const double speedup = t4.wall_ms > 0 ? t1.wall_ms / t4.wall_ms : 0.0;
    const double apply_speedup =
        t4.apply_ms > 0 ? at[1].apply_ms / t4.apply_ms : 0.0;
    std::printf(
        "# json {\"experiment\":\"parallel\",\"operation\":\"%s\",\"n\":%zu,"
        "\"lawa_ms\":%.3f,\"t1_ms\":%.3f,\"t4_ms\":%.3f,"
        "\"apply_ms_t2\":%.3f,\"apply_ms_t4\":%.3f,"
        "\"speedup_4_over_1\":%.3f,\"identical\":%s}\n",
        op_name, n, seq_ms, t1.wall_ms, t4.wall_ms, at[1].apply_ms,
        t4.apply_ms, speedup,
        at[0].identical && at[1].identical && t4.identical ? "true" : "false");

    if (!first_op) json += ",\n";
    first_op = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"operation\": \"%s\", \"lawa_ms\": %.3f,\n"
                  "     \"lawa_p\": {",
                  op_name, seq_ms);
    json += buf;
    json += ThreadsJson(at);
    std::snprintf(buf, sizeof(buf),
                  "},\n     \"speedup_4_over_1\": %.3f, "
                  "\"apply_speedup_4_over_2\": %.3f}",
                  speedup, apply_speedup);
    json += buf;
  }
  json += "\n  ],\n";

  // ---- Skewed scenarios: morsel scheduler ---------------------------------
  std::printf("# skew: zipf(s=1.2) and one-hot(90%%) facts, LAWA-P "
              "threads=1/2/4 vs LAWA, outputs checked against LAWA\n");
  PrintHeader("parallel-skew");

  struct SkewScenario {
    const char* name;
    SkewedPairSpec spec;
  };
  std::vector<SkewScenario> scenarios(2);
  scenarios[0].name = "zipf_1.2";
  scenarios[0].spec.zipf_s = 1.2;
  scenarios[0].spec.num_facts = 64;
  scenarios[1].name = "one_hot_90";
  scenarios[1].spec.hot_fact_share = 0.9;
  scenarios[1].spec.num_facts = 16;
  for (SkewScenario& sc : scenarios) sc.spec.num_tuples = n;

  json += "  \"skew\": [\n";
  const int skew_reps = 2;
  bool first_skew = true;
  for (const SkewScenario& sc : scenarios) {
    auto fresh_skew = [&sc]() { return FreshSkewPair(sc.spec); };
    for (SetOpKind op : kAllSetOps) {
      const char* op_name = SetOpName(op);
      const std::string tag = std::string(sc.name) + "/" + op_name;
      double seq_ms = 0.0;
      Sample at[std::size(kThreadCounts)];
      identical &= MeasureOp("parallel-skew", tag, skew_reps, fresh_skew, op, n,
                             &seq_ms, at);
      const Sample& t4 = at[std::size(kThreadCounts) - 1];
      std::printf(
          "# json {\"experiment\":\"parallel-skew\",\"scenario\":\"%s\","
          "\"operation\":\"%s\",\"t1_ms\":%.3f,\"t4_ms\":%.3f,"
          "\"morsels\":%zu,\"stolen\":%zu,\"facts_split\":%zu}\n",
          sc.name, op_name, at[0].wall_ms, t4.wall_ms, t4.stats.morsels_run,
          t4.stats.morsels_stolen, t4.stats.facts_split);

      if (!first_skew) json += ",\n";
      first_skew = false;
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s\", \"operation\": \"%s\", \"n\": %zu,\n"
          "     \"lawa_ms\": %.3f,\n     \"lawa_p\": {",
          sc.name, op_name, n, seq_ms);
      json += buf;
      json += ThreadsJson(at);
      std::snprintf(buf, sizeof(buf),
                    "},\n     \"morsels_run_t4\": %zu, \"morsels_stolen_t4\": "
                    "%zu, \"facts_split_t4\": %zu}",
                    t4.stats.morsels_run, t4.stats.morsels_stolen,
                    t4.stats.facts_split);
      json += buf;
    }
  }
  json += "\n  ],\n";

  // ---- Kernel A/B: scalar vs columnar LAWA advance -----------------------
  // Pure sweep at t1 (advancer + window enumeration only — no lineage
  // concatenation, which dominates the whole-op sequential wall and would
  // bury the kernel difference), window streams cross-checked.
  std::printf("# kernel A/B: scalar vs columnar advance — pure sweep t1 "
              "(window streams checked)\n");
  PrintHeader("kernel-ab");
  json += "  \"kernel_ab\": [\n";
  const int ab_reps = 5;
  bool first_ab = true;
  bool ab_diverged = false;
  for (SetOpKind op : kAllSetOps) {
    const char* op_name = SetOpName(op);
    const std::string tag = op_name;

    // Pure sweep over one shared sorted pair (no arena mutation, so reps
    // can reuse it); both kernels must emit the identical window stream.
    auto [r, s] = fresh();
    std::vector<KernelWindow> scalar_win, columnar_win;
    double sweep_scalar = 0.0, sweep_columnar = 0.0;
    for (int i = 0; i < ab_reps; ++i) {
      scalar_win.clear();
      double ms = TimeMs([&]() {
        LineageAwareWindowAdvancer adv(r.tuples().data(), r.size(),
                                       s.tuples().data(), s.size());
        ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
          scalar_win.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
        });
      });
      if (i == 0 || ms < sweep_scalar) sweep_scalar = ms;
    }
    for (int i = 0; i < ab_reps; ++i) {
      columnar_win.clear();
      double ms = TimeMs([&]() {
        ColumnarAdvancer adv(r.columnar(), s.columnar());
        adv.Sweep(op, [&](const LineageAwareWindow& w) {
          columnar_win.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
        });
      });
      if (i == 0 || ms < sweep_columnar) sweep_columnar = ms;
    }
    const bool stream_equal = scalar_win == columnar_win;
    if (!stream_equal) {
      std::fprintf(stderr,
                   "bench_parallel: kernel divergence (%s): scalar emitted "
                   "%zu windows, columnar %zu\n",
                   op_name, scalar_win.size(), columnar_win.size());
      ab_diverged = true;
    }
    PrintRow("kernel-ab", tag.c_str(), "sweep-scalar/1", n, sweep_scalar);
    PrintRow("kernel-ab", tag.c_str(), "sweep-columnar/1", n, sweep_columnar);

    const double sweep_speedup =
        sweep_columnar > 0 ? sweep_scalar / sweep_columnar : 0.0;
    std::printf(
        "# json {\"experiment\":\"kernel-ab\",\"operation\":\"%s\","
        "\"sweep_scalar_t1_ms\":%.3f,\"sweep_columnar_t1_ms\":%.3f,"
        "\"sweep_speedup_t1\":%.3f,\"identical\":%s}\n",
        op_name, sweep_scalar, sweep_columnar, sweep_speedup,
        stream_equal ? "true" : "false");

    if (!first_ab) json += ",\n";
    first_ab = false;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"operation\": \"%s\", \"n\": %zu, \"windows\": %zu,\n"
        "     \"sweep_scalar_t1_ms\": %.3f, \"sweep_columnar_t1_ms\": %.3f,\n"
        "     \"sweep_speedup_t1\": %.3f, \"identical\": %s}",
        op_name, n, scalar_win.size(), sweep_scalar, sweep_columnar,
        sweep_speedup, stream_equal ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n";

  // ---- Radix sort on unsorted input (hoisted counts + skipped passes) ----
  {
    auto [r, s] = fresh();
    std::vector<TpTuple> shuffled = r.tuples();
    std::mt19937 shuffle_rng(0xC0FFEE);
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    double radix_ms = 0.0, cmp_ms = 0.0;
    for (int i = 0; i < ab_reps; ++i) {
      std::vector<TpTuple> copy = shuffled;
      double ms = TimeMs([&]() { SortTuples(&copy, SortMode::kCounting); });
      if (i == 0 || ms < radix_ms) radix_ms = ms;
    }
    for (int i = 0; i < ab_reps; ++i) {
      std::vector<TpTuple> copy = shuffled;
      double ms = TimeMs([&]() { SortTuples(&copy, SortMode::kComparison); });
      if (i == 0 || ms < cmp_ms) cmp_ms = ms;
    }
    PrintRow("kernel-ab", "sort-unsorted", "radix", shuffled.size(), radix_ms);
    PrintRow("kernel-ab", "sort-unsorted", "comparison", shuffled.size(),
             cmp_ms);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"sort_unsorted\": {\"n\": %zu, \"sort_radix_ms\": %.3f, "
                  "\"sort_comparison_ms\": %.3f}\n",
                  shuffled.size(), radix_ms, cmp_ms);
    json += buf;
  }
  json += "}\n";

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "bench_parallel: cannot write %s\n", json_path);
    return 1;
  }

  // --metrics <path>: dump the process-wide registry as JSON lines after
  // the run — the CI stage validates this export against the checked-in
  // schema (scripts/metrics_schema.json).
  if (metrics_path != nullptr) {
    const std::string lines = obs::JsonLines(obs::TakeScrape());
    if (std::FILE* f = std::fopen(metrics_path, "w")) {
      std::fputs(lines.c_str(), f);
      std::fclose(f);
      std::printf("# wrote %s\n", metrics_path);
    } else {
      std::fprintf(stderr, "bench_parallel: cannot write %s\n", metrics_path);
      return 1;
    }
  }
  if (serve) {
    scraping.store(false, std::memory_order_release);
    scraper.join();
    const net::HttpServerStats stats = server->stats();
    server->Stop();
    std::printf("# serve: scrapes=%llu served=%llu shed=%llu\n",
                static_cast<unsigned long long>(scrapes),
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.saturated));
  }
  if (ab_diverged) {
    std::fprintf(stderr,
                 "bench_parallel: FAILED — columnar kernel diverged from "
                 "scalar (see above)\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "bench_parallel: FAILED — LAWA-P diverged from sequential "
                 "LAWA (see above)\n");
    return 1;
  }
  return 0;
}
