// Incremental continuous-query maintenance vs full recompute.
//
// Sweeps relation size (0.1x and 1x of 1M tuples/relation, scaled by
// TPSET_BENCH_SCALE) and delta size (0.01% / 0.1% / 1% of the relation) for
// the continuous query `r - s`. For each point it measures:
//   * register/1, register/8 — the wall of RegisterContinuous, whose
//     initial computation applies both relations as one delta;
//   * inc/1, inc/8 — mean per-epoch latency of QueryExecutor::Append with
//     the query maintained sequentially / with the 8-thread parallel delta
//     apply (epochs alternate r and s appends, so both the pure-resume and
//     the retraction-heavy path are in the mean);
//   * full — one-shot Execute over the grown relations (best of 3), i.e.
//     what serving the query without the subsystem would cost per batch.
// The headline number is speedup = full / inc-1; the acceptance bar is
// >= 5x for deltas <= 1% of a 1M-tuple relation.
//
// Bit-identity gate: the t1 and t8 runs of a point share their seed, so
// after the epochs (before the full recompute interns anything) their
// Current() tuples, lineage ids included, and their arena sizes must be
// equal. Each point records "identical", and a divergence exits non-zero.
//
// Output: harness CSV rows, one "# json {...}" line per point, and a
// machine-readable summary in BENCH_streaming.json (--json <path>).
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "datagen/stream.h"
#include "incremental/continuous_query.h"
#include "query/executor.h"

using namespace tpset;
using namespace tpset::bench;

namespace {

using Cursors = std::vector<TimePoint>;

// Seeds and registers one relation of per-fact chains.
void SeedRelation(QueryExecutor* exec, const std::shared_ptr<TpContext>& ctx,
                  const char* name, std::size_t n, Cursors* cursors, Rng* rng) {
  TpRelation rel(ctx, Schema::SingleInt("fact"), name);
  SeedFactChains(&rel, n, cursors, rng);
  Status st = exec->Register(rel);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
}

struct Point {
  std::size_t n;
  std::size_t delta_rows;
  double register_ms;
  double inc_ms;
  double full_ms;
  std::vector<TpTuple> current;  // the query's result after the epochs
  std::size_t arena_nodes;       // lineage().size() after the epochs
};

// One sweep point: fresh context, seeded pair, continuous `r - s`,
// `epochs` appends alternating sides.
Point Measure(std::size_t n, double delta_frac, std::size_t num_threads) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  Rng rng(0x57AE4417);
  const std::size_t num_facts = n >= 1000 ? n / 1000 : 1;
  std::vector<Cursors> cursors(2, Cursors(num_facts, 0));
  SeedRelation(&exec, ctx, "r", n, &cursors[0], &rng);
  SeedRelation(&exec, ctx, "s", n, &cursors[1], &rng);

  ContinuousOptions options;
  options.num_threads = num_threads;
  const auto register_t0 = std::chrono::steady_clock::now();
  Result<ContinuousQuery*> cq = exec.RegisterContinuous("diff", "r - s", options);
  const double register_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - register_t0)
                                 .count();
  if (!cq.ok()) {
    std::fprintf(stderr, "%s\n", cq.status().ToString().c_str());
    std::exit(1);
  }

  const std::size_t delta_rows =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   static_cast<double>(n) * delta_frac));
  const int epochs = 6;
  double inc_total = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const std::size_t side = static_cast<std::size_t>(e) % 2;
    DeltaBatch batch = NextChainBatch(&cursors[side], delta_rows, &rng);
    const char* rel = side == 0 ? "r" : "s";
    inc_total += TimeMs([&]() {
      Result<EpochId> epoch = exec.Append(rel, batch);
      if (!epoch.ok()) {
        std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
        std::exit(1);
      }
    });
  }

  Point p{};
  p.current = (*cq)->Current().tuples();
  p.arena_nodes = ctx->lineage().size();

  // Full recompute over the grown relations (what each batch would cost
  // without incremental maintenance), best of 3.
  double full = 0.0;
  for (int i = 0; i < 3; ++i) {
    double ms = TimeMs([&]() {
      Result<TpRelation> out = exec.Execute("r - s");
      if (!out.ok()) std::exit(1);
    });
    if (i == 0 || ms < full) full = ms;
  }
  p.n = n;
  p.delta_rows = delta_rows;
  p.register_ms = register_ms;
  p.inc_ms = inc_total / epochs;
  p.full_ms = full;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleFactor(argc, argv);
  const char* json_path = "BENCH_streaming.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  std::printf("# streaming: continuous `r - s` append epochs vs full "
              "recompute; 1M tuples/relation (scale=%.3g), per-fact chains, "
              "deltas alternate r/s\n", scale);
  PrintHeader("streaming");

  const std::size_t sizes[] = {Scaled(100000, scale), Scaled(1000000, scale)};
  const double fracs[] = {0.0001, 0.001, 0.01};

  std::string json = "{\n  \"experiment\": \"streaming\",\n";
  json += ProvenanceJson(/*threads=*/8);
  {
    char head[128];
    std::snprintf(head, sizeof(head), "  \"scale\": %.4g,\n  \"points\": [\n",
                  scale);
    json += head;
  }

  bool first = true;
  bool all_identical = true;
  for (std::size_t n : sizes) {
    for (double frac : fracs) {
      const Point p1 = Measure(n, frac, /*num_threads=*/1);
      const Point p8 = Measure(n, frac, /*num_threads=*/8);
      const double speedup = p1.inc_ms > 0 ? p1.full_ms / p1.inc_ms : 0.0;
      const bool identical =
          p1.current == p8.current && p1.arena_nodes == p8.arena_nodes;
      if (!identical) {
        std::fprintf(stderr,
                     "bench_streaming: n=%zu delta=%zu: t8 diverged from t1 "
                     "(%zu vs %zu tuples, %zu vs %zu arena nodes)\n",
                     n, p1.delta_rows, p8.current.size(), p1.current.size(),
                     p8.arena_nodes, p1.arena_nodes);
        all_identical = false;
      }

      const std::string label = "delta=" + std::to_string(p1.delta_rows);
      PrintRow("streaming", "except", "register/1 " + label, n, p1.register_ms);
      PrintRow("streaming", "except", "register/8 " + label, n, p8.register_ms);
      PrintRow("streaming", "except", "incremental/1 " + label, n, p1.inc_ms);
      PrintRow("streaming", "except", "incremental/8 " + label, n, p8.inc_ms);
      PrintRow("streaming", "except", "full-recompute " + label, n, p1.full_ms);

      char line[448];
      std::snprintf(line, sizeof(line),
                    "{\"n\": %zu, \"delta_rows\": %zu, \"delta_frac\": %.4g, "
                    "\"register_ms_t1\": %.3f, \"register_ms_t8\": %.3f, "
                    "\"incremental_ms_t1\": %.3f, \"incremental_ms_t8\": %.3f, "
                    "\"full_recompute_ms\": %.3f, \"speedup_t1\": %.2f, "
                    "\"identical\": %s}",
                    p1.n, p1.delta_rows, frac, p1.register_ms, p8.register_ms,
                    p1.inc_ms, p8.inc_ms, p1.full_ms, speedup,
                    identical ? "true" : "false");
      std::printf("# json %s\n", line);
      if (!first) json += ",\n";
      first = false;
      json += std::string("    ") + line;
    }
  }
  json += "\n  ]\n}\n";

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "bench_streaming: cannot write %s\n", json_path);
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_streaming: FAILED — a t8 continuous query diverged "
                 "from t1 (see above)\n");
    return 1;
  }
  return 0;
}
