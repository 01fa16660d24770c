// Skew property belt for the morsel scheduler: randomized zipf, one-hot-fact
// and all-one-fact workloads, asserting that morsel-scheduled execution is
// (a) valuation-equivalent to sequential LAWA — exactly tuple-equal in
// kBitIdentical mode, probability-equal lineage in kStaged mode — and
// (b) run-to-run deterministic: the same configuration over a fresh but
// identically seeded context reproduces the output bit for bit, across
// thread counts 1/2/4/8 and morsel budgets including the pathological
// budget 1. The skew shapes are exactly the inputs a fact-granularity
// partition plan cannot balance (a heavy fact is never cut at fact
// granularity), so these tests pin the correctness side of the scheduler's
// reason to exist; the performance side lives in bench_parallel.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "parallel/parallel_set_op.h"
#include "relation/relation.h"
#include "relation/validate.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// Per-fact tuple counts for a zipf(s) distribution over `facts` ranks,
// scaled to roughly `total` tuples (each fact gets at least 1).
std::vector<std::size_t> ZipfCounts(std::size_t facts, double s,
                                    std::size_t total) {
  std::vector<double> weight(facts);
  double norm = 0.0;
  for (std::size_t f = 0; f < facts; ++f) {
    weight[f] = 1.0 / std::pow(static_cast<double>(f + 1), s);
    norm += weight[f];
  }
  std::vector<std::size_t> counts(facts);
  for (std::size_t f = 0; f < facts; ++f) {
    counts[f] = std::max<std::size_t>(
        1, static_cast<std::size_t>(weight[f] / norm * static_cast<double>(total)));
  }
  return counts;
}

// Generates one relation with a prescribed tuple count per fact: per-fact
// chains of non-overlapping intervals, like GenerateSynthetic but with the
// fact weights under test control. Both relations of a pair share the
// cursor origin so their same-fact chains overlap.
TpRelation SkewedRelation(std::shared_ptr<TpContext> ctx,
                          const std::string& name,
                          const std::vector<std::size_t>& counts,
                          TimePoint max_len, TimePoint max_gap, Rng* rng) {
  TpRelation rel(ctx, Schema::SingleInt("fact"), name);
  for (std::size_t f = 0; f < counts.size(); ++f) {
    FactId fact = ctx->facts().Intern({Value(static_cast<std::int64_t>(f))});
    TimePoint cursor = 0;
    for (std::size_t i = 0; i < counts[f]; ++i) {
      TimePoint start = cursor + rng->Uniform(0, max_gap);
      TimePoint end = start + rng->Uniform(1, max_len);
      rel.AddBaseFast(fact, Interval(start, end),
                      0.1 + 0.8 * rng->NextDouble());
      cursor = end;
    }
  }
  rel.SortFactTime();
  return rel;
}

struct SkewShape {
  std::string name;
  std::vector<std::size_t> counts_r;
  std::vector<std::size_t> counts_s;
};

std::vector<SkewShape> Shapes(std::size_t scale) {
  std::vector<SkewShape> shapes;
  // zipf s=1.2 over 20 facts.
  shapes.push_back({"zipf", ZipfCounts(20, 1.2, scale),
                    ZipfCounts(20, 1.2, scale)});
  // one-hot: fact 0 carries ~90% of the weight.
  {
    std::vector<std::size_t> hot(8, std::max<std::size_t>(1, scale / 80));
    hot[0] = scale * 9 / 10;
    shapes.push_back({"one_hot", hot, hot});
  }
  // all-one-fact: a fact-granularity partition plan's degenerate case.
  shapes.push_back({"all_one_fact",
                    std::vector<std::size_t>{scale},
                    std::vector<std::size_t>{scale}});
  return shapes;
}

// One workload instance: fresh context + pair, deterministic per seed.
std::pair<TpRelation, TpRelation> FreshPair(const SkewShape& shape,
                                            std::uint64_t seed,
                                            std::shared_ptr<TpContext>* ctx_out) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(seed);
  TpRelation r = SkewedRelation(ctx, "r", shape.counts_r, 6, 3, &rng);
  TpRelation s = SkewedRelation(ctx, "s", shape.counts_s, 9, 2, &rng);
  *ctx_out = ctx;
  return {std::move(r), std::move(s)};
}

// Exact bit-level equality including lineage ids.
void ExpectBitEqual(const TpRelation& a, const TpRelation& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " tuple " << i;
  }
}

// Valuation equivalence across *different* (identically seeded) contexts:
// same (fact, interval) multiset with canonically equal lineage, each
// formula rendered by its own arena. Var ids coincide because the contexts
// were built by the same deterministic generation.
void ExpectValuationEqual(const TpRelation& expected, const TpRelation& actual,
                          const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  using Key = std::tuple<FactId, TimePoint, TimePoint, std::string>;
  std::vector<Key> ke, ka;
  ke.reserve(expected.size());
  ka.reserve(actual.size());
  const LineageManager& me = expected.context()->lineage();
  const LineageManager& ma = actual.context()->lineage();
  for (const TpTuple& t : expected.tuples()) {
    ke.emplace_back(t.fact, t.t.start, t.t.end, me.CanonicalKey(t.lineage));
  }
  for (const TpTuple& t : actual.tuples()) {
    ka.emplace_back(t.fact, t.t.start, t.t.end, ma.CanonicalKey(t.lineage));
  }
  std::sort(ke.begin(), ke.end());
  std::sort(ka.begin(), ka.end());
  EXPECT_TRUE(ke == ka) << what;
}

void RunShape(const SkewShape& shape, std::uint64_t seed) {
  SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  const std::size_t morsel_budgets[] = {1, 16, 0};  // 0 = auto

  for (SetOpKind op : kAllSetOps) {
    SCOPED_TRACE(SetOpName(op));
    // Sequential oracle on its own fresh context — every run below also
    // starts from a fresh identically seeded context, so in bit-identical
    // mode even the lineage ids must coincide.
    std::shared_ptr<TpContext> seq_ctx;
    auto [seq_r, seq_s] = FreshPair(shape, seed, &seq_ctx);
    ASSERT_TRUE(ValidateSetOpInputs(seq_r, seq_s).ok());
    TpRelation expected = LawaSetOp(op, seq_r, seq_s);
    for (std::size_t threads : thread_counts) {
      for (std::size_t budget : morsel_budgets) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " morsel_budget=" + std::to_string(budget));
        for (ApplyMode mode : {ApplyMode::kBitIdentical, ApplyMode::kStaged}) {
          SCOPED_TRACE(mode == ApplyMode::kStaged ? "staged" : "bit-identical");
          ParallelSetOpAlgorithm algo(threads, SortMode::kComparison, 2, mode,
                                      budget);
          // Two runs over fresh, identically seeded contexts: run-to-run
          // determinism must hold bit for bit (tuples AND lineage ids).
          std::shared_ptr<TpContext> ctx1, ctx2;
          auto [r1, s1] = FreshPair(shape, seed, &ctx1);
          auto [r2, s2] = FreshPair(shape, seed, &ctx2);
          TpRelation out1 = algo.Compute(op, r1, s1);
          TpRelation out2 = algo.Compute(op, r2, s2);
          ExpectBitEqual(out1, out2, "rerun determinism");

          // Valuation equivalence against the sequential oracle; exact
          // equality in bit-identical mode (contexts evolve identically).
          if (mode == ApplyMode::kBitIdentical) {
            ExpectBitEqual(out1, expected, "bit-identity vs sequential");
          } else {
            ExpectValuationEqual(expected, out1, "staged vs sequential");
          }
        }
      }
    }
  }
}

TEST(SkewPropertyTest, Zipf) {
  for (std::uint64_t seed : testing::PropertySeeds({61, 62})) {
    RunShape(Shapes(600)[0], seed);
  }
}

TEST(SkewPropertyTest, OneHotFact) {
  for (std::uint64_t seed : testing::PropertySeeds({71, 72})) {
    RunShape(Shapes(600)[1], seed);
  }
}

TEST(SkewPropertyTest, AllOneFact) {
  for (std::uint64_t seed : testing::PropertySeeds({81, 82})) {
    RunShape(Shapes(600)[2], seed);
  }
}

// The heavy-fact splitter must engage on these shapes at small budgets:
// otherwise the belt is testing the old one-partition-per-fact path.
TEST(SkewPropertyTest, SplitterEngagesOnHotFact) {
  std::shared_ptr<TpContext> ctx;
  auto [r, s] = FreshPair(Shapes(800)[1], 7, &ctx);
  ParallelSetOpAlgorithm algo(4, SortMode::kComparison, 2, ApplyMode::kStaged,
                              /*morsel_budget=*/32);
  LawaStats stats;
  TpRelation out = algo.ComputeTimed(SetOpKind::kIntersect, r, s, nullptr,
                                     &stats);
  (void)out;
  EXPECT_GE(stats.facts_split, 1u);
  EXPECT_GT(stats.morsels_run, 4u);
}

}  // namespace
}  // namespace tpset
