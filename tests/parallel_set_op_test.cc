// Property tests for the partitioned parallel engine: ParallelSetOpAlgorithm
// must equal sequential LawaSetOp tuple for tuple (fact, interval AND
// lineage id — bit-identical), across skewed facts, single-fact inputs,
// more partitions than facts, and empty relations; the executor's
// concurrent path must equal its sequential path on whole query trees.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "parallel/parallel_set_op.h"
#include "query/executor.h"
#include "relation/validate.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;
using testing::SupermarketDb;

// Exact (bit-level) equality: same size and identical TpTuple triples,
// including the lineage ids.
void ExpectBitIdentical(const TpRelation& expected, const TpRelation& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "tuple " << i;
  }
  EXPECT_EQ(expected.name(), actual.name());
}

// Runs sequential first, parallel second, in ONE context. Hash-consing makes
// the parallel run's identical construction sequence dedup onto the very
// same lineage ids, so bit-identity is directly checkable.
void ExpectParallelMatchesSequential(const TpRelation& r, const TpRelation& s,
                                     std::size_t num_threads) {
  ParallelSetOpAlgorithm par(num_threads);
  for (SetOpKind op : kAllSetOps) {
    TpRelation expected = LawaSetOp(op, r, s);
    TpRelation actual = par.Compute(op, r, s);
    ExpectBitIdentical(expected, actual);
    EXPECT_TRUE(ValidateDuplicateFree(actual).ok());
    EXPECT_TRUE(actual.IsSortedFactTime());
  }
}

TEST(ParallelSetOpTest, PaperExampleAllOps) {
  SupermarketDb db;
  ExpectParallelMatchesSequential(db.a, db.c, 4);
}

TEST(ParallelSetOpTest, EmptyRelations) {
  SupermarketDb db;
  TpRelation empty(db.ctx, db.a.schema(), "empty");
  ExpectParallelMatchesSequential(db.a, empty, 4);
  ExpectParallelMatchesSequential(empty, db.a, 4);
  ExpectParallelMatchesSequential(empty, empty, 4);
}

TEST(ParallelSetOpTest, SingleFactInputs) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation r = MakeRelation(ctx, "r",
                              {{"milk", "r1", 0, 5, 0.5},
                               {"milk", "r2", 7, 9, 0.4},
                               {"milk", "r3", 12, 20, 0.9}});
  TpRelation s = MakeRelation(ctx, "s",
                              {{"milk", "s1", 3, 8, 0.6},
                               {"milk", "s2", 10, 14, 0.7}});
  // More threads (and partitions) than facts: everything collapses to one
  // partition and must still be exact.
  ExpectParallelMatchesSequential(r, s, 8);
}

TEST(ParallelSetOpTest, SkewedFactDistribution) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation r(ctx, Schema::SingleString("Product"), "r");
  TpRelation s(ctx, Schema::SingleString("Product"), "s");
  // Fact "hot" holds ~90% of r; a tail of cold facts pads both sides.
  FactId hot = ctx->facts().Intern({Value(std::string("hot"))});
  for (int i = 0; i < 180; ++i) {
    r.AddBaseFast(hot, Interval(3 * i, 3 * i + 2), 0.5);
  }
  for (int i = 0; i < 10; ++i) {
    FactId cold = ctx->facts().Intern({Value("cold" + std::to_string(i))});
    r.AddBaseFast(cold, Interval(i, i + 4), 0.3);
    s.AddBaseFast(cold, Interval(i + 2, i + 8), 0.6);
    s.AddBaseFast(hot, Interval(30 * i + 1, 30 * i + 7), 0.8);
  }
  r.SortFactTime();
  s.SortFactTime();
  ASSERT_TRUE(ValidateSetOpInputs(r, s).ok());
  ExpectParallelMatchesSequential(r, s, 4);
}

TEST(ParallelSetOpTest, RandomizedSyntheticSweep) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    auto ctx = std::make_shared<TpContext>();
    Rng rng(seed);
    SyntheticPairSpec spec = TableIIIPreset(0.4 + 0.1 * (seed % 3));
    spec.num_tuples = 200 + rng.Below(400);
    spec.num_facts = 1 + rng.Below(30);
    auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
    ExpectParallelMatchesSequential(r, s, 1 + seed % 5);
  }
}

TEST(ParallelSetOpTest, CountingSortModeAgrees) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(77);
  SyntheticPairSpec spec;
  spec.num_tuples = 300;
  spec.num_facts = 10;
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
  ParallelSetOpAlgorithm par(3, SortMode::kCounting);
  for (SetOpKind op : kAllSetOps) {
    TpRelation expected = LawaSetOp(op, r, s, SortMode::kCounting);
    ExpectBitIdentical(expected, par.Compute(op, r, s));
  }
}

TEST(ParallelSetOpTest, CrossContextBitIdenticalWithoutSharedArena) {
  // Same deterministic inputs in two fresh contexts: sequential in one,
  // parallel in the other. Equal tuple triples prove the parallel run
  // interned lineages in exactly the sequential order — not merely deduped
  // onto existing sequential nodes — with hash-consing on and off. The
  // small pair's block runs on one intern task, the large one's on several.
  for (bool consing : {true, false}) {
    for (std::size_t tuples : {250, 6000}) {
      SCOPED_TRACE(::testing::Message()
                   << "consing=" << consing << " tuples=" << tuples);
      auto make_pair = [tuples](std::shared_ptr<TpContext> ctx) {
        Rng rng(321);
        SyntheticPairSpec spec;
        spec.num_tuples = tuples;
        spec.num_facts = 12;
        return GenerateSyntheticPair(std::move(ctx), spec, &rng);
      };
      auto ctx_seq = std::make_shared<TpContext>(consing);
      auto ctx_par = std::make_shared<TpContext>(consing);
      auto [r1, s1] = make_pair(ctx_seq);
      auto [r2, s2] = make_pair(ctx_par);
      ParallelSetOpAlgorithm par(4);
      for (SetOpKind op : kAllSetOps) {
        TpRelation expected = LawaSetOp(op, r1, s1);
        TpRelation actual = par.Compute(op, r2, s2);
        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(expected[i], actual[i]) << "tuple " << i;
        }
        EXPECT_EQ(ctx_seq->lineage().size(), ctx_par->lineage().size());
        EXPECT_EQ(ctx_seq->lineage().index_bytes(),
                  ctx_par->lineage().index_bytes());
      }
    }
  }
}

TEST(ParallelSetOpTest, SingleThreadDegradesToSequential) {
  SupermarketDb db;
  ParallelSetOpAlgorithm par(1);
  for (SetOpKind op : kAllSetOps) {
    ExpectBitIdentical(LawaSetOp(op, db.a, db.c), par.Compute(op, db.a, db.c));
  }
}

TEST(ParallelSetOpTest, StatsMatchSequential) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(5);
  SyntheticPairSpec spec;
  spec.num_tuples = 150;
  spec.num_facts = 6;
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
  for (SetOpKind op : kAllSetOps) {
    LawaStats seq_stats, par_stats;
    LawaSetOp(op, r, s, SortMode::kComparison, &seq_stats);
    ParallelSetOpAlgorithm par(4);
    par.ComputeSequenced(op, r, s, nullptr, 0, &par_stats);
    // Candidate windows and output tuples match exactly: a morsel counts
    // the dead (always-filtered) windows the sequential sweep produces.
    EXPECT_EQ(par_stats.windows_produced, seq_stats.windows_produced);
    EXPECT_GT(par_stats.windows_produced, 0u);
    EXPECT_EQ(seq_stats.output_tuples, par_stats.output_tuples);
  }
}

// ---- Executor integration ----

class ParallelExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(exec_.Register(db_.a).ok());
    ASSERT_TRUE(exec_.Register(db_.b).ok());
    ASSERT_TRUE(exec_.Register(db_.c).ok());
  }

  SupermarketDb db_;
  QueryExecutor exec_{db_.ctx};
};

TEST_F(ParallelExecutorTest, WholeTreeMatchesSequentialExecution) {
  const char* queries[] = {
      "a",
      "a | b",
      "c - (a | b)",
      "(a | b) & (c | a)",
      "((a | b) - (b & c)) | (c - a)",
      "(a - b) | (b - c) | (c - a)",
  };
  for (const char* q : queries) {
    Result<TpRelation> sequential = exec_.Execute(q);
    ASSERT_TRUE(sequential.ok()) << q;
    for (std::size_t threads : {2u, 4u, 8u}) {
      Result<TpRelation> concurrent = exec_.Execute(q, ExecOptions{threads});
      ASSERT_TRUE(concurrent.ok()) << q;
      ExpectBitIdentical(*sequential, *concurrent);
    }
  }
}

TEST_F(ParallelExecutorTest, OptionsWithOneThreadIsTheSequentialPath) {
  Result<TpRelation> a = exec_.Execute("c - (a | b)");
  Result<TpRelation> b = exec_.Execute("c - (a | b)", ExecOptions{1});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitIdentical(*a, *b);
}

TEST_F(ParallelExecutorTest, UnknownRelationErrorPropagates) {
  Result<TpRelation> result = exec_.Execute("a | nope", ExecOptions{4});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ParallelExecutorTest, UnsupportedAlgorithmIsRejectedUpFront) {
  // TI supports only intersection (Table II).
  const SetOpAlgorithm* ti = FindAlgorithm("TI");
  ASSERT_NE(ti, nullptr);
  Result<TpRelation> result = exec_.Execute("a | b", ExecOptions{4}, ti);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST_F(ParallelExecutorTest, ForeignAlgorithmRunsSerializedButCorrect) {
  const SetOpAlgorithm* norm = FindAlgorithm("NORM");
  ASSERT_NE(norm, nullptr);
  Result<TpRelation> sequential = exec_.Execute("c - (a | b)", norm);
  Result<TpRelation> concurrent = exec_.Execute("c - (a | b)", ExecOptions{4}, norm);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(concurrent.ok());
  EXPECT_TRUE(RelationsEquivalent(*sequential, *concurrent));
}

TEST(ParallelRegisterTest, RegisterRejectsUnsortedRelations) {
  auto ctx = std::make_shared<TpContext>();
  // Same fact out of (fact, start) order — duplicate-free but unsorted.
  TpRelation rel = MakeRelation(ctx, "unsorted",
                                {{"milk", "m1", 10, 12, 0.5},
                                 {"milk", "m2", 0, 2, 0.5}});
  QueryExecutor exec(ctx);
  Status st = exec.Register(rel);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  rel.SortFactTime();
  EXPECT_TRUE(exec.Register(rel).ok());
}

}  // namespace
}  // namespace tpset
