// Regression tests for the zero-sort fast path: TpRelation's sortedness
// witness (known_sorted) must be maintained incrementally, armed by
// Register/IsSortedFactTime/SortFactTime, cleared by mutable_tuples — and
// both the sequential and the partitioned set operations must skip the
// per-operation copy + sort exactly when the witness is present
// (LawaStats::sort_skipped), with bit-identical results either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "parallel/parallel_set_op.h"
#include "query/executor.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;
using testing::SupermarketDb;

// Copy of `rel` with the sortedness witness dropped (tuples untouched).
TpRelation WithoutWitness(const TpRelation& rel) {
  TpRelation copy = rel;
  copy.mutable_tuples();  // conservatively clears the flag
  return copy;
}

void ExpectBitIdentical(const TpRelation& expected, const TpRelation& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "tuple " << i;
  }
}

TEST(SortedWitnessTest, MaintainedIncrementallyOnAppend) {
  auto ctx = std::make_shared<TpContext>();
  // Specs already in (fact, start) order: the witness survives every append.
  TpRelation sorted = MakeRelation(ctx, "sorted",
                                   {{"chips", "c1", 1, 3, 0.5},
                                    {"chips", "c2", 5, 8, 0.5},
                                    {"milk", "m1", 0, 2, 0.5}});
  EXPECT_TRUE(sorted.known_sorted());
  EXPECT_TRUE(sorted.IsSortedFactTime());

  // Same fact out of start order: one bad append clears the witness.
  TpRelation unsorted = MakeRelation(ctx, "unsorted",
                                     {{"soap", "s1", 10, 12, 0.5},
                                      {"soap", "s2", 0, 2, 0.5}});
  EXPECT_FALSE(unsorted.known_sorted());
  EXPECT_FALSE(unsorted.IsSortedFactTime());
  unsorted.SortFactTime();
  EXPECT_TRUE(unsorted.known_sorted());
}

TEST(SortedWitnessTest, MutableTuplesClearsTheWitness) {
  SupermarketDb db;
  ASSERT_TRUE(db.a.known_sorted());
  db.a.mutable_tuples();  // caller could have reordered — witness gone
  EXPECT_FALSE(db.a.known_sorted());
  // The O(n) check still answers truthfully but does NOT re-arm the
  // witness (it is const and must stay race-free under concurrent reads);
  // owners re-arm explicitly, as Register does.
  EXPECT_TRUE(db.a.IsSortedFactTime());
  EXPECT_FALSE(db.a.known_sorted());
  db.a.MarkSortedUnchecked();
  EXPECT_TRUE(db.a.known_sorted());

  // After a real reorder the check fails and the witness stays down.
  std::vector<TpTuple>& tuples = db.c.mutable_tuples();
  std::swap(tuples.front(), tuples.back());
  EXPECT_FALSE(db.c.IsSortedFactTime());
  EXPECT_FALSE(db.c.known_sorted());
}

TEST(SortedWitnessTest, EmptyRelationIsVacuouslySorted) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation empty(ctx, Schema::SingleString("Product"), "empty");
  EXPECT_TRUE(empty.known_sorted());
}

TEST(ZeroSortFastPathTest, SequentialSkipsSortedInputsBitIdentically) {
  SupermarketDb db;
  ASSERT_TRUE(db.a.known_sorted());
  ASSERT_TRUE(db.c.known_sorted());
  for (SetOpKind op : kAllSetOps) {
    LawaStats fast_stats, slow_stats;
    TpRelation fast = LawaSetOp(op, db.a, db.c, SortMode::kComparison,
                                &fast_stats);
    TpRelation slow = LawaSetOp(op, WithoutWitness(db.a), WithoutWitness(db.c),
                                SortMode::kComparison, &slow_stats);
    EXPECT_EQ(fast_stats.sort_skipped, 2u);
    EXPECT_EQ(slow_stats.sort_skipped, 0u);
    ExpectBitIdentical(slow, fast);
    EXPECT_EQ(fast_stats.windows_produced, slow_stats.windows_produced);
  }
}

TEST(ZeroSortFastPathTest, UnsortedInputsStillSortedOnDemand) {
  // A shuffled input without the witness must be sorted by the operation and
  // produce the same result as the sorted original.
  auto ctx = std::make_shared<TpContext>();
  Rng rng(7);
  SyntheticPairSpec spec;
  spec.num_tuples = 200;
  spec.num_facts = 8;
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
  TpRelation shuffled = r;
  {
    std::vector<TpTuple>& tuples = shuffled.mutable_tuples();
    std::mt19937 gen(42);
    std::shuffle(tuples.begin(), tuples.end(), gen);
  }
  ASSERT_FALSE(shuffled.known_sorted());
  for (SetOpKind op : kAllSetOps) {
    LawaStats stats;
    TpRelation expected = LawaSetOp(op, r, s);
    TpRelation actual = LawaSetOp(op, shuffled, s, SortMode::kComparison,
                                  &stats);
    EXPECT_EQ(stats.sort_skipped, 1u);  // s still carries the witness
    ExpectBitIdentical(expected, actual);
  }
}

TEST(ZeroSortFastPathTest, ParallelSkipsSortedInputsBitIdentically) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(11);
  SyntheticPairSpec spec;
  spec.num_tuples = 300;
  spec.num_facts = 10;
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
  ASSERT_TRUE(r.known_sorted());
  ASSERT_TRUE(s.known_sorted());
  ParallelSetOpAlgorithm par(4);
  for (SetOpKind op : kAllSetOps) {
    LawaStats fast_stats, slow_stats;
    TpRelation expected = LawaSetOp(op, r, s);
    TpRelation fast = par.ComputeSequenced(op, r, s, nullptr, 0, &fast_stats);
    TpRelation slow = par.ComputeSequenced(op, WithoutWitness(r),
                                           WithoutWitness(s), nullptr, 0,
                                           &slow_stats);
    EXPECT_EQ(fast_stats.sort_skipped, 2u);
    EXPECT_EQ(slow_stats.sort_skipped, 0u);
    ExpectBitIdentical(expected, fast);
    ExpectBitIdentical(expected, slow);
  }
}

TEST(ZeroSortFastPathTest, SetOpOutputsCarryTheWitness) {
  // Outputs are emitted in (fact, start) order, so a chained operation takes
  // the zero-sort path on both inputs — the whole tree runs sort-free.
  SupermarketDb db;
  TpRelation u = LawaUnion(db.a, db.b);
  EXPECT_TRUE(u.known_sorted());
  ParallelSetOpAlgorithm par(4);
  TpRelation pu = par.Compute(SetOpKind::kUnion, db.a, db.b);
  EXPECT_TRUE(pu.known_sorted());

  LawaStats stats;
  TpRelation chained = LawaSetOp(SetOpKind::kExcept, db.c, u,
                                 SortMode::kComparison, &stats);
  EXPECT_EQ(stats.sort_skipped, 2u);
}

TEST(ZeroSortFastPathTest, RegisterArmsTheWitnessForCatalogRelations) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel = MakeRelation(ctx, "r",
                                {{"milk", "m1", 0, 2, 0.5},
                                 {"milk", "m2", 4, 6, 0.5}});
  rel.mutable_tuples();  // drop the witness; tuples are still in order
  ASSERT_FALSE(rel.known_sorted());
  QueryExecutor exec(ctx);
  ASSERT_TRUE(exec.Register(rel).ok());
  // ValidateSortedFactTime ran the O(n) check and memoized it; the catalog
  // copy carries the witness, so every query leaf skips its sort.
  Result<const TpRelation*> found = exec.Find("r");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE((*found)->known_sorted());
}

}  // namespace
}  // namespace tpset
