// The staging arena the incremental engine's parallel delta apply interns
// into (lineage/staging.h): local consing, Table I's null rules and folds,
// and a splice that valuates like directly built formulas.
#include <gtest/gtest.h>

#include <vector>

#include "lineage/lineage.h"
#include "lineage/staging.h"

namespace tpset {
namespace {

TEST(StagedApplyTest, StagingArenaLocalConsingAndFolds) {
  // Unit-level checks of the staging arena against the manager's algebra.
  LineageManager mgr(/*hash_consing=*/true);
  VarTable vars;
  LineageId x = mgr.MakeVar(vars.Add(0.5));
  LineageId y = mgr.MakeVar(vars.Add(0.5));
  const LineageId frozen = static_cast<LineageId>(mgr.size());

  StagingArena arena(frozen, /*hash_consing=*/true);
  LineageId a1 = arena.ConcatAnd(x, y);
  LineageId a2 = arena.ConcatAnd(x, y);
  EXPECT_EQ(a1, a2);  // local consing dedups
  EXPECT_GE(a1, frozen);
  EXPECT_EQ(arena.size(), 1u);

  // Null-aware Table I behavior.
  EXPECT_EQ(arena.ConcatOr(kNullLineage, x), x);
  EXPECT_EQ(arena.ConcatOr(x, kNullLineage), x);
  EXPECT_EQ(arena.ConcatAndNot(x, kNullLineage), x);
  // and(x, x) folds without a cell; andNot(x, y) stages ¬y then x∧¬y; the
  // double negation over the *staged* ¬y folds back to y.
  EXPECT_EQ(arena.ConcatAnd(x, x), x);
  LineageId an = arena.ConcatAndNot(x, y);
  EXPECT_GE(an, frozen);
  std::vector<LineageId> remap;
  mgr.SpliceStaged(arena, &remap);
  ASSERT_EQ(remap.size(), arena.size());

  // Spliced formulas valuate like directly-built ones. The splice bulk-
  // appends (no global consing), so the ids are fresh even though the
  // structures match.
  LineageId direct = mgr.ConcatAnd(x, y);
  EXPECT_EQ(mgr.CanonicalKey(remap[a1 - frozen]), mgr.CanonicalKey(direct));
  LineageId direct_an = mgr.ConcatAndNot(x, y);
  EXPECT_EQ(mgr.CanonicalKey(remap[an - frozen]), mgr.CanonicalKey(direct_an));
  EXPECT_NE(remap[a1 - frozen], direct);
}

}  // namespace
}  // namespace tpset
