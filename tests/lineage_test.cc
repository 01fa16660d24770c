// Lineage algebra: hash-consing, Table I concatenation functions, printing,
// canonical keys, variable analysis, the variable-leaf table, and the
// consing index behind LineageManager.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lineage/cons_index.h"
#include "lineage/lineage.h"

namespace tpset {
namespace {

class LineageTest : public ::testing::Test {
 protected:
  LineageManager mgr_;
  VarTable vars_;
  VarId a1_ = *vars_.AddNamed("a1", 0.3);
  VarId b1_ = *vars_.AddNamed("b1", 0.6);
  VarId c1_ = *vars_.AddNamed("c1", 0.6);
};

TEST_F(LineageTest, VarTableBasics) {
  EXPECT_EQ(vars_.size(), 3u);
  EXPECT_DOUBLE_EQ(vars_.probability(a1_), 0.3);
  EXPECT_EQ(vars_.name(a1_), "a1");
  EXPECT_EQ(*vars_.Find("b1"), b1_);
  EXPECT_FALSE(vars_.Find("nope").ok());
  EXPECT_FALSE(vars_.AddNamed("a1", 0.5).ok()) << "duplicate names rejected";
  EXPECT_FALSE(vars_.AddNamed("bad", 0.0).ok()) << "p must be in (0,1]";
  EXPECT_FALSE(vars_.AddNamed("bad2", 1.5).ok());
}

TEST_F(LineageTest, AnonymousVarsGetSynthesizedNames) {
  VarId v = vars_.Add(0.5);
  EXPECT_EQ(vars_.name(v), "x" + std::to_string(v));
}

TEST_F(LineageTest, HashConsingDeduplicates) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  EXPECT_EQ(va, mgr_.MakeVar(a1_));
  EXPECT_EQ(mgr_.MakeAnd(va, vb), mgr_.MakeAnd(va, vb));
  EXPECT_EQ(mgr_.MakeOr(va, vb), mgr_.MakeOr(va, vb));
  EXPECT_EQ(mgr_.MakeNot(va), mgr_.MakeNot(va));
  // And(a,b) and And(b,a) are syntactically different formulas.
  EXPECT_NE(mgr_.MakeAnd(va, vb), mgr_.MakeAnd(vb, va));
  EXPECT_EQ(mgr_.MakeAnd(mgr_.True(), va), va);  // folded: no lookup
  // 11 lookups, 5 of them hits; each count is handed out once.
  const LineageManager::InternCounts counts = mgr_.TakeInternCounts();
  EXPECT_EQ(counts.lookups, 11u);
  EXPECT_EQ(counts.hits, 5u);
  EXPECT_EQ(mgr_.TakeInternCounts().lookups, 0u);
}

TEST_F(LineageTest, NoConsingStillBuildsCorrectNodes) {
  LineageManager mgr(false);
  const std::size_t bytes = mgr.index_bytes();
  LineageId va = mgr.MakeVar(a1_);
  LineageId vb = mgr.MakeVar(a1_);
  EXPECT_NE(va, vb) << "without consing, each construction appends";
  EXPECT_EQ(mgr.kind(va), LineageKind::kVar);
  EXPECT_EQ(mgr.node(va).var, a1_);
  LineageId first = mgr.MakeAnd(va, vb);
  EXPECT_EQ(mgr.MakeAnd(va, vb), first + 1);
  EXPECT_NE(mgr.MakeNot(va), mgr.MakeNot(va));
  EXPECT_EQ(mgr.size(), 8u);
  EXPECT_EQ(mgr.index_bytes(), bytes) << "nothing was indexed";
  EXPECT_EQ(mgr.TakeInternCounts().lookups, 0u);
}

TEST_F(LineageTest, ConstantFolding) {
  LineageId va = mgr_.MakeVar(a1_);
  EXPECT_EQ(mgr_.MakeAnd(mgr_.True(), va), va);
  EXPECT_EQ(mgr_.MakeAnd(va, mgr_.True()), va);
  EXPECT_EQ(mgr_.MakeAnd(mgr_.False(), va), mgr_.False());
  EXPECT_EQ(mgr_.MakeOr(mgr_.False(), va), va);
  EXPECT_EQ(mgr_.MakeOr(mgr_.True(), va), mgr_.True());
  EXPECT_EQ(mgr_.MakeNot(mgr_.True()), mgr_.False());
  EXPECT_EQ(mgr_.MakeNot(mgr_.False()), mgr_.True());
  EXPECT_EQ(mgr_.MakeNot(mgr_.MakeNot(va)), va) << "double negation folds";
  EXPECT_EQ(mgr_.MakeAnd(va, va), va) << "idempotence folds";
  EXPECT_EQ(mgr_.MakeOr(va, va), va);
}

TEST_F(LineageTest, TableIAnd) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vc = mgr_.MakeVar(c1_);
  LineageId r = mgr_.ConcatAnd(va, vc);
  EXPECT_EQ(mgr_.ToString(r, vars_), "a1∧c1");
}

TEST_F(LineageTest, TableIAndNot) {
  LineageId vc = mgr_.MakeVar(c1_);
  LineageId va = mgr_.MakeVar(a1_);
  // andNot(λ1, null) = λ1
  EXPECT_EQ(mgr_.ConcatAndNot(vc, kNullLineage), vc);
  // andNot(λ1, λ2) = λ1 ∧ ¬λ2
  LineageId r = mgr_.ConcatAndNot(vc, va);
  EXPECT_EQ(mgr_.ToString(r, vars_), "c1∧¬a1");
}

TEST_F(LineageTest, TableIOr) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  EXPECT_EQ(mgr_.ConcatOr(va, kNullLineage), va);
  EXPECT_EQ(mgr_.ConcatOr(kNullLineage, vb), vb);
  EXPECT_EQ(mgr_.ToString(mgr_.ConcatOr(va, vb), vars_), "a1∨b1");
}

TEST_F(LineageTest, PrintingPrecedence) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  LineageId vc = mgr_.MakeVar(c1_);
  // c1 ∧ ¬(a1 ∨ b1): the paper's Fig. 1c lineage.
  LineageId f = mgr_.MakeAnd(vc, mgr_.MakeNot(mgr_.MakeOr(va, vb)));
  EXPECT_EQ(mgr_.ToString(f, vars_), "c1∧¬(a1∨b1)");
  EXPECT_EQ(mgr_.ToString(f, vars_, /*ascii=*/true), "c1&!(a1|b1)");
  // (a1 ∨ b1) ∧ c1 needs parentheses on the left.
  LineageId g = mgr_.MakeAnd(mgr_.MakeOr(va, vb), vc);
  EXPECT_EQ(mgr_.ToString(g, vars_), "(a1∨b1)∧c1");
  // a1 ∨ (b1 ∧ c1) does not need parentheses.
  LineageId h = mgr_.MakeOr(va, mgr_.MakeAnd(vb, vc));
  EXPECT_EQ(mgr_.ToString(h, vars_), "a1∨b1∧c1");
  EXPECT_EQ(mgr_.ToString(kNullLineage, vars_), "null");
}

TEST_F(LineageTest, CollectVarsDeduplicates) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  LineageId f = mgr_.MakeAnd(mgr_.MakeOr(va, vb), mgr_.MakeNot(va));
  std::vector<VarId> vars;
  mgr_.CollectVars(f, &vars);
  EXPECT_EQ(vars, (std::vector<VarId>{a1_, b1_}));
  vars.clear();
  mgr_.CollectVars(kNullLineage, &vars);
  EXPECT_TRUE(vars.empty());
}

TEST_F(LineageTest, ReadOnceDetection) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  LineageId vc = mgr_.MakeVar(c1_);
  EXPECT_TRUE(mgr_.IsReadOnce(va));
  EXPECT_TRUE(mgr_.IsReadOnce(mgr_.MakeAnd(va, mgr_.MakeNot(vb))));
  EXPECT_TRUE(mgr_.IsReadOnce(mgr_.MakeAnd(vc, mgr_.MakeNot(mgr_.MakeOr(va, vb)))));
  // a1 occurs twice: not 1OF.
  EXPECT_FALSE(mgr_.IsReadOnce(mgr_.MakeAnd(mgr_.MakeOr(va, vb), mgr_.MakeNot(va))));
  EXPECT_TRUE(mgr_.IsReadOnce(kNullLineage));
  EXPECT_EQ(mgr_.CountVarOccurrences(
                mgr_.MakeAnd(mgr_.MakeOr(va, vb), mgr_.MakeNot(va))),
            3u);
}

TEST_F(LineageTest, CanonicalKeyIsOrderInsensitive) {
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  LineageId vc = mgr_.MakeVar(c1_);
  EXPECT_EQ(mgr_.CanonicalKey(mgr_.MakeAnd(va, vb)),
            mgr_.CanonicalKey(mgr_.MakeAnd(vb, va)));
  EXPECT_EQ(mgr_.CanonicalKey(mgr_.MakeOr(mgr_.MakeOr(va, vb), vc)),
            mgr_.CanonicalKey(mgr_.MakeOr(vc, mgr_.MakeOr(vb, va))))
      << "associativity flattened";
  EXPECT_NE(mgr_.CanonicalKey(mgr_.MakeAnd(va, vb)),
            mgr_.CanonicalKey(mgr_.MakeOr(va, vb)));
  EXPECT_NE(mgr_.CanonicalKey(va), mgr_.CanonicalKey(mgr_.MakeNot(va)));
  EXPECT_EQ(mgr_.CanonicalKey(kNullLineage), "null");
}

TEST_F(LineageTest, ArenaGrowth) {
  std::size_t before = mgr_.size();
  LineageId va = mgr_.MakeVar(a1_);
  LineageId vb = mgr_.MakeVar(b1_);
  mgr_.MakeAnd(va, vb);
  mgr_.MakeAnd(va, vb);  // deduplicated
  EXPECT_EQ(mgr_.size(), before + 3);
}

// One ∧/∨/¬ construction and the id it returned.
struct Built {
  LineageKind kind;
  LineageId a;
  LineageId b;
  LineageId id;
};

LineageId Construct(LineageManager* mgr, LineageKind kind, LineageId a,
                    LineageId b) {
  switch (kind) {
    case LineageKind::kAnd:
      return mgr->MakeAnd(a, b);
    case LineageKind::kOr:
      return mgr->MakeOr(a, b);
    default:
      return mgr->MakeNot(a);
  }
}

// Builds at least `distinct` new ∧/∨/¬ nodes over `pool` (which grows with
// every new node), recording every construction.
std::vector<Built> BuildDistinct(LineageManager* mgr,
                                 std::vector<LineageId>* pool,
                                 std::size_t distinct) {
  constexpr std::array<LineageKind, 3> kKinds = {
      LineageKind::kAnd, LineageKind::kOr, LineageKind::kNot};
  std::vector<Built> built;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>(state >> 33);
  };
  const std::size_t target = mgr->size() + distinct;
  while (mgr->size() < target) {
    const LineageKind kind = kKinds[next() % kKinds.size()];
    const LineageId a = (*pool)[next() % pool->size()];
    const LineageId b = (*pool)[next() % pool->size()];
    const std::size_t before = mgr->size();
    const LineageId id = Construct(mgr, kind, a, b);
    if (mgr->size() > before) pool->push_back(id);
    built.push_back({kind, a, b, id});
  }
  return built;
}

TEST_F(LineageTest, IndexKeepsIdsAcrossManyDoublings) {
  std::vector<LineageId> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(mgr_.MakeVar(vars_.Add(0.5)));
  const std::vector<Built> built = BuildDistinct(&mgr_, &pool, 200000);
  const std::size_t size = mgr_.size();
  // 200k indexed nodes at most three quarters full take more than 2^18
  // 8-byte slots: each shard's 16-slot table doubled about 8 times.
  EXPECT_GT(mgr_.index_bytes(), std::size_t{8} << 18);
  for (const Built& c : built) {
    ASSERT_EQ(Construct(&mgr_, c.kind, c.a, c.b), c.id);
  }
  EXPECT_EQ(mgr_.size(), size) << "re-interning added nodes";
  for (LineageId v = 2; v < 2 + 64; ++v) {
    EXPECT_EQ(mgr_.MakeVar(mgr_.node(v).var), v);
  }
  EXPECT_EQ(mgr_.size(), size);
}

// Keys that collide on the whole 32-bit tag are still told apart: the tag
// only filters, the owner's full compare decides.
TEST(ConsIndexTest, FullCompareSeparatesEqualTags) {
  struct Key {
    LineageKind kind;
    VarId var;
  };
  std::vector<Key> keys(2);  // ids 0/1 are reserved, as in the arena
  ConsIndex index;
  auto find_or_add = [&](const Key& k) {
    const LineageId fresh = static_cast<LineageId>(keys.size());
    const LineageId id = index.FindOrAdd(7, fresh, [&](LineageId cand) {
      return keys[cand].kind == k.kind && keys[cand].var == k.var;
    });
    if (id == fresh) keys.push_back(k);
    return id;
  };
  std::vector<LineageId> ids;
  for (VarId v = 0; v < 300; ++v) {
    for (LineageKind kind : {LineageKind::kVar, LineageKind::kNot}) {
      ids.push_back(find_or_add({kind, v}));
      EXPECT_EQ(ids.back(), ids.size() + 1);
    }
  }
  std::size_t i = 0;
  for (VarId v = 0; v < 300; ++v) {
    for (LineageKind kind : {LineageKind::kVar, LineageKind::kNot}) {
      ASSERT_EQ(find_or_add({kind, v}), ids[i++]);
    }
  }
  EXPECT_EQ(keys.size(), 602u);
}

// Derived nodes whose keys differ only in their operand and whose real
// hashes collide: with 2^18 negated leaves, some 32-bit tags repeat.
TEST_F(LineageTest, NodesWithCollidingTagsGetDistinctIds) {
  std::unordered_map<std::uint32_t, LineageId> seen;
  LineageId first = kNullLineage, second = kNullLineage;
  for (VarId v = 0; v < (1u << 18); ++v) {
    const LineageId leaf = mgr_.MakeVar(v);
    if (first != kNullLineage) continue;
    auto [it, inserted] = seen.emplace(
        ConsIndex::Hash(LineageKind::kNot, leaf, kNullLineage), leaf);
    if (!inserted) {
      first = it->second;
      second = leaf;
    }
  }
  ASSERT_NE(first, kNullLineage) << "no tag collision among 2^18 negations";
  LineageId a = mgr_.MakeNot(first);
  LineageId b = mgr_.MakeNot(second);
  EXPECT_NE(a, b);
  EXPECT_EQ(mgr_.MakeNot(first), a);
  EXPECT_EQ(mgr_.MakeNot(second), b);
  EXPECT_EQ(mgr_.node(a).left, first);
  EXPECT_EQ(mgr_.node(b).left, second);
}

// Variable leaves come from the leaf table, not the consing index: a fresh
// variable gets the next arena id and a known one its first leaf, whatever
// the VarId order and whatever was built in between.
TEST_F(LineageTest, LeafIdsFollowCallOrder) {
  EXPECT_EQ(mgr_.MakeVar(0), 2u);
  EXPECT_EQ(mgr_.MakeVar(10), 3u);
  EXPECT_EQ(mgr_.MakeVar(3), 4u) << "out of order";
  EXPECT_EQ(mgr_.MakeVar(10), 3u);
  EXPECT_EQ(mgr_.MakeAnd(2, 3), 5u);
  EXPECT_EQ(mgr_.MakeNot(4), 6u);
  EXPECT_EQ(mgr_.MakeVar(5), 7u);
  EXPECT_EQ(mgr_.MakeOr(5, 6), 8u);
  EXPECT_EQ(mgr_.MakeVar(3), 4u);
  EXPECT_EQ(mgr_.MakeAnd(2, 3), 5u);
  EXPECT_EQ(mgr_.MakeVar(1), 9u);
  EXPECT_EQ(mgr_.MakeNot(6), 4u) << "double negation folds, no lookup";
  EXPECT_EQ(mgr_.MakeAnd(7, 9), 10u);
  EXPECT_EQ(mgr_.MakeVar(0), 2u);
  EXPECT_EQ(mgr_.size(), 11u);
  EXPECT_EQ(mgr_.node(3).var, 10u);
  EXPECT_EQ(mgr_.node(4).var, 3u);
  // Every MakeVar is one lookup (8, 3 hits), as is every ∧/∨/¬ that
  // reached the index (5, 1 hit).
  const LineageManager::InternCounts counts = mgr_.TakeInternCounts();
  EXPECT_EQ(counts.lookups, 13u);
  EXPECT_EQ(counts.hits, 4u);
}

// Variables never enter the consing index: 200k leaves leave its slot
// tables as they were, and index_bytes() grows only by the leaf table's 4
// bytes per variable (capacity rounded up to a power of two). Indexed as
// nodes they would take 2^19 8-byte slots.
TEST_F(LineageTest, VarsDoNotGrowTheSlotTable) {
  constexpr std::size_t kVars = 200000;
  const std::size_t before = mgr_.index_bytes();
  for (VarId v = 0; v < kVars; ++v) mgr_.MakeVar(v);
  EXPECT_GE(mgr_.index_bytes(), before + kVars * sizeof(LineageId));
  EXPECT_LE(mgr_.index_bytes(),
            before + std::bit_ceil(kVars) * sizeof(LineageId));
  EXPECT_EQ(mgr_.size(), 2 + kVars);
}

}  // namespace
}  // namespace tpset
