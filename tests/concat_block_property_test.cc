// Property: LineageManager::ConcatBlock is the sequential ConcatLineage loop.
// Two arenas are built identically; one runs a random block through the
// loop, the other through ConcatBlock on a pool of 2, 4 or 8 workers, or —
// the one-task case, which runs the loop itself — with no pool, one worker,
// or a block too small to split. The
// ids, every node, the intern counts and the index's bytes must agree, with
// hash-consing on and off, for each Table I operation, over two consecutive
// blocks (the second one hits the first one's nodes).
//
// Blocks mix every case the bulk path resolves differently: keys already in
// the arena, in-block duplicates, null sides, the True/False constants, the
// ¬¬x and a ∧ a folds, and two leaves whose ¬ keys share a 32-bit hash (the
// collision LineageTest.NodesWithCollidingTagsGetDistinctIds finds), so a
// tag match that is not an equal key reaches both the index probe and the
// in-block table. A window's one key takes the kind its folds give, and
// every block checks that its mix reaches each: ∩ over a ¬ λs (an andNot
// key), andNot with λs = ¬x (an ∧ key), with λr = True (a ¬ key, where the
// colliding ¬ tags meet) and with λr = ¬λs (a fold). andNot blocks also
// carry two windows whose andNot keys, new in the block, share a 32-bit
// hash.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lawa/set_ops.h"
#include "lineage/lineage.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// The first two leaf ids (2, 3, ... in a fresh arena) whose ¬ keys share a
// 32-bit hash.
std::pair<LineageId, LineageId> CollidingNotTags() {
  static const std::pair<LineageId, LineageId> pair = [] {
    std::unordered_map<std::uint32_t, LineageId> seen;
    for (LineageId id = 2;; ++id) {
      auto [it, inserted] = seen.emplace(
          ConsIndex::Hash(LineageKind::kNot, id, kNullLineage), id);
      if (!inserted) return std::pair{it->second, id};
    }
  }();
  return pair;
}

// andNot windows (λr, λs1) and (λr, λs2) whose keys (kAndNot, λr, λs1)
// and (kAndNot, λr, λs2) share a 32-bit hash, and so a shard. λs is drawn
// above the hot range Populate builds andNots over, so both keys are new
// in the block and meet in its in-block table.
struct AndCollision {
  LineageId lr, ls1, ls2;
};
AndCollision CollidingAndTags(LineageId leaves_end) {
  std::vector<std::pair<std::uint32_t, LineageId>> keys(leaves_end - 200);
  for (LineageId lr = 2;; ++lr) {
    for (LineageId ls = 200; ls < leaves_end; ++ls) {
      keys[ls - 200] = {ConsIndex::Hash(LineageKind::kAndNot, lr, ls), ls};
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 1; i < keys.size(); ++i) {
      if (keys[i].first == keys[i - 1].first) {
        return {lr, keys[i - 1].second, keys[i].second};
      }
    }
  }
}

// What a block draws its inputs from: the arena's leaves and compound
// nodes, and the keys it already holds.
struct Inputs {
  std::vector<LineageId> compound;  // ∧/∨/¬ nodes
  std::vector<LineagePair> negations;  // (¬x, x) for every ¬ node
  std::vector<LineagePair> ands, ors;  // children of existing ∧ / ∨
  std::vector<LineagePair> and_nots;   // andNot windows whose ¬ and ∧ exist
  LineageId leaves_end = 0;            // leaves are [2, leaves_end)
  AndCollision and_collision{};
};

// Builds the same arena into every manager given the same seed: leaves up
// to the colliding pair, then random ∧/∨/¬ over a hot range of them. With
// an odd seed, the first colliding leaf's ¬ pre-exists.
Inputs Populate(LineageManager* mgr, std::uint64_t seed) {
  Inputs in;
  const auto [x, y] = CollidingNotTags();
  for (VarId v = 0; v + 2 <= y; ++v) mgr->MakeVar(v);
  in.leaves_end = y + 1;
  static const AndCollision and_collision = CollidingAndTags(in.leaves_end);
  in.and_collision = and_collision;
  if (seed % 2 == 1) in.negations.push_back({mgr->MakeNot(x), x});
  Rng rng(seed);
  auto pick = [&]() -> LineageId {
    if (!in.compound.empty() && rng.Below(3) == 0) {
      return in.compound[rng.Below(in.compound.size())];
    }
    return static_cast<LineageId>(2 + rng.Below(64));
  };
  for (int i = 0; i < 600; ++i) {
    const LineageId a = pick(), b = pick();
    switch (rng.Below(3)) {
      case 0:
        in.compound.push_back(mgr->MakeAnd(a, b));
        in.ands.push_back({a, b});
        break;
      case 1:
        in.compound.push_back(mgr->MakeOr(a, b));
        in.ors.push_back({a, b});
        break;
      default:
        in.compound.push_back(mgr->MakeNot(a));
        if (mgr->kind(in.compound.back()) == LineageKind::kNot) {
          in.negations.push_back({in.compound.back(), a});
        }
        // The andNot of some λr and a exists.
        if (rng.Below(2) == 0) {
          const LineageId lr = pick();
          mgr->ConcatAndNot(lr, a);
          in.and_nots.push_back({lr, a});
        }
        break;
    }
  }
  return in;
}

// A random block for `op` over `in` (see the file comment for the mix).
std::vector<LineagePair> MakeBlock(SetOpKind op, const Inputs& in, Rng* rng) {
  const auto [x, y] = CollidingNotTags();
  const std::size_t n = 4096 + rng->Below(8192);
  std::vector<LineagePair> block;
  block.reserve(n);
  auto hot = [&]() { return static_cast<LineageId>(2 + rng->Below(96)); };
  auto any = [&]() -> LineageId {
    switch (rng->Below(4)) {
      case 0:
        return static_cast<LineageId>(2 + rng->Below(in.leaves_end - 2));
      case 1:
        return in.compound[rng->Below(in.compound.size())];
      default:
        return hot();
    }
  };
  const LineageId constant[] = {LineageManager::kFalseId,
                                LineageManager::kTrueId};
  while (block.size() < n) {
    LineagePair p{any(), any()};
    switch (rng->Below(10)) {
      case 0:  // an earlier window again
        if (!block.empty()) p = block[rng->Below(block.size())];
        break;
      case 1: {  // keys the arena holds
        const std::vector<LineagePair>& known =
            op == SetOpKind::kUnion       ? in.ors
            : op == SetOpKind::kIntersect ? in.ands
                                          : in.and_nots;
        if (!known.empty()) p = known[rng->Below(known.size())];
        // andNot: a λs whose ¬ exists, which the andNot key does not use.
        if (op == SetOpKind::kExcept && rng->Below(2) == 0) {
          p.ls = in.negations[rng->Below(in.negations.size())].ls;
        }
        break;
      }
      case 2:  // a null side, where the operation allows one
        if (op == SetOpKind::kUnion && rng->Below(2) == 0) {
          p.lr = kNullLineage;
        } else if (op != SetOpKind::kIntersect) {
          p.ls = kNullLineage;
        }
        break;
      case 3:  // a constant on either side
        (rng->Below(2) == 0 ? p.lr : p.ls) = constant[rng->Below(2)];
        break;
      case 4: {  // ¬¬x folds to x, and then x ∧ x to x
        const LineagePair neg = in.negations[rng->Below(in.negations.size())];
        p.ls = neg.lr;
        if (rng->Below(2) == 0) p.lr = neg.ls;
        break;
      }
      case 5: {  // a ∧ a and a ∨ a; for andNot, λr = ¬λs
        const LineageId a = any();
        p = {a, a};
        if (op == SetOpKind::kExcept) {
          p = in.negations[rng->Below(in.negations.size())];
        }
        break;
      }
      case 6:  // the colliding ¬ tags, against each other and the index
        p.ls = rng->Below(2) == 0 ? x : y;
        p.lr = op != SetOpKind::kExcept ? (rng->Below(2) == 0 ? x : y)
                                        : LineageManager::kTrueId;
        if (op == SetOpKind::kExcept && rng->Below(2) == 0) {
          const AndCollision& c = in.and_collision;
          p = {c.lr, rng->Below(2) == 0 ? c.ls1 : c.ls2};
        }
        break;
      default:  // fresh pairs over a hot range: in-block duplicates
        p = {hot(), hot()};
        break;
    }
    block.push_back(p);
  }
  return block;
}

// The block reaches every key kind its operation's folds give (see the file
// comment).
void ExpectFullMix(SetOpKind op, const LineageManager& mgr,
                   const std::vector<LineagePair>& block) {
  auto is_not = [&](LineageId id) {
    return id != kNullLineage && mgr.kind(id) == LineageKind::kNot;
  };
  std::size_t over_not = 0, true_left = 0, not_of_right = 0;
  for (const LineagePair& p : block) {
    over_not += is_not(p.ls) ? 1 : 0;
    true_left += p.lr == LineageManager::kTrueId && p.ls != kNullLineage ? 1 : 0;
    not_of_right +=
        is_not(p.lr) && mgr.node(p.lr).left == p.ls ? 1 : 0;
  }
  if (op == SetOpKind::kUnion) return;
  EXPECT_GT(over_not, 0u) << "no λs = ¬x";
  if (op == SetOpKind::kIntersect) return;
  EXPECT_GT(true_left, 0u) << "no λr = True";
  EXPECT_GT(not_of_right, 0u) << "no λr = ¬λs";
}

void ExpectSameArena(const LineageManager& want, const LineageManager& got) {
  ASSERT_EQ(want.size(), got.size());
  for (LineageId id = 0; id < want.size(); ++id) {
    const LineageNode& a = want.node(id);
    const LineageNode& b = got.node(id);
    ASSERT_TRUE(a.kind == b.kind && a.var == b.var && a.left == b.left &&
                a.right == b.right)
        << "node " << id;
  }
  EXPECT_EQ(want.index_bytes(), got.index_bytes());
  EXPECT_EQ(want.node_bytes(), got.node_bytes());
}

TEST(ConcatBlockPropertyTest, MatchesTheSequentialLoop) {
  for (std::size_t workers : {2, 4, 8}) {
    ThreadPool pool(workers);
    for (std::uint64_t seed : testing::PropertySeeds({1, 2, 3})) {
      for (bool consing : {true, false}) {
        for (SetOpKind op : kAllSetOps) {
          SCOPED_TRACE(::testing::Message()
                       << "workers=" << workers << " seed=" << seed
                       << " consing=" << consing << " op=" << SetOpName(op));
          LineageManager loop(consing), bulk(consing);
          const Inputs in = Populate(&loop, seed);
          Populate(&bulk, seed);
          loop.TakeInternCounts();
          bulk.TakeInternCounts();
          Rng rng(seed * 7919 + static_cast<std::uint64_t>(op));
          for (int round = 0; round < 2; ++round) {
            const std::vector<LineagePair> block = MakeBlock(op, in, &rng);
            ExpectFullMix(op, loop, block);
            std::vector<LineageId> want(block.size()), got(block.size());
            for (std::size_t i = 0; i < block.size(); ++i) {
              want[i] = ConcatLineage(op, loop, block[i].lr, block[i].ls);
            }
            bulk.ConcatBlock(op, block, &pool, got);
            ASSERT_EQ(want, got) << "round " << round;
            ExpectSameArena(loop, bulk);
            const LineageManager::InternCounts a = loop.TakeInternCounts();
            const LineageManager::InternCounts b = bulk.TakeInternCounts();
            EXPECT_EQ(a.lookups, b.lookups) << "round " << round;
            EXPECT_EQ(a.hits, b.hits) << "round " << round;
          }
        }
      }
    }
  }
}

// The one-task case, which runs the loop itself: a null pool and a
// one-worker pool at every block size, and four workers on blocks under
// 2 * kMinWindowsPerTask windows.
TEST(ConcatBlockPropertyTest, OneTaskBlocks) {
  ThreadPool one(1), four(4);
  constexpr std::size_t kOneTaskMax =
      2 * LineageManager::kMinWindowsPerTask - 1;
  for (std::uint64_t seed : testing::PropertySeeds({5, 6})) {
    for (bool consing : {true, false}) {
      for (SetOpKind op : kAllSetOps) {
        LineageManager loop(consing), bulk(consing);
        const Inputs in = Populate(&loop, seed);
        Populate(&bulk, seed);
        loop.TakeInternCounts();
        bulk.TakeInternCounts();
        Rng rng(seed * 31 + static_cast<std::uint64_t>(op));
        struct Case {
          ThreadPool* pool;
          std::size_t max_windows;  // 0: MakeBlock's full size
        };
        for (const Case c : {Case{nullptr, 0}, Case{&one, 0},
                             Case{nullptr, 300}, Case{&four, kOneTaskMax},
                             Case{&four, 300}}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " consing=" << consing
                       << " op=" << SetOpName(op) << " workers="
                       << (c.pool == nullptr ? 0 : c.pool->size())
                       << " max_windows=" << c.max_windows);
          std::vector<LineagePair> block = MakeBlock(op, in, &rng);
          if (c.max_windows == kOneTaskMax) {
            block.resize(kOneTaskMax);
          } else if (c.max_windows != 0) {
            block.resize(1 + rng.Below(c.max_windows));
          }
          std::vector<LineageId> want(block.size()), got(block.size());
          for (std::size_t i = 0; i < block.size(); ++i) {
            want[i] = ConcatLineage(op, loop, block[i].lr, block[i].ls);
          }
          bulk.ConcatBlock(op, block, c.pool, got);
          ASSERT_EQ(want, got);
          ExpectSameArena(loop, bulk);
          const LineageManager::InternCounts a = loop.TakeInternCounts();
          const LineageManager::InternCounts b = bulk.TakeInternCounts();
          EXPECT_EQ(a.lookups, b.lookups);
          EXPECT_EQ(a.hits, b.hits);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tpset
