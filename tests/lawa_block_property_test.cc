// Property: LawaSetOp's block body is the per-window loop. Twin fresh
// contexts get the same inputs; one runs LawaSetOp, which sweeps up to
// kLawaBlockWindows surviving windows into a block with the fused kernel,
// interns the block with ConcatBlock and appends its outputs, and the other
// runs the scalar reference loop: the Alg. 1 advancer's
// ForEachSurvivingWindow, ConcatLineage and AddDerived for each window in
// turn. Outputs must be bit-identical, and the arenas equal node for node,
// with equal node_bytes(), index_bytes() and intern counts — for each
// Table I operation, with hash-consing on and off, at surviving-window
// counts around the block size. The 0-, 1- and 31-window cases (at most 62
// input tuples) check the fused kernel against the scalar reference on the
// smallest inputs.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lawa/advancer.h"
#include "lawa/set_ops.h"
#include "lineage/lineage.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// The scalar reference: the Alg. 1 advancer's surviving windows,
// concatenated and appended one at a time.
TpRelation PerWindowReference(SetOpKind op, const TpRelation& r,
                              const TpRelation& s) {
  LineageManager& mgr = r.context()->lineage();
  TpRelation out(r.context(), r.schema(), "reference");
  std::vector<TpTuple> rs = r.tuples(), ss = s.tuples();
  SortTuples(&rs, SortMode::kComparison);
  SortTuples(&ss, SortMode::kComparison);
  LineageAwareWindowAdvancer adv(rs, ss);
  ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
    out.AddDerived(w.fact, w.t, ConcatLineage(op, mgr, w.lr, w.ls));
  });
  return out;
}

struct Inputs {
  TpRelation r, s;
};

// Lineages to draw from: the constants, leaves, and ∧/∨/¬ nodes over a hot
// range of them, so windows repeat pairs (index hits, in-block duplicates)
// and hit the folds.
std::vector<LineageId> LineagePool(LineageManager* mgr, Rng* rng) {
  std::vector<LineageId> pool = {LineageManager::kFalseId,
                                 LineageManager::kTrueId};
  for (VarId v = 0; v < 48; ++v) pool.push_back(mgr->MakeVar(v));
  for (int i = 0; i < 32; ++i) {
    const LineageId a = pool[2 + rng->Below(48)];
    const LineageId b = pool[2 + rng->Below(48)];
    switch (rng->Below(3)) {
      case 0: pool.push_back(mgr->MakeAnd(a, b)); break;
      case 1: pool.push_back(mgr->MakeOr(a, b)); break;
      default: pool.push_back(mgr->MakeNot(a)); break;
    }
  }
  return pool;
}

// `windows` facts whose r and s tuples share one interval, so every
// operation has exactly one surviving window per fact, with both lineages
// set.
Inputs ExactInputs(const std::shared_ptr<TpContext>& ctx, std::size_t windows,
                   std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<LineageId> pool = LineagePool(&ctx->lineage(), &rng);
  Inputs in{TpRelation(ctx, Schema::SingleString("Product"), "r"),
            TpRelation(ctx, Schema::SingleString("Product"), "s")};
  auto pick = [&]() { return pool[rng.Below(pool.size())]; };
  for (std::size_t f = 0; f < windows; ++f) {
    const TimePoint start = static_cast<TimePoint>(rng.Below(50));
    const Interval iv(start, start + 1 + static_cast<TimePoint>(rng.Below(9)));
    in.r.AddDerived(static_cast<FactId>(f), iv, pick());
    in.s.AddDerived(static_cast<FactId>(f), iv, pick());
  }
  return in;
}

// Random per-fact chains of r and s tuples with random gaps: every window
// shape, several blocks of them.
Inputs RandomInputs(const std::shared_ptr<TpContext>& ctx, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<LineageId> pool = LineagePool(&ctx->lineage(), &rng);
  Inputs in{TpRelation(ctx, Schema::SingleString("Product"), "r"),
            TpRelation(ctx, Schema::SingleString("Product"), "s")};
  auto pick = [&]() { return pool[rng.Below(pool.size())]; };
  const std::size_t facts = 50 + rng.Below(200);
  for (std::size_t f = 0; f < facts; ++f) {
    for (TpRelation* rel : {&in.r, &in.s}) {
      TimePoint t = static_cast<TimePoint>(rng.Below(5));
      const std::size_t tuples = rng.Below(60);
      for (std::size_t k = 0; k < tuples; ++k) {
        const TimePoint end = t + 1 + static_cast<TimePoint>(rng.Below(6));
        rel->AddDerived(static_cast<FactId>(f), Interval(t, end), pick());
        t = end + static_cast<TimePoint>(rng.Below(3));
      }
    }
  }
  return in;
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
  EXPECT_EQ(want.node_bytes(), got.node_bytes());
  EXPECT_EQ(want.index_bytes(), got.index_bytes());
}

// Runs both sides on twin contexts built by `make` and compares them.
template <typename Make>
void ExpectBlockBodyIsTheLoop(SetOpKind op, bool consing, Make&& make,
                              std::size_t want_windows) {
  auto loop_ctx = std::make_shared<TpContext>(consing);
  auto block_ctx = std::make_shared<TpContext>(consing);
  const Inputs loop_in = make(loop_ctx);
  const Inputs block_in = make(block_ctx);
  loop_ctx->lineage().TakeInternCounts();
  block_ctx->lineage().TakeInternCounts();

  const TpRelation want = PerWindowReference(op, loop_in.r, loop_in.s);
  LawaStats stats;
  const TpRelation got = LawaSetOp(op, block_in.r, block_in.s,
                                   SortMode::kComparison, &stats);
  if (want_windows != SIZE_MAX) {
    ASSERT_EQ(want.size(), want_windows);
  }
  ASSERT_EQ(want.tuples(), got.tuples());
  EXPECT_EQ(stats.output_tuples, got.size());
  EXPECT_TRUE(got.known_sorted());
  ExpectSameArena(loop_ctx->lineage(), block_ctx->lineage());
  const LineageManager::InternCounts a = loop_ctx->lineage().TakeInternCounts();
  const LineageManager::InternCounts b =
      block_ctx->lineage().TakeInternCounts();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
}

TEST(LawaBlockPropertyTest, WindowCountsAroundTheBlockSize) {
  constexpr std::size_t B = kLawaBlockWindows;
  for (std::uint64_t seed : testing::PropertySeeds({1, 2})) {
    for (std::size_t windows : {std::size_t{0}, std::size_t{1},
                                std::size_t{31}, B - 1, B, B + 1,
                                3 * B + 7}) {
      for (bool consing : {true, false}) {
        for (SetOpKind op : kAllSetOps) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " windows=" << windows
                       << " consing=" << consing << " op=" << SetOpName(op));
          ExpectBlockBodyIsTheLoop(
              op, consing,
              [&](const std::shared_ptr<TpContext>& ctx) {
                return ExactInputs(ctx, windows, seed);
              },
              windows);
        }
      }
    }
  }
}

TEST(LawaBlockPropertyTest, RandomChains) {
  for (std::uint64_t seed : testing::PropertySeeds({3, 4, 5, 6})) {
    for (bool consing : {true, false}) {
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " consing="
                                          << consing << " op=" << SetOpName(op));
        ExpectBlockBodyIsTheLoop(
            op, consing,
            [&](const std::shared_ptr<TpContext>& ctx) {
              return RandomInputs(ctx, seed);
            },
            SIZE_MAX);
      }
    }
  }
}

}  // namespace
}  // namespace tpset
