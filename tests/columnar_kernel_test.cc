// Differential belt for the fused sweep kernel: ColumnarAdvancer, which
// every engine sweeps with, reading the sorted tuple arrays in place, must
// be indistinguishable from LineageAwareWindowAdvancer — the paper's
// Alg. 1, kept as the reference — at every observable surface: the window
// stream (fact, interval, λr, λs in emit order), the final advancer status
// (AdvancerCheckpoint), the sequential LawaSetOp output and the parallel
// bit-identical output across thread counts and morsel budgets (byte-equal
// to a scalar-advancer reference, lineage ids included). Checkpoints are
// additionally round-tripped across kernels in both directions: state saved
// by one kernel, restored into the other, must continue the sweep
// identically — including the incremental engine's resume, which restores a
// prefix checkpoint on the grown arrays, down to epochs that append one or
// two tuples.
//
// Shapes are the ones that stress distinct kernel paths: zipf and one-hot
// fact skew (many short groups vs one huge group), all-one-fact (a single
// group, the bulk fast path's home turf once a side drains), and the
// hand-built paper example plus empty/one-sided edges.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "parallel/parallel_set_op.h"
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// One emitted window, as both kernels must produce it.
struct Win {
  FactId fact;
  TimePoint start, end;
  LineageId lr, ls;
  bool operator==(const Win& o) const {
    return fact == o.fact && start == o.start && end == o.end && lr == o.lr &&
           ls == o.ls;
  }
};

struct SweepResult {
  std::vector<Win> windows;
  AdvancerCheckpoint ckpt;
};

SweepResult ScalarSweep(SetOpKind op, const std::vector<TpTuple>& r,
                        const std::vector<TpTuple>& s) {
  SweepResult out;
  LineageAwareWindowAdvancer adv(r.data(), r.size(), s.data(), s.size());
  ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
    out.windows.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
  });
  out.ckpt = adv.Checkpoint();
  return out;
}

// The tuple vector as the fused kernel's in-place input span.
TupleSpan Span(const std::vector<TpTuple>& tuples) {
  return {tuples.data(), tuples.size()};
}

SweepResult ColumnarSweep(SetOpKind op, const std::vector<TpTuple>& r,
                          const std::vector<TpTuple>& s) {
  SweepResult out;
  ColumnarAdvancer adv(Span(r), Span(s));
  adv.Sweep(op, [&](const LineageAwareWindow& w) {
    out.windows.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
  });
  out.ckpt = adv.Checkpoint();
  return out;
}

// Field-wise checkpoint equality; the held valid tuples are only compared
// while their flag is set (when clear, the slot is stale by contract — the
// scalar advancer never clears it on expiry, and the columnar kernel only
// writes it back when it loaded one, so the don't-care bytes may differ).
void ExpectCkptEqual(const AdvancerCheckpoint& a, const AdvancerCheckpoint& b,
                     const std::string& what) {
  EXPECT_EQ(a.ri, b.ri) << what;
  EXPECT_EQ(a.si, b.si) << what;
  EXPECT_EQ(a.r_valid, b.r_valid) << what;
  EXPECT_EQ(a.s_valid, b.s_valid) << what;
  EXPECT_EQ(a.have_fact, b.have_fact) << what;
  EXPECT_EQ(a.curr_fact, b.curr_fact) << what;
  EXPECT_EQ(a.prev_win_te, b.prev_win_te) << what;
  EXPECT_EQ(a.windows_produced, b.windows_produced) << what;
  if (a.r_valid && b.r_valid) {
    EXPECT_EQ(a.r_valid_tuple, b.r_valid_tuple) << what;
  }
  if (a.s_valid && b.s_valid) {
    EXPECT_EQ(a.s_valid_tuple, b.s_valid_tuple) << what;
  }
}

void ExpectBitEqual(const TpRelation& a, const TpRelation& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " tuple " << i;
  }
}

// The scalar reference for one whole operation: the Alg. 1 advancer driven
// through the shared λ-filters, concatenating in window order — the
// sequence LawaSetOp must reproduce on the fused kernel. Inputs must be
// (fact, start)-sorted.
TpRelation ScalarReference(SetOpKind op, const TpRelation& r,
                           const TpRelation& s) {
  LineageManager& mgr = r.context()->lineage();
  TpRelation out(r.context(), r.schema(), "reference");
  LineageAwareWindowAdvancer adv(r.tuples().data(), r.size(),
                                 s.tuples().data(), s.size());
  ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
    LineageId lineage = kNullLineage;
    switch (op) {
      case SetOpKind::kIntersect:
        lineage = mgr.ConcatAnd(w.lr, w.ls);
        break;
      case SetOpKind::kUnion:
        lineage = mgr.ConcatOr(w.lr, w.ls);
        break;
      case SetOpKind::kExcept:
        lineage = mgr.ConcatAndNot(w.lr, w.ls);
        break;
    }
    out.AddDerived(w.fact, w.t, lineage);
  });
  return out;
}

// Per-fact chain generation (non-overlapping intervals per fact, the input
// contract), fact weights under test control — same scheme as the skew
// property belt.
TpRelation ChainRelation(std::shared_ptr<TpContext> ctx,
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
        1,
        static_cast<std::size_t>(weight[f] / norm * static_cast<double>(total)));
  }
  return counts;
}

struct Shape {
  std::string name;
  std::vector<std::size_t> counts_r, counts_s;
};

std::vector<Shape> Shapes(std::size_t scale) {
  std::vector<Shape> shapes;
  shapes.push_back({"zipf", ZipfCounts(20, 1.2, scale),
                    ZipfCounts(20, 1.2, scale)});
  {
    std::vector<std::size_t> hot(8, std::max<std::size_t>(1, scale / 80));
    hot[0] = scale * 9 / 10;
    shapes.push_back({"one_hot", hot, hot});
  }
  shapes.push_back({"all_one_fact", std::vector<std::size_t>{scale},
                    std::vector<std::size_t>{scale}});
  // Lopsided: r-heavy and one-sided facts, so one side drains early and the
  // bulk fast paths run long.
  shapes.push_back({"lopsided",
                    std::vector<std::size_t>{scale, 1, scale / 2, 0, 3},
                    std::vector<std::size_t>{2, scale / 2, 0, scale / 4, 3}});
  return shapes;
}

std::pair<TpRelation, TpRelation> FreshPair(const Shape& shape,
                                            std::uint64_t seed,
                                            std::shared_ptr<TpContext>* ctx) {
  *ctx = std::make_shared<TpContext>();
  Rng rng(seed);
  TpRelation r = ChainRelation(*ctx, "r", shape.counts_r, 6, 3, &rng);
  TpRelation s = ChainRelation(*ctx, "s", shape.counts_s, 9, 2, &rng);
  return {std::move(r), std::move(s)};
}

// ---- Window stream + final checkpoint, property shapes --------------------

TEST(ColumnarKernelTest, StreamAndCheckpointEqualScalarOnShapes) {
  for (std::uint64_t seed : testing::PropertySeeds({101, 102, 103})) {
    for (const Shape& shape : Shapes(500)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      std::shared_ptr<TpContext> ctx;
      auto [r, s] = FreshPair(shape, seed, &ctx);
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        SweepResult scalar = ScalarSweep(op, r.tuples(), s.tuples());
        SweepResult columnar = ColumnarSweep(op, r.tuples(), s.tuples());
        EXPECT_TRUE(scalar.windows == columnar.windows)
            << "window streams differ: scalar " << scalar.windows.size()
            << " vs columnar " << columnar.windows.size();
        ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
      }
    }
  }
}

// ---- Hand-built edges -----------------------------------------------------

TEST(ColumnarKernelTest, HandBuiltEdges) {
  testing::SupermarketDb db;
  const std::vector<std::pair<const TpRelation*, const TpRelation*>> pairs = {
      {&db.a, &db.b}, {&db.a, &db.c}, {&db.c, &db.a}, {&db.b, &db.c}};
  for (const auto& [r, s] : pairs) {
    for (SetOpKind op : kAllSetOps) {
      SCOPED_TRACE(std::string(r->name()) + " " + SetOpName(op) + " " +
                   s->name());
      // The paper relations are added via AddBase in sorted-enough order;
      // sort copies to satisfy the advancer contract explicitly.
      std::vector<TpTuple> rt = r->tuples(), st = s->tuples();
      SortTuples(&rt, SortMode::kComparison);
      SortTuples(&st, SortMode::kComparison);
      SweepResult scalar = ScalarSweep(op, rt, st);
      SweepResult columnar = ColumnarSweep(op, rt, st);
      EXPECT_TRUE(scalar.windows == columnar.windows);
      ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
    }
  }
}

TEST(ColumnarKernelTest, EmptyAndOneSidedInputs) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(7);
  TpRelation r = ChainRelation(ctx, "r", {4, 0, 2}, 5, 2, &rng);
  TpRelation empty(ctx, Schema::SingleInt("fact"), "empty");
  empty.SortFactTime();
  for (SetOpKind op : kAllSetOps) {
    SCOPED_TRACE(SetOpName(op));
    for (const auto& [a, b] : {std::make_pair(&r, &empty),
                               std::make_pair(&empty, &r),
                               std::make_pair(&empty, &empty)}) {
      SweepResult scalar = ScalarSweep(op, a->tuples(), b->tuples());
      SweepResult columnar = ColumnarSweep(op, a->tuples(), b->tuples());
      EXPECT_TRUE(scalar.windows == columnar.windows);
      ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
    }
  }
}

// ---- Sequential LawaSetOp: byte-equal to the scalar reference ------------

TEST(ColumnarKernelTest, SequentialLawaMatchesScalarReference) {
  for (std::uint64_t seed : testing::PropertySeeds({111, 112})) {
    for (const Shape& shape : Shapes(400)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        // Fresh, identically seeded contexts: with identical window streams
        // the concatenation order — and so every interned lineage id — must
        // coincide.
        std::shared_ptr<TpContext> ctx1, ctx2;
        auto [r1, s1] = FreshPair(shape, seed, &ctx1);
        auto [r2, s2] = FreshPair(shape, seed, &ctx2);
        TpRelation expected = ScalarReference(op, r1, s1);
        TpRelation out = LawaSetOp(op, r2, s2);
        ExpectBitEqual(out, expected, "LawaSetOp vs scalar reference");
      }
    }
  }
}

// ---- Parallel bit-identical: byte-equal across threads and morsels --------

TEST(ColumnarKernelTest, ParallelBitIdenticalByteEqual) {
  const std::size_t thread_counts[] = {1, 4, 8};
  const std::size_t morsel_budgets[] = {1, 16, 0};  // 0 = auto
  for (std::uint64_t seed : testing::PropertySeeds({121})) {
    for (const Shape& shape : Shapes(400)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        std::shared_ptr<TpContext> oracle_ctx;
        auto [ro, so] = FreshPair(shape, seed, &oracle_ctx);
        TpRelation expected = ScalarReference(op, ro, so);
        for (std::size_t threads : thread_counts) {
          for (std::size_t budget : morsel_budgets) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " morsel_budget=" + std::to_string(budget));
            ParallelSetOpAlgorithm algo(threads, SortMode::kComparison,
                                        budget);
            std::shared_ptr<TpContext> ctx;
            auto [r, s] = FreshPair(shape, seed, &ctx);
            TpRelation out = algo.Compute(op, r, s);
            ExpectBitEqual(out, expected, "columnar parallel vs scalar seq");
          }
        }
      }
    }
  }
}

// ---- Checkpoint round-trips across kernels --------------------------------

TEST(ColumnarKernelTest, CheckpointRoundTripsAcrossKernels) {
  for (std::uint64_t seed : testing::PropertySeeds({131, 132})) {
    std::shared_ptr<TpContext> ctx;
    auto [r, s] = FreshPair(Shapes(300)[0], seed, &ctx);
    const std::vector<TpTuple>& rt = r.tuples();
    const std::vector<TpTuple>& st = s.tuples();
    for (SetOpKind op : kAllSetOps) {
      // Cut both sides mid-array (any per-side prefix of chain inputs is a
      // valid advancer input) and sweep the prefix to its drain point under
      // each kernel — the saved status must already be identical.
      for (const auto& [fr, fs] : {std::make_pair(2, 3), std::make_pair(3, 2),
                                   std::make_pair(1, 1)}) {
        SCOPED_TRACE(std::string(SetOpName(op)) + " seed=" +
                     std::to_string(seed) + " cut=" + std::to_string(fr) +
                     "/" + std::to_string(fs));
        std::vector<TpTuple> rp(rt.begin(),
                                rt.begin() + rt.size() * fr / (fr + fs));
        std::vector<TpTuple> sp(st.begin(),
                                st.begin() + st.size() * fs / (fr + fs));
        SweepResult scalar_prefix = ScalarSweep(op, rp, sp);
        SweepResult columnar_prefix = ColumnarSweep(op, rp, sp);
        EXPECT_TRUE(scalar_prefix.windows == columnar_prefix.windows);
        ExpectCkptEqual(scalar_prefix.ckpt, columnar_prefix.ckpt,
                        "prefix checkpoint");

        // Cross-restore over the full inputs: the columnar-saved status
        // continues under the scalar kernel and vice versa; continuation
        // streams and final status must agree.
        SweepResult cont_scalar;
        {
          LineageAwareWindowAdvancer adv(rt.data(), rt.size(), st.data(),
                                         st.size());
          adv.Restore(columnar_prefix.ckpt);
          ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
            cont_scalar.windows.push_back(
                {w.fact, w.t.start, w.t.end, w.lr, w.ls});
          });
          cont_scalar.ckpt = adv.Checkpoint();
        }
        SweepResult cont_columnar;
        {
          ColumnarAdvancer adv(Span(rt), Span(st));
          adv.Restore(scalar_prefix.ckpt);
          adv.Sweep(op, [&](const LineageAwareWindow& w) {
            cont_columnar.windows.push_back(
                {w.fact, w.t.start, w.t.end, w.lr, w.ls});
          });
          cont_columnar.ckpt = adv.Checkpoint();
        }
        EXPECT_TRUE(cont_scalar.windows == cont_columnar.windows)
            << "continuation streams differ: scalar "
            << cont_scalar.windows.size() << " vs columnar "
            << cont_columnar.windows.size();
        ExpectCkptEqual(cont_scalar.ckpt, cont_columnar.ckpt,
                        "continuation checkpoint");
      }
    }
  }
}

// ---- The incremental resume: prefix checkpoint, grown arrays --------------

// The shape of IncrementalSetOp's per-fact resume: each epoch appends the
// fact's new tuples to its side vectors (which may reallocate) and restores
// the checkpoint the previous epoch saved — cursors into the old prefix —
// on the full grown arrays. Every epoch, the fused kernel's continuation
// must equal the scalar advancer's, restored from the same checkpoint,
// window for window and in its final status. Epochs are cut where no tuple
// straddles, so every resume is admissible (the appended tuples start at or
// after the frontier) and the concatenated stream must also equal one
// from-scratch sweep. The schedule runs twice: with epochs at least 40 time
// points long, and with a cut at every admissible r end point, where most
// epochs append one or two tuples — the resume of a stream of small
// appends.
TEST(ColumnarKernelTest, ResumeOnGrownArraysMatchesScalar) {
  for (std::uint64_t seed : testing::PropertySeeds({141, 142})) {
    auto ctx = std::make_shared<TpContext>();
    Rng rng(seed);
    const TpRelation r = ChainRelation(ctx, "r", {300}, 6, 3, &rng);
    const TpRelation s = ChainRelation(ctx, "s", {300}, 9, 2, &rng);
    const std::vector<TpTuple>& rt = r.tuples();
    const std::vector<TpTuple>& st = s.tuples();
    auto straddled = [](const std::vector<TpTuple>& side, TimePoint t) {
      return std::any_of(side.begin(), side.end(), [t](const TpTuple& x) {
        return x.t.start < t && t < x.t.end;
      });
    };
    for (const TimePoint min_gap : {TimePoint{40}, TimePoint{0}}) {
      // Epoch boundaries: r end points that no s tuple straddles, at least
      // `min_gap` time points apart; the last epoch takes the rest.
      std::vector<TimePoint> cuts;
      for (const TpTuple& x : rt) {
        if (!straddled(st, x.t.end) &&
            (cuts.empty() || x.t.end >= cuts.back() + min_gap)) {
          cuts.push_back(x.t.end);
        }
      }
      cuts.push_back(std::numeric_limits<TimePoint>::max());
      ASSERT_GE(cuts.size(), 5u) << "too few epoch boundaries";

      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(std::string(SetOpName(op)) + " seed=" +
                     std::to_string(seed) + " min_gap=" +
                     std::to_string(min_gap));
        // The fact's side inputs, grown per epoch.
        std::vector<TpTuple> rg, sg;
        AdvancerCheckpoint ckpt;
        std::vector<Win> resumed;
        std::size_t ri = 0, si = 0;
        for (std::size_t e = 0; e < cuts.size(); ++e) {
          SCOPED_TRACE("epoch " + std::to_string(e));
          TimePoint first_new = std::numeric_limits<TimePoint>::max();
          if (ri < rt.size()) first_new = std::min(first_new, rt[ri].t.start);
          if (si < st.size()) first_new = std::min(first_new, st[si].t.start);
          while (ri < rt.size() && rt[ri].t.start < cuts[e]) {
            rg.push_back(rt[ri++]);
          }
          while (si < st.size() && st[si].t.start < cuts[e]) {
            sg.push_back(st[si++]);
          }
          if (ckpt.windows_produced > 0) {
            ASSERT_GE(first_new, ckpt.prev_win_te) << "resume not admissible";
          }

          SweepResult scalar;
          {
            LineageAwareWindowAdvancer adv(rg.data(), rg.size(), sg.data(),
                                           sg.size());
            adv.Restore(ckpt);
            ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
              scalar.windows.push_back(
                  {w.fact, w.t.start, w.t.end, w.lr, w.ls});
            });
            scalar.ckpt = adv.Checkpoint();
          }
          SweepResult columnar;
          {
            ColumnarAdvancer adv(Span(rg), Span(sg));
            adv.Restore(ckpt);
            adv.Sweep(op, [&](const LineageAwareWindow& w) {
              columnar.windows.push_back(
                  {w.fact, w.t.start, w.t.end, w.lr, w.ls});
            });
            columnar.ckpt = adv.Checkpoint();
          }
          EXPECT_TRUE(scalar.windows == columnar.windows)
              << "resumed streams differ: scalar " << scalar.windows.size()
              << " vs columnar " << columnar.windows.size();
          ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "resumed checkpoint");
          resumed.insert(resumed.end(), columnar.windows.begin(),
                         columnar.windows.end());
          ckpt = columnar.ckpt;
        }
        ASSERT_EQ(ri, rt.size());
        ASSERT_EQ(si, st.size());
        EXPECT_TRUE(resumed == ScalarSweep(op, rt, st).windows)
            << "resumed epochs differ from one from-scratch sweep";
      }
    }
  }
}

}  // namespace
}  // namespace tpset
