// Retention + checkpoint rebase: the clip-equivalence property.
//
// Retention forgets, it does not retract: after QueryExecutor::Retain(rel, w)
// the storage retires every tuple ending at or below w and every continuous
// query reading the relation drops the same prefix from its per-fact state
// (side inputs, emitted windows, advancer-checkpoint cursors). Below the
// watermark the state is gone; *above* it, nothing changes — so the testable
// invariant is clip-equivalence: clipping both the accumulated continuous
// state and a from-scratch Execute of the same query to (w, ∞) — dropping
// windows ending at or below w, clamping starts up to w — must yield the
// same relation (same facts, clipped intervals, probability-equal lineage).
// The subscriber delta stream, folded and clipped the same way, must agree
// tuple-for-tuple (exact lineage ids), and a parallel run's clipped state
// and stream must equal a sequential run's. Checkpoints must stay *live*
// after a rebase: later in-order appends keep resuming instead of
// resweeping.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "incremental/continuous_query.h"
#include "query/executor.h"
#include "query/explain.h"
#include "relation/relation.h"
#include "storage/stored_relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;

// Clips a relation to the open ray above `w`: windows ending at or below w
// vanish, straddlers keep their lineage with the start clamped to w.
TpRelation ClipAbove(const TpRelation& rel, TimePoint w) {
  TpRelation out(rel.context(), rel.schema(), rel.name() + "|clip");
  for (const TpTuple& t : rel.tuples()) {
    if (t.t.end <= w) continue;
    out.AddDerived(t.fact, Interval(std::max(t.t.start, w), t.t.end), t.lineage);
  }
  return out;
}

// Folds a delta stream into a multiset without the duplicate-freeness
// assertion of the unretained tests: below the watermark, forgotten windows
// are never retracted and a resweep may re-insert an identical window, so
// only the clipped view is comparable.
using TupleCounts =
    std::map<std::tuple<FactId, TimePoint, TimePoint, LineageId>, int>;

struct RetentionFold {
  TupleCounts tuples;
  EpochId last_epoch = 0;

  void Apply(const EpochDelta& d) {
    EXPECT_GT(d.epoch, last_epoch) << "epochs must arrive in order";
    last_epoch = d.epoch;
    for (const TpTuple& t : d.delta.retracted) {
      auto key = std::make_tuple(t.fact, t.t.start, t.t.end, t.lineage);
      auto it = tuples.find(key);
      ASSERT_TRUE(it != tuples.end()) << "retraction of a tuple never inserted";
      if (--it->second == 0) tuples.erase(it);
    }
    for (const TpTuple& t : d.delta.inserted) {
      ++tuples[std::make_tuple(t.fact, t.t.start, t.t.end, t.lineage)];
    }
  }

  TupleCounts Clipped(TimePoint w) const {
    TupleCounts clipped;
    for (const auto& [key, count] : tuples) {
      const auto& [fact, ts, te, lin] = key;
      if (te <= w) continue;
      clipped[std::make_tuple(fact, std::max(ts, w), te, lin)] += count;
    }
    return clipped;
  }

  void ExpectClippedMatch(const TpRelation& current, TimePoint w) {
    TupleCounts got;
    for (const TpTuple& t : current.tuples()) {
      if (t.t.end <= w) continue;
      ++got[std::make_tuple(t.fact, std::max(t.t.start, w), t.t.end, t.lineage)];
    }
    EXPECT_EQ(got, Clipped(w))
        << "clipped folded stream != clipped accumulated state";
  }
};

// What a schedule leaves per query, clipped above the query's effective
// watermark: the accumulated state and the folded delta stream.
struct ClippedRun {
  std::vector<std::vector<TpTuple>> current;
  std::vector<TupleCounts> folded;
};

// ---- Randomized schedules with periodic retention --------------------------

void RunRetainedSchedule(std::size_t num_threads, std::uint64_t seed,
                         ClippedRun* out = nullptr) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(num_threads));
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  Rng rng(seed);

  const std::size_t kFacts = 5;
  const std::size_t kEpochs = 60;
  const std::vector<std::string> rel_names = {"r", "s", "u"};
  std::vector<std::vector<TimePoint>> cursor(rel_names.size(),
                                             std::vector<TimePoint>(kFacts, 0));
  for (const std::string& name : rel_names) {
    TpRelation rel(ctx, Schema::SingleInt("fact"), name);
    ASSERT_TRUE(exec.Register(rel).ok());
  }

  ContinuousOptions options;
  options.num_threads = num_threads;
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"q_diff", "r - s"},
      {"q_mix", "(r | s) & u"},
      {"q_deep", "(r - s) | (s & u)"},
  };
  std::vector<ContinuousQuery*> cqs;
  std::vector<RetentionFold> folded(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<ContinuousQuery*> cq =
        exec.RegisterContinuous(queries[i].first, queries[i].second, options);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    cqs.push_back(*cq);
    RetentionFold* f = &folded[i];
    (*cq)->Subscribe([f](const EpochDelta& d) { f->Apply(d); });
  }

  TimePoint watermark = 0;
  auto check_clip_equivalence = [&]() {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const TimePoint w = cqs[i]->effective_watermark();
      const TimePoint w_eff = w == kNoWatermark ? 0 : w;
      Result<TpRelation> oneshot = exec.Execute(queries[i].second);
      ASSERT_TRUE(oneshot.ok());
      TpRelation current = cqs[i]->Current();
      EXPECT_TRUE(RelationsEquivalent(ClipAbove(current, w_eff),
                                      ClipAbove(*oneshot, w_eff)))
          << queries[i].second << " diverged above watermark " << w_eff;
      folded[i].ExpectClippedMatch(current, w_eff);
    }
  };

  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t ri = static_cast<std::size_t>(rng.Below(rel_names.size()));
    DeltaBatch batch;
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t fact = static_cast<std::size_t>(rng.Below(kFacts));
      TimePoint& cur = cursor[ri][fact];
      cur += rng.Uniform(0, 3);
      const TimePoint len = rng.Uniform(1, 4);
      batch.Add({Value(static_cast<std::int64_t>(fact))},
                Interval(cur, cur + len), 0.1 + 0.8 * rng.NextDouble());
      cur += len;
    }
    Result<EpochId> epoch = exec.Append(rel_names[ri], batch);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

    // Every 12 epochs: advance the watermark over all three relations and
    // verify clip-equivalence right after the rebase (divergence caught
    // near its cause) — and again 3 epochs later, after post-retention
    // appends exercised the rebased checkpoints.
    if (e % 12 == 11) {
      watermark += 6;
      for (const std::string& name : rel_names) {
        Result<std::size_t> retired = exec.Retain(name, watermark);
        ASSERT_TRUE(retired.ok()) << retired.status().ToString();
      }
      check_clip_equivalence();
    }
    if (e % 12 == 2 && e > 12) check_clip_equivalence();
  }
  check_clip_equivalence();

  // Retention must actually have dropped state somewhere.
  std::size_t retired_total = 0;
  for (const std::string& name : rel_names) {
    retired_total += exec.FindStored(name).value()->stats().tuples_retired;
  }
  EXPECT_GT(retired_total, 0u) << "schedule never retired anything";

  if (out == nullptr) return;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const TimePoint w = cqs[i]->effective_watermark();
    const TimePoint w_eff = w == kNoWatermark ? 0 : w;
    out->current.push_back(ClipAbove(cqs[i]->Current(), w_eff).tuples());
    out->folded.push_back(folded[i].Clipped(w_eff));
  }
}

TEST(RetentionPropertyTest, RandomScheduleSequential) {
  for (std::uint64_t seed : testing::PropertySeeds({101, 102, 103, 104})) {
    RunRetainedSchedule(1, seed);
  }
}

// The parallel run interns in the sequential run's order, so on fresh
// executors the two leave the same lineage ids.
TEST(RetentionPropertyTest, RandomScheduleParallelMatchesSequential) {
  for (std::uint64_t seed : testing::PropertySeeds({111, 112})) {
    ClippedRun parallel, sequential;
    RunRetainedSchedule(4, seed, &parallel);
    RunRetainedSchedule(1, seed, &sequential);
    ASSERT_EQ(parallel.current.size(), 3u);
    EXPECT_TRUE(parallel.current == sequential.current) << "seed=" << seed;
    EXPECT_EQ(parallel.folded, sequential.folded) << "seed=" << seed;
  }
}

// ---- Targeted rebase semantics ---------------------------------------------

DeltaBatch OneRow(const std::string& fact, TimePoint ts, TimePoint te, double p,
                  const std::string& var = "") {
  DeltaBatch batch;
  batch.Add({Value(fact)}, Interval(ts, te), p, var);
  return batch;
}

TEST(RetentionRebaseTest, CheckpointsStayLiveAfterRebase) {
  // A rebase shifts the advancer cursors; later in-order appends must keep
  // taking the O(delta) resume path, not degrade to resweeps.
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 1, 3, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("d", "a - b").value();

  ASSERT_TRUE(exec.Append("a", OneRow("milk", 4, 8, 0.5)).ok());
  ASSERT_TRUE(exec.Append("b", OneRow("milk", 5, 7, 0.6)).ok());

  // Retire everything at or below 4: b's seed tuple [1,3) and the windows
  // it shaped go away; the [4,8) tail survives.
  ASSERT_TRUE(exec.Retain("a", 4).ok());
  ASSERT_TRUE(exec.Retain("b", 4).ok());
  EXPECT_EQ(cq->effective_watermark(), 4);

  const std::string plan_before = ExplainContinuous(exec, "d").value();

  // Post-retention in-order appends at/after the frontier: all must resume.
  // (The frontier after a's append is 11 — the [8,11) window's end — so b's
  // append lands exactly on it.)
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 8, 11, 0.5)).ok());
  ASSERT_TRUE(exec.Append("b", OneRow("milk", 11, 13, 0.6)).ok());

  const std::string plan_after = ExplainContinuous(exec, "d").value();
  auto reswept_of = [](const std::string& plan) {
    const std::size_t at = plan.find("facts_reswept=");
    EXPECT_NE(at, std::string::npos) << plan;
    return plan.substr(at, plan.find(',', at) - at);
  };
  // The resweep counter did not move: both appends took the resume path
  // through the rebased checkpoint.
  EXPECT_EQ(reswept_of(plan_before), reswept_of(plan_after))
      << plan_before << plan_after;
  EXPECT_NE(plan_after.find("facts_resumed="), std::string::npos);

  Result<TpRelation> oneshot = exec.Execute("a - b");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(ClipAbove(cq->Current(), 4),
                                  ClipAbove(*oneshot, 4)));
}

TEST(RetentionRebaseTest, StraddlingWindowRetractsExactlyAfterRetention) {
  // The classic reopened-window case (r − s gains an s tuple inside an
  // emitted window) must still work when the emitted window straddles the
  // watermark and parts of the input prefix were retired: the resweep
  // retracts the exact stored straddler and re-derives its pieces.
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation r = MakeRelation(ctx, "r",
                              {{"milk", "r1", 0, 3, 0.5}, {"milk", "r2", 3, 20, 0.4}});
  TpRelation s = MakeRelation(ctx, "s", {});
  r.SortFactTime();
  ASSERT_TRUE(exec.Register(r).ok());
  ASSERT_TRUE(exec.Register(s).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("d", "r - s").value();
  EXPECT_EQ(cq->size(), 2u);  // [0,3), [3,20)

  Result<std::size_t> retired_r = exec.Retain("r", 5);
  ASSERT_TRUE(retired_r.ok());
  EXPECT_EQ(*retired_r, 1u);  // r1's [0,3) retired; [3,20) straddles
  ASSERT_TRUE(exec.Retain("s", 5).ok());
  EXPECT_EQ(cq->size(), 1u);  // the [0,3) output window was forgotten too

  EpochDelta got;
  cq->Subscribe([&](const EpochDelta& d) { got = d; });
  ASSERT_TRUE(exec.Append("s", OneRow("milk", 8, 12, 0.6)).ok());

  // The straddler [3,20) splits: exactly one retraction (the stored tuple,
  // verbatim) and three insertions.
  ASSERT_EQ(got.delta.retracted.size(), 1u);
  EXPECT_EQ(got.delta.retracted[0].t, Interval(3, 20));
  ASSERT_EQ(got.delta.inserted.size(), 3u);
  EXPECT_EQ(got.delta.inserted[0].t, Interval(3, 8));
  EXPECT_EQ(got.delta.inserted[1].t, Interval(8, 12));
  EXPECT_EQ(got.delta.inserted[2].t, Interval(12, 20));

  Result<TpRelation> oneshot = exec.Execute("r - s");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(ClipAbove(cq->Current(), 5),
                                  ClipAbove(*oneshot, 5)));
}

TEST(RetentionRebaseTest, RetentionBoundsResidentState) {
  // An unbounded stream with a sliding retention horizon must keep both the
  // stored relations and the operator state bounded.
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  for (const char* name : {"r", "s"}) {
    TpRelation rel(ctx, Schema::SingleInt("fact"), name);
    ASSERT_TRUE(exec.Register(rel).ok());
  }
  ContinuousQuery* cq = exec.RegisterContinuous("d", "r - s").value();

  const TimePoint kHorizon = 16;
  std::size_t max_resident = 0;
  std::size_t max_acc = 0;
  TimePoint clock = 0;
  for (int e = 0; e < 200; ++e) {
    DeltaBatch batch;
    batch.Add({Value(static_cast<std::int64_t>(0))}, Interval(clock, clock + 2),
              0.5);
    clock += 2;
    ASSERT_TRUE(exec.Append(e % 4 == 3 ? "s" : "r", batch).ok());
    if (e % 10 == 9 && clock > kHorizon) {
      ASSERT_TRUE(exec.Retain("r", clock - kHorizon).ok());
      ASSERT_TRUE(exec.Retain("s", clock - kHorizon).ok());
    }
    max_resident = std::max(max_resident,
                            exec.FindStored("r").value()->size() +
                                exec.FindStored("s").value()->size());
    max_acc = std::max(max_acc, cq->size());
  }
  // 200 epochs x 1 tuple appended; resident state must stay near the
  // horizon (plus the inter-retention build-up), far below the total.
  EXPECT_LT(max_resident, 50u);
  EXPECT_LT(max_acc, 50u);
  EXPECT_GT(exec.FindStored("r").value()->stats().tuples_retired, 100u);

  const TimePoint w = cq->effective_watermark();
  Result<TpRelation> oneshot = exec.Execute("r - s");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(
      RelationsEquivalent(ClipAbove(cq->Current(), w), ClipAbove(*oneshot, w)));
}

}  // namespace
}  // namespace tpset
