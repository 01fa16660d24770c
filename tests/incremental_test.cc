// Unit tests of the incremental continuous-query subsystem: append
// validation, epoch ordering, retraction emission, per-fact resume vs
// resweep, plan deduplication and the explain surface.
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "incremental/append_log.h"
#include "incremental/continuous_query.h"
#include "query/executor.h"
#include "query/explain.h"
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;
using testing::SupermarketDb;

DeltaBatch OneRow(const std::string& fact, TimePoint ts, TimePoint te, double p,
                  const std::string& var = "") {
  DeltaBatch batch;
  batch.Add({Value(fact)}, Interval(ts, te), p, var);
  return batch;
}

// ---- AppendLog validation --------------------------------------------------

TEST(AppendLogTest, RejectsAppendBeforeFactTail) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 2, 10, 0.3}});
  a.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());

  // Overlapping the stored tail is out of fact-time order.
  Result<EpochId> bad = exec.Append("a", OneRow("milk", 5, 12, 0.5));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Adjacent (start == tail end) is fine; another fact at any time is fine.
  EXPECT_TRUE(exec.Append("a", OneRow("milk", 10, 12, 0.5)).ok());
  EXPECT_TRUE(exec.Append("a", OneRow("chips", 1, 3, 0.5)).ok());
}

TEST(AppendLogTest, RejectsOverlapWithinBatch) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 2, 4, 0.3}});
  a.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());

  DeltaBatch batch;
  batch.Add({Value(std::string("milk"))}, Interval(5, 9), 0.5);
  batch.Add({Value(std::string("milk"))}, Interval(7, 8), 0.5);
  EXPECT_FALSE(exec.Append("a", batch).ok());
  // The failed batch must not have touched the relation.
  EXPECT_EQ(exec.Find("a").value()->size(), 1u);
}

TEST(AppendLogTest, RejectsBadRowsWithoutSideEffects) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 2, 4, 0.3}});
  a.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());

  EXPECT_FALSE(exec.Append("a", OneRow("milk", 9, 9, 0.5)).ok());   // empty iv
  EXPECT_FALSE(exec.Append("a", OneRow("milk", 9, 12, 1.5)).ok());  // bad p
  EXPECT_FALSE(exec.Append("a", OneRow("milk", 9, 12, 0.5, "a1")).ok());  // dup var
  EXPECT_FALSE(exec.Append("nope", OneRow("milk", 9, 12, 0.5)).ok());
  const std::size_t vars_before = ctx->vars().size();
  DeltaBatch dup_in_batch;
  dup_in_batch.Add({Value(std::string("milk"))}, Interval(9, 10), 0.5, "z1");
  dup_in_batch.Add({Value(std::string("milk"))}, Interval(10, 11), 0.5, "z1");
  EXPECT_FALSE(exec.Append("a", dup_in_batch).ok());
  EXPECT_EQ(ctx->vars().size(), vars_before);  // no variable leaked
  EXPECT_EQ(exec.last_epoch(), 0u);
}

TEST(AppendLogTest, MergeKeepsOrderWitnessAndOneShotExecution) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b, &db.c}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  // "chips" sorts before "milk" in insertion (interning) order? Either way,
  // appending a fact that is not the maximal FactId forces a mid-vector
  // merge; the witness and duplicate-freeness must survive.
  ASSERT_TRUE(exec.Append("c", OneRow("milk", 9, 12, 0.4, "c5")).ok());
  ASSERT_TRUE(exec.Append("c", OneRow("dates", 2, 5, 0.9, "c6")).ok());
  const std::shared_ptr<const TpRelation> c = exec.Find("c").value();
  EXPECT_EQ(c->size(), 6u);
  EXPECT_TRUE(c->known_sorted());
  EXPECT_TRUE(c->IsSortedFactTime());

  Result<TpRelation> ans = exec.Execute("c - (a | b)");
  ASSERT_TRUE(ans.ok());
  EXPECT_GT(ans->size(), 0u);
}

TEST(AppendLogTest, EpochsAreMonotoneAcrossRelations) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  EpochId e1 = exec.Append("a", OneRow("milk", 10, 12, 0.5)).value();
  EpochId e2 = exec.Append("b", OneRow("milk", 9, 11, 0.5)).value();
  EpochId e3 = exec.Append("a", OneRow("milk", 13, 14, 0.5)).value();
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  EXPECT_EQ(exec.last_epoch(), e3);
}

// ---- Continuous queries ----------------------------------------------------

TEST(ContinuousQueryTest, InitialComputationMatchesOneShot) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b, &db.c}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  Result<ContinuousQuery*> cq = exec.RegisterContinuous("q", "c - (a | b)");
  ASSERT_TRUE(cq.ok());
  Result<TpRelation> oneshot = exec.Execute("c - (a | b)");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent((*cq)->Current(), *oneshot));
}

TEST(ContinuousQueryTest, EpochOrderingAndScopedDelivery) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b, &db.c}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  ContinuousQuery* on_ab = exec.RegisterContinuous("ab", "a | b").value();
  ContinuousQuery* on_c = exec.RegisterContinuous("conly", "c").value();

  std::vector<EpochId> ab_epochs, c_epochs;
  on_ab->Subscribe([&](const EpochDelta& d) { ab_epochs.push_back(d.epoch); });
  on_c->Subscribe([&](const EpochDelta& d) { c_epochs.push_back(d.epoch); });

  EpochId e1 = exec.Append("a", OneRow("milk", 10, 12, 0.5)).value();
  EpochId e2 = exec.Append("c", OneRow("milk", 9, 12, 0.4)).value();
  EpochId e3 = exec.Append("b", OneRow("chips", 6, 8, 0.5)).value();

  // Each query sees exactly the epochs of relations it reads, in order.
  EXPECT_EQ(ab_epochs, (std::vector<EpochId>{e1, e3}));
  EXPECT_EQ(c_epochs, (std::vector<EpochId>{e2}));
  EXPECT_EQ(on_ab->last_epoch(), e3);
  EXPECT_EQ(on_c->last_epoch(), e2);
}

// An append to a relation no query reads still advances every query's log
// epoch and subscriber lag, and delivers nothing.
TEST(ContinuousQueryTest, UnreadAppendAdvancesLagWithoutDelivery) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b, &db.c}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  ContinuousQuery* on_a = exec.RegisterContinuous("aonly", "a").value();
  ContinuousQuery* on_b = exec.RegisterContinuous("bonly", "b").value();
  std::size_t delivered = 0;
  on_a->Subscribe([&](const EpochDelta&) { ++delivered; });
  on_b->Subscribe([&](const EpochDelta&) { ++delivered; });

  const EpochId e1 = exec.Append("c", OneRow("milk", 9, 12, 0.4)).value();
  const EpochId e2 = exec.Append("c", OneRow("milk", 12, 13, 0.4)).value();
  EXPECT_EQ(delivered, 0u);
  for (ContinuousQuery* cq : {on_a, on_b}) {
    EXPECT_EQ(cq->log_epoch(), e2);
    EXPECT_EQ(cq->epochs_applied(), 0u);
    const std::vector<ContinuousQuery::SubscriberInfo> infos =
        cq->SubscriberInfos();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].last_delivered, 0u);
    EXPECT_EQ(infos[0].lag, e2);
  }
  EXPECT_EQ(e2, e1 + 1);
  Result<std::shared_ptr<const TpRelation>> c = exec.Find("c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->size(), 6u) << "the unread relation still took the rows";
}

TEST(ContinuousQueryTest, WatchOnPlainRelationStreamsAppends) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  db.a.SortFactTime();
  ASSERT_TRUE(exec.Register(db.a).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("w", "a").value();
  TupleDelta last;
  cq->Subscribe([&](const EpochDelta& d) { last = d.delta; });
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 10, 12, 0.5)).ok());
  ASSERT_EQ(last.inserted.size(), 1u);
  EXPECT_TRUE(last.retracted.empty());
  EXPECT_EQ(last.inserted[0].t, Interval(10, 12));
  EXPECT_EQ(cq->size(), 4u);
}

TEST(ContinuousQueryTest, FrontierStraddleEmitsRetractions) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 10, 0.5}});
  TpRelation b(ctx, Schema::SingleString("Product"), "b");
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());

  ContinuousQuery* cq = exec.RegisterContinuous("diff", "a - b").value();
  EXPECT_EQ(cq->size(), 1u);  // [0,10) with lineage a1

  EpochDelta got;
  cq->Subscribe([&](const EpochDelta& d) { got = d; });

  // b gains [2,4): valid for b (its timeline was empty) but before the
  // except node's frontier (10) — the open answer window [0,10) must be
  // retracted and replaced by the split windows around the b tuple.
  ASSERT_TRUE(exec.Append("b", OneRow("milk", 2, 4, 0.6, "b1")).ok());

  ASSERT_EQ(got.delta.retracted.size(), 1u);
  EXPECT_EQ(got.delta.retracted[0].t, Interval(0, 10));
  ASSERT_EQ(got.delta.inserted.size(), 3u);
  EXPECT_EQ(got.delta.inserted[0].t, Interval(0, 2));
  EXPECT_EQ(got.delta.inserted[1].t, Interval(2, 4));
  EXPECT_EQ(got.delta.inserted[2].t, Interval(4, 10));
  // The reopened window carries the ¬b lineage.
  const LineageManager& mgr = ctx->lineage();
  EXPECT_EQ(mgr.ToString(got.delta.inserted[1].lineage, ctx->vars(), true),
            "a1&!b1");
  EXPECT_EQ(cq->size(), 3u);

  Result<TpRelation> oneshot = exec.Execute("a - b");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(cq->Current(), *oneshot));
}

TEST(ContinuousQueryTest, InOrderAppendsResumeWithoutRetraction) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 2, 6, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("u", "a | b").value();

  std::size_t retractions = 0;
  cq->Subscribe([&](const EpochDelta& d) {
    retractions += d.delta.retracted.size();
  });
  // Appends always at/after the union's frontier (last window te = 6).
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 6, 9, 0.5)).ok());
  ASSERT_TRUE(exec.Append("b", OneRow("milk", 9, 12, 0.6)).ok());
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 12, 13, 0.5)).ok());
  EXPECT_EQ(retractions, 0u);

  std::string plan = ExplainContinuous(exec, "u").value();
  // Initial build resumes the fresh fact; three delta epochs resume too.
  EXPECT_NE(plan.find("epochs_applied=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("facts_resumed=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("facts_reswept=0"), std::string::npos) << plan;

  Result<TpRelation> oneshot = exec.Execute("a | b");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(cq->Current(), *oneshot));
}

TEST(ContinuousQueryTest, IntersectEarlyStopThenLateAppendResumes) {
  // ∩Tp stops sweeping a fact once one side drains; its frontier can sit
  // far behind the other side's timeline. An append on the drained side at
  // or after the frontier must resume, not resweep — and produce exactly
  // the from-scratch answer.
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 30, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 0, 2, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("i", "a & b").value();
  EXPECT_EQ(cq->size(), 1u);  // [0,2)

  EpochDelta got;
  cq->Subscribe([&](const EpochDelta& d) { got = d; });
  // Frontier after the initial sweep is 2 (the last window's end); b's
  // append at [10,20) is past it — pure insert.
  ASSERT_TRUE(exec.Append("b", OneRow("milk", 10, 20, 0.6, "b2")).ok());
  EXPECT_TRUE(got.delta.retracted.empty());
  ASSERT_EQ(got.delta.inserted.size(), 1u);
  EXPECT_EQ(got.delta.inserted[0].t, Interval(10, 20));

  std::string plan = ExplainContinuous(exec, "i").value();
  EXPECT_NE(plan.find("facts_reswept=0"), std::string::npos) << plan;

  Result<TpRelation> oneshot = exec.Execute("a & b");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(cq->Current(), *oneshot));
}

TEST(ContinuousQueryTest, BulkInOrderAppendsResumeOnTheFusedKernel) {
  // A resume whose unswept suffix reaches kColumnarAutoThreshold tuples runs
  // the fused kernel, which restores the fact's checkpoint — cursors into
  // the old prefix — on the full grown side arrays. Two bulk epochs, one
  // per side, must each resume on the fused kernel and leave every
  // operator's Current() equal to a from-scratch Execute.
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 2, 6, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());
  const std::vector<std::string> queries = {"a | b", "a - b", "a & b"};
  std::vector<ContinuousQuery*> cqs;
  for (const std::string& q : queries) {
    cqs.push_back(exec.RegisterContinuous(q, q).value());
  }

  // Each batch starts past every frontier, so both epochs resume.
  auto chain = [](TimePoint start, std::size_t rows) {
    DeltaBatch batch;
    for (std::size_t k = 0; k < rows; ++k) {
      const TimePoint ts = start + 3 * static_cast<TimePoint>(k);
      batch.Add({Value(std::string("milk"))}, Interval(ts, ts + 2), 0.5);
    }
    return batch;
  };
  const std::size_t rows = kColumnarAutoThreshold + 6;
  for (const auto& [relation, start] :
       {std::make_pair("a", TimePoint{10}), std::make_pair("b", TimePoint{400})}) {
    ASSERT_TRUE(exec.Append(relation, chain(start, rows)).ok());
    for (std::size_t i = 0; i < cqs.size(); ++i) {
      SCOPED_TRACE(queries[i] + " after appending to " + relation);
      const obs::Span& epoch = cqs[i]->last_profile().root();
      ASSERT_EQ(epoch.children.size(), 1u);
      EXPECT_EQ(epoch.children[0]->stats.facts_resumed, 1u);
      EXPECT_EQ(epoch.children[0]->stats.facts_reswept, 0u);
      EXPECT_EQ(epoch.children[0]->stats.sweeps_columnar, 1u);
    }
  }
  for (std::size_t i = 0; i < cqs.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    Result<TpRelation> oneshot = exec.Execute(queries[i]);
    ASSERT_TRUE(oneshot.ok());
    EXPECT_TRUE(RelationsEquivalent(cqs[i]->Current(), *oneshot));
  }
}

TEST(ContinuousQueryTest, SharedSubtreesCollapseIntoDag) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  // (a | b) - (a | b): the union subtree must be compiled once.
  QueryPtr q = QueryNode::SetOp(
      SetOpKind::kExcept,
      QueryNode::SetOp(SetOpKind::kUnion, QueryNode::Relation("a"),
                       QueryNode::Relation("b")),
      QueryNode::SetOp(SetOpKind::kUnion, QueryNode::Relation("a"),
                       QueryNode::Relation("b")));
  ContinuousQuery* cq = exec.RegisterContinuous("dag", *q).value();
  // The shared union subtree is deduplicated into one plan node.
  std::string plan = ExplainContinuous(exec, "dag").value();
  EXPECT_NE(plan.find("shared node"), std::string::npos) << plan;
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 10, 12, 0.5)).ok());
  Result<TpRelation> oneshot = exec.Execute(*q);
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(cq->Current(), *oneshot));
}

TEST(ContinuousQueryTest, RegistrationErrors) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  db.a.SortFactTime();
  ASSERT_TRUE(exec.Register(db.a).ok());
  EXPECT_FALSE(exec.RegisterContinuous("", "a").ok());
  EXPECT_FALSE(exec.RegisterContinuous("q", "a | missing").ok());
  EXPECT_TRUE(exec.RegisterContinuous("q", "a").ok());
  EXPECT_FALSE(exec.RegisterContinuous("q", "a").ok());  // duplicate name
  EXPECT_FALSE(exec.FindContinuous("other").ok());
  EXPECT_TRUE(exec.FindContinuous("q").ok());
}

TEST(ContinuousQueryTest, UnsubscribeStopsDelivery) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  db.a.SortFactTime();
  ASSERT_TRUE(exec.Register(db.a).ok());
  ContinuousQuery* cq = exec.RegisterContinuous("q", "a").value();
  int calls = 0;
  ContinuousQuery::SubscriptionId id =
      cq->Subscribe([&](const EpochDelta&) { ++calls; });
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 10, 12, 0.5)).ok());
  cq->Unsubscribe(id);
  ASSERT_TRUE(exec.Append("a", OneRow("milk", 12, 14, 0.5)).ok());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tpset
