// TP set queries: parser, analyzer (Theorem 1 / Corollary 1), executor.
#include <gtest/gtest.h>

#include "lawa/set_ops.h"
#include "lineage/eval.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::SupermarketDb;

// ---- parser ----

TEST(QueryParserTest, SingleRelation) {
  Result<QueryPtr> q = ParseQuery("a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind, QueryNode::Kind::kRelation);
  EXPECT_EQ((*q)->relation_name, "a");
}

TEST(QueryParserTest, PrecedenceIntersectOverUnion) {
  Result<QueryPtr> q = ParseQuery("a | b & c");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, SetOpKind::kUnion);
  EXPECT_EQ((*q)->right->op, SetOpKind::kIntersect);
  EXPECT_EQ(QueryToString(**q), "a | b & c");
}

TEST(QueryParserTest, LeftAssociativityOfUnionExcept) {
  Result<QueryPtr> q = ParseQuery("a - b | c");
  ASSERT_TRUE(q.ok());
  // ((a - b) | c)
  EXPECT_EQ((*q)->op, SetOpKind::kUnion);
  EXPECT_EQ((*q)->left->op, SetOpKind::kExcept);
}

TEST(QueryParserTest, Parentheses) {
  Result<QueryPtr> q = ParseQuery("c - (a | b)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, SetOpKind::kExcept);
  EXPECT_EQ((*q)->right->op, SetOpKind::kUnion);
  EXPECT_EQ(QueryToString(**q), "c - (a | b)");
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("a |").ok());
  EXPECT_FALSE(ParseQuery("(a | b").ok());
  EXPECT_FALSE(ParseQuery("a b").ok());
  EXPECT_FALSE(ParseQuery("| a").ok());
}

// ---- analyzer ----

TEST(QueryAnalyzerTest, NonRepeatingDetection) {
  EXPECT_TRUE(IsNonRepeating(**ParseQuery("c - (a | b)")));
  EXPECT_TRUE(IsNonRepeating(**ParseQuery("a")));
  // The paper's #P-hard example: (r1 ∪ r2) − (r1 ∩ r3).
  EXPECT_FALSE(IsNonRepeating(**ParseQuery("(r1 | r2) - (r1 & r3)")));
}

TEST(QueryAnalyzerTest, RecommendedMethod) {
  EXPECT_EQ(RecommendedMethod(**ParseQuery("c - (a | b)")),
            ProbabilityMethod::kReadOnce);
  EXPECT_EQ(RecommendedMethod(**ParseQuery("(r1 | r2) - (r1 & r3)")),
            ProbabilityMethod::kExact);
}

TEST(QueryAnalyzerTest, ReferencedRelationsAndOperatorCount) {
  QueryPtr q = std::move(ParseQuery("(a | b) & (c - d)")).value();
  EXPECT_EQ(ReferencedRelations(*q),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(OperatorCount(*q), 3u);
  EXPECT_EQ(OperatorCount(**ParseQuery("a")), 0u);
}

// ---- executor ----

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(db_.ctx) {
    EXPECT_TRUE(exec_.Register(db_.a).ok());
    EXPECT_TRUE(exec_.Register(db_.b).ok());
    EXPECT_TRUE(exec_.Register(db_.c).ok());
  }
  SupermarketDb db_;
  QueryExecutor exec_;
};

TEST_F(ExecutorTest, ExecutesPaperQuery) {
  Result<TpRelation> q = exec_.Execute("c - (a | b)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TpRelation expected = LawaExcept(db_.c, LawaUnion(db_.a, db_.b));
  EXPECT_TRUE(RelationsEquivalent(expected, *q));
  EXPECT_EQ(q->size(), 5u);  // Fig. 1c
}

TEST_F(ExecutorTest, SingleRelationQueryReturnsCopy) {
  Result<TpRelation> q = exec_.Execute("a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->size(), db_.a.size());
}

TEST_F(ExecutorTest, UnknownRelation) {
  Result<TpRelation> q = exec_.Execute("a | nope");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, AlgorithmCapabilityIsEnforced) {
  // TPDB cannot run set difference.
  Result<TpRelation> q = exec_.Execute("c - a", FindAlgorithm("TPDB"));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotSupported);
  // But it can run the union/intersection parts.
  Result<TpRelation> u = exec_.Execute("a | c", FindAlgorithm("TPDB"));
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(RelationsEquivalent(LawaUnion(db_.a, db_.c), *u));
}

// An operator the algorithm cannot compute fails the query before any work
// in every execution mode — the lineage arena does not grow — and the failed
// call still counts exactly once as an executed query.
TEST_F(ExecutorTest, UnsupportedOperatorFailsBeforeAnyWorkInEveryMode) {
  const SetOpAlgorithm* tpdb = FindAlgorithm("TPDB");
  ASSERT_NE(tpdb, nullptr);
  const obs::Counter& queries = obs::MetricsRegistry::Global().GetCounter(
      "tpset_exec_queries_total", "queries executed (top-level Execute calls)");
#ifdef TPSET_OBS_DISABLED
  constexpr std::uint64_t kCounted = 0;  // recording compiled out
#else
  constexpr std::uint64_t kCounted = 1;
#endif
  struct Mode {
    const char* name;
    std::size_t threads;
    bool profiled;
  };
  for (const Mode& mode : {Mode{"t1", 1, false}, Mode{"t1+profile", 1, true},
                           Mode{"t4", 4, false}}) {
    SCOPED_TRACE(mode.name);
    obs::QueryProfile profile;
    ExecOptions options;
    options.num_threads = mode.threads;
    if (mode.profiled) options.profile = &profile;
    const std::size_t arena_before = db_.ctx->lineage().size();
    const std::uint64_t queries_before = queries.Value();
    Result<TpRelation> q = exec_.Execute("(a & c) | (c - a)", options, tpdb);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kNotSupported);
    EXPECT_EQ(db_.ctx->lineage().size(), arena_before);
    EXPECT_EQ(queries.Value() - queries_before, kCounted);
  }
}

// The executor publishes the lineage arena after each Execute that ran a
// set operation and after each Append epoch: the gauges mirror the arena,
// and the counters advance by exactly the lookups since the last publish.
TEST_F(ExecutorTest, PublishesLineageArenaMetrics) {
#ifdef TPSET_OBS_DISABLED
  GTEST_SKIP() << "recording compiled out";
#endif
  ASSERT_TRUE(exec_.Execute("c - (a | b)").ok());  // registers the family
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Gauge& nodes = registry.GetGauge("tpset_lineage_nodes", "");
  const obs::Gauge& bytes = registry.GetGauge("tpset_lineage_index_bytes", "");
  const obs::Gauge& node_bytes =
      registry.GetGauge("tpset_lineage_node_bytes", "");
  const obs::Counter& lookups =
      registry.GetCounter("tpset_lineage_intern_lookups_total", "");
  const obs::Counter& hits =
      registry.GetCounter("tpset_lineage_intern_hits_total", "");
  LineageManager& lineage = db_.ctx->lineage();
  EXPECT_EQ(nodes.Value(), static_cast<std::int64_t>(lineage.size()));
  EXPECT_EQ(bytes.Value(), static_cast<std::int64_t>(lineage.index_bytes()));
  EXPECT_EQ(node_bytes.Value(),
            static_cast<std::int64_t>(lineage.node_bytes()));
  EXPECT_GE(lineage.node_bytes(), lineage.size() * sizeof(LineageNode));

  // A repeat interns nothing new: every lookup hits.
  std::uint64_t lookups0 = lookups.Value();
  std::uint64_t hits0 = hits.Value();
  ASSERT_TRUE(exec_.Execute("c - (a | b)").ok());
  EXPECT_GT(lookups.Value(), lookups0);
  EXPECT_EQ(lookups.Value() - lookups0, hits.Value() - hits0);

  // A bare-relation query writes nothing and publishes nothing; the next
  // epoch publishes both the write made meanwhile and its own MakeVar.
  const std::int64_t published = nodes.Value();
  lineage.MakeVar(db_.ctx->vars().Add(0.5));
  ASSERT_TRUE(exec_.Execute("a").ok());
  EXPECT_EQ(nodes.Value(), published);
  lookups0 = lookups.Value();
  hits0 = hits.Value();
  DeltaBatch batch;
  batch.Add({Value(std::string("milk"))}, Interval(100, 104), 0.5);
  ASSERT_TRUE(exec_.Append("a", batch).ok());
  EXPECT_EQ(nodes.Value(), published + 2);
  EXPECT_EQ(nodes.Value(), static_cast<std::int64_t>(lineage.size()));
  EXPECT_EQ(bytes.Value(), static_cast<std::int64_t>(lineage.index_bytes()));
  EXPECT_EQ(node_bytes.Value(),
            static_cast<std::int64_t>(lineage.node_bytes()));
  EXPECT_EQ(lookups.Value() - lookups0, 2u);
  EXPECT_EQ(hits.Value() - hits0, 0u);
}

TEST_F(ExecutorTest, AllBackendsAgreeOnIntersection) {
  TpRelation expected = LawaIntersect(db_.a, db_.c);
  for (const char* name : {"NORM", "TPDB", "OIP", "TI"}) {
    Result<TpRelation> q = exec_.Execute("a & c", FindAlgorithm(name));
    ASSERT_TRUE(q.ok()) << name;
    EXPECT_TRUE(RelationsEquivalent(expected, *q)) << name;
  }
}

TEST_F(ExecutorTest, RegistrationValidation) {
  // Unnamed relations are rejected.
  TpRelation unnamed(db_.ctx, Schema::SingleString("Product"), "");
  EXPECT_FALSE(exec_.Register(unnamed).ok());
  // Duplicate names are rejected.
  EXPECT_FALSE(exec_.Register(db_.a).ok());
  // Foreign context rejected.
  auto other = std::make_shared<TpContext>();
  TpRelation foreign(other, Schema::SingleString("Product"), "foreign");
  EXPECT_FALSE(exec_.Register(foreign).ok());
  // Non-duplicate-free relations are rejected.
  TpRelation dup(db_.ctx, Schema::SingleString("Product"), "dup");
  ASSERT_TRUE(dup.AddBase({Value(std::string("x"))}, Interval(0, 5), 0.5).ok());
  ASSERT_TRUE(dup.AddBase({Value(std::string("x"))}, Interval(3, 8), 0.5).ok());
  EXPECT_FALSE(exec_.Register(dup).ok());
}

// ---- Theorem 1 / Corollary 1 over nested queries ----

TEST_F(ExecutorTest, Theorem1NonRepeatingYields1OF) {
  const char* queries[] = {"c - (a | b)", "(a & c) | b", "a - b", "(a | b) | c",
                           "a & b & c"};
  LineageManager& mgr = db_.ctx->lineage();
  for (const char* text : queries) {
    QueryPtr q = std::move(ParseQuery(text)).value();
    ASSERT_TRUE(IsNonRepeating(*q)) << text;
    Result<TpRelation> out = exec_.Execute(*q);
    ASSERT_TRUE(out.ok()) << text;
    for (std::size_t i = 0; i < out->size(); ++i) {
      EXPECT_TRUE(mgr.IsReadOnce((*out)[i].lineage))
          << text << " tuple " << i << ": " << out->LineageString(i);
      // Corollary 1: the linear-time valuation is exact.
      EXPECT_NEAR(out->TupleProbability(i, ProbabilityMethod::kReadOnce),
                  out->TupleProbability(i, ProbabilityMethod::kExact), 1e-9);
    }
  }
}

TEST_F(ExecutorTest, RepeatingQueryMayViolate1OF) {
  // (a | b) - (a & c): 'a' repeats; some lineage mentions a tuple of a twice.
  QueryPtr q = std::move(ParseQuery("(a | b) - (a & c)")).value();
  ASSERT_FALSE(IsNonRepeating(*q));
  Result<TpRelation> out = exec_.Execute(*q);
  ASSERT_TRUE(out.ok());
  LineageManager& mgr = db_.ctx->lineage();
  bool some_not_read_once = false;
  for (std::size_t i = 0; i < out->size(); ++i) {
    if (!mgr.IsReadOnce((*out)[i].lineage)) some_not_read_once = true;
  }
  EXPECT_TRUE(some_not_read_once);
  // The Shannon valuation still works and stays within [0,1].
  for (std::size_t i = 0; i < out->size(); ++i) {
    double p = out->TupleProbability(i, ProbabilityMethod::kExact);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(ExecutorTest, RepeatingQueryExactMatchesMonteCarlo) {
  Result<TpRelation> out = exec_.Execute("(a | c) - (a & c)");
  ASSERT_TRUE(out.ok());
  Rng rng(99);
  for (std::size_t i = 0; i < out->size(); ++i) {
    double exact = out->TupleProbability(i, ProbabilityMethod::kExact);
    double mc =
        out->TupleProbability(i, ProbabilityMethod::kMonteCarlo, 100000, &rng);
    EXPECT_NEAR(exact, mc, 0.015) << out->LineageString(i);
  }
}

}  // namespace
}  // namespace tpset
