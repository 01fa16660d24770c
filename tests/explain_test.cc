// EXPLAIN output for TP set queries.
#include <gtest/gtest.h>

#include "incremental/continuous_query.h"
#include "query/explain.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::SupermarketDb;

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : exec_(db_.ctx) {
    EXPECT_TRUE(exec_.Register(db_.a).ok());
    EXPECT_TRUE(exec_.Register(db_.b).ok());
    EXPECT_TRUE(exec_.Register(db_.c).ok());
  }
  SupermarketDb db_;
  QueryExecutor exec_;
};

TEST_F(ExplainTest, AnnotatesCardinalitiesAndWindows) {
  Result<std::string> plan = ExplainQuery(exec_, "c - (a | b)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = *plan;
  EXPECT_NE(text.find("query: c - (a | b)"), std::string::npos) << text;
  EXPECT_NE(text.find("relation c  [4 tuples]"), std::string::npos) << text;
  EXPECT_NE(text.find("relation a  [3 tuples]"), std::string::npos) << text;
  EXPECT_NE(text.find("relation b  [2 tuples]"), std::string::npos) << text;
  // The final answer has 5 tuples (Fig. 1c).
  EXPECT_NE(text.find("except  [out=5"), std::string::npos) << text;
  EXPECT_NE(text.find("union  [out="), std::string::npos) << text;
  EXPECT_NE(text.find("non-repeating: yes"), std::string::npos) << text;
  EXPECT_NE(text.find("read-once"), std::string::npos) << text;
}

TEST_F(ExplainTest, FlagsRepeatingQueries) {
  Result<std::string> plan = ExplainQuery(exec_, "(a | b) - (a & c)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("non-repeating: no"), std::string::npos);
  EXPECT_NE(plan->find("Shannon"), std::string::npos);
}

TEST_F(ExplainTest, WindowCountsRespectBound) {
  Result<std::string> plan = ExplainQuery(exec_, "a & c");
  ASSERT_TRUE(plan.ok());
  // windows=X/Y(bound) with X <= Y; extract and compare.
  std::size_t pos = plan->find("windows=");
  ASSERT_NE(pos, std::string::npos);
  std::size_t slash = plan->find('/', pos);
  ASSERT_NE(slash, std::string::npos);
  int windows = std::stoi(plan->substr(pos + 8, slash - pos - 8));
  int bound = std::stoi(plan->substr(slash + 1));
  EXPECT_LE(windows, bound);
  EXPECT_GT(windows, 0);
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(ExplainQuery(exec_, "a & nope").ok());
  EXPECT_FALSE(ExplainQuery(exec_, "a &").ok());
}

TEST_F(ExplainTest, ParallelOptionsAnnotatePhaseTimings) {
  ExecOptions options;
  options.num_threads = 4;
  Result<std::string> plan = ExplainQuery(exec_, "c - (a | b)", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = *plan;
  EXPECT_NE(text.find("parallel: threads=4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("sort="), std::string::npos) << text;
  EXPECT_NE(text.find("split="), std::string::npos) << text;
  std::size_t advance_pos = text.find("advance=");
  ASSERT_NE(advance_pos, std::string::npos) << text;
  EXPECT_NE(text.find("apply=", advance_pos), std::string::npos) << text;
  EXPECT_NE(text.find("except  [out=5"), std::string::npos) << text;

  // num_threads <= 1 falls back to the plain sequential explain.
  options.num_threads = 1;
  Result<std::string> seq = ExplainQuery(exec_, "c - (a | b)", options);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->find("parallel:"), std::string::npos);
}

// Sequential explains carry the same sections as parallel ones (only the
// "parallel:" config header differs): per-node phase walls and scheduler
// counters come from the shared span recorder, not a parallel-only path.
TEST_F(ExplainTest, SequentialExplainCarriesPhaseSections) {
  Result<std::string> plan = ExplainQuery(exec_, "c - (a | b)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = *plan;
  EXPECT_EQ(text.find("parallel:"), std::string::npos) << text;
  for (const char* section :
       {"sort=", "split=", "advance=", "apply=", "morsels=", "windows=",
        "out=", "sweep=", "intern=", "materialize="}) {
    EXPECT_NE(text.find(section), std::string::npos)
        << "missing " << section << " in:\n" << text;
  }
}

// The rendered text is a pure function of the recorded QueryProfile: the
// plan section re-rendered from the caller-owned span tree is byte-for-byte
// the one in the returned explain, sequentially and in parallel.
TEST_F(ExplainTest, RendersFromQueryProfile) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions options;
    options.num_threads = threads;
    obs::QueryProfile profile("explain");
    Result<QueryPtr> parsed = ParseQuery("c - (a | b)");
    ASSERT_TRUE(parsed.ok());
    Result<std::string> plan = ExplainQuery(exec_, **parsed, options, &profile);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string replay = RenderExplainPlan(profile.root());
    EXPECT_FALSE(replay.empty());
    EXPECT_NE(plan->find(replay), std::string::npos)
        << "plan text:\n" << *plan << "\nreplay from profile:\n" << replay;
    // The profile carries the engine counters the text was rendered from.
    const obs::Span* node = profile.root().FindChild("except");
    ASSERT_NE(node, nullptr);
    EXPECT_TRUE(node->has_stats);
    EXPECT_EQ(node->Attr("out"), "5");
  }
}

// ExplainContinuous appends the last epoch's propagation span tree once an
// epoch has been applied.
TEST_F(ExplainTest, ContinuousExplainCarriesLastEpochProfile) {
  ContinuousOptions copt;
  Result<ContinuousQuery*> cq = exec_.RegisterContinuous("w", "a - b", copt);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  Result<std::string> before = ExplainContinuous(exec_, "w");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->find("last epoch:"), std::string::npos) << *before;

  DeltaBatch batch;
  batch.Add(Fact{Value(std::string("milk"))}, Interval(11, 15), 0.5);
  Result<EpochId> epoch = exec_.Append("a", batch);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  Result<std::string> after = ExplainContinuous(exec_, "w");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("last epoch:"), std::string::npos) << *after;
  // The appended section is the live profile's render, verbatim.
  EXPECT_NE(after->find((*cq)->last_profile().Render()), std::string::npos)
      << *after;
}

}  // namespace
}  // namespace tpset
