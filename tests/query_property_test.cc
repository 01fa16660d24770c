// Randomized property tests over *nested* TP set queries: random query
// trees executed by the LAWA-backed executor are compared against the same
// tree evaluated with the literal per-time-point reference operator, and
// the §V-B tractability results are checked on whole query trees.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "lineage/eval.h"
#include "obs/profile.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "relation/snapshot.h"
#include "relation/validate.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// Evaluates a query tree with the reference evaluator (test oracle).
TpRelation ReferenceEvaluate(const QueryExecutor& exec, const QueryNode& q) {
  if (q.kind == QueryNode::Kind::kRelation) {
    return **exec.Find(q.relation_name);
  }
  TpRelation left = ReferenceEvaluate(exec, *q.left);
  TpRelation right = ReferenceEvaluate(exec, *q.right);
  return ReferenceSetOp(q.op, left, right);
}

// Builds a random query tree over relation names; with `non_repeating`,
// each name is used at most once (consuming from the pool).
QueryPtr RandomTree(Rng* rng, std::vector<std::string>* pool, int depth,
                    bool non_repeating) {
  bool leaf = pool->empty() || depth <= 0 || rng->Bernoulli(0.35);
  if (leaf) {
    if (pool->empty()) return nullptr;
    std::size_t pick = rng->Below(pool->size());
    std::string name = (*pool)[pick];
    if (non_repeating) {
      (*pool)[pick] = pool->back();
      pool->pop_back();
    }
    return QueryNode::Relation(name);
  }
  QueryPtr left = RandomTree(rng, pool, depth - 1, non_repeating);
  QueryPtr right = RandomTree(rng, pool, depth - 1, non_repeating);
  if (!left || !right) return left ? std::move(left) : std::move(right);
  SetOpKind op = static_cast<SetOpKind>(rng->Below(3));
  return QueryNode::SetOp(op, std::move(left), std::move(right));
}

class QueryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // The parameter seed, unless LAWA_TEST_SEED overrides it (the failing
  // seed is in the test name; the override reproduces it directly).
  std::uint64_t Seed() const { return testing::PropertySeeds({GetParam()})[0]; }

  void SetUp() override {
    ctx_ = std::make_shared<TpContext>();
    exec_ = std::make_unique<QueryExecutor>(ctx_);
    Rng rng(Seed());
    for (int i = 0; i < 5; ++i) {
      SyntheticSpec spec;
      spec.num_tuples = 30 + rng.Below(40);
      spec.num_facts = 1 + rng.Below(4);
      spec.max_interval_length = 1 + static_cast<TimePoint>(rng.Below(8));
      spec.max_time_distance = static_cast<TimePoint>(rng.Below(4));
      std::string name = "rel" + std::to_string(i);
      TpRelation rel = GenerateSynthetic(ctx_, spec, name, &rng);
      ASSERT_TRUE(exec_->Register(rel).ok());
      names_.push_back(name);
    }
  }

  std::shared_ptr<TpContext> ctx_;
  std::unique_ptr<QueryExecutor> exec_;
  std::vector<std::string> names_;
};

// Random trees, plus fixed shapes — a bare relation (its answer is the one
// leaf copy left on the read path) and self-aliased leaves (both operands
// borrow one shared relation) — match the reference. Execution mode is one
// more input that must not change the answer: every tree run at {t1, t4} x
// {no profile, profile} is bit-identical to the unprofiled t1 run — same
// tuples, same lineage ids (hash-consing hands re-executions the same
// nodes), same name.
TEST_P(QueryPropertyTest, LawaMatchesReferenceOnNestedQueries) {
  Rng rng(Seed() ^ 0x9999);
  std::vector<QueryPtr> trees;
  for (const char* text : {"rel0", "rel0 | rel0", "rel0 - rel0"}) {
    trees.push_back(std::move(ParseQuery(text)).value());
  }
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::string> pool = names_;
    trees.push_back(RandomTree(&rng, &pool, 3, /*non_repeating=*/false));
  }
  for (const QueryPtr& q : trees) {
    ASSERT_NE(q, nullptr);
    const std::string text = QueryToString(*q);
    Result<TpRelation> actual = exec_->Execute(*q);
    ASSERT_TRUE(actual.ok()) << text;
    TpRelation expected = ReferenceEvaluate(*exec_, *q);
    EXPECT_TRUE(RelationsEquivalent(expected, *actual))
        << text << ": expected " << expected.size() << " got "
        << actual->size();
    EXPECT_TRUE(ValidateDuplicateFree(*actual).ok()) << text;
    if (q->kind == QueryNode::Kind::kRelation) {
      EXPECT_TRUE(actual->tuples() == expected.tuples()) << text;
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (bool profiled : {false, true}) {
        SCOPED_TRACE(text + " threads=" + std::to_string(threads) +
                     (profiled ? " profiled" : ""));
        obs::QueryProfile profile;
        ExecOptions options;
        options.num_threads = threads;
        if (profiled) options.profile = &profile;
        Result<TpRelation> got = exec_->Execute(*q, options);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->name(), actual->name());
        ASSERT_EQ(got->size(), actual->size());
        for (std::size_t i = 0; i < got->size(); ++i) {
          ASSERT_EQ((*got)[i], (*actual)[i]) << "tuple " << i;
        }
      }
    }
  }
}

TEST_P(QueryPropertyTest, Theorem1OnRandomNonRepeatingTrees) {
  Rng rng(Seed() ^ 0x7777);
  LineageManager& mgr = ctx_->lineage();
  const VarTable& vars = ctx_->vars();
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::string> pool = names_;
    QueryPtr q = RandomTree(&rng, &pool, 3, /*non_repeating=*/true);
    ASSERT_NE(q, nullptr);
    ASSERT_TRUE(IsNonRepeating(*q)) << QueryToString(*q);
    Result<TpRelation> out = exec_->Execute(*q);
    ASSERT_TRUE(out.ok());
    for (std::size_t i = 0; i < out->size(); i += 5) {
      ASSERT_TRUE(mgr.IsReadOnce((*out)[i].lineage))
          << QueryToString(*q) << " tuple " << i;
      EXPECT_NEAR(ProbabilityReadOnce(mgr, (*out)[i].lineage, vars),
                  ProbabilityExact(mgr, (*out)[i].lineage, vars), 1e-9);
    }
  }
}

TEST_P(QueryPropertyTest, SnapshotReducibilityOfWholeQueries) {
  // Def. 1 lifted to query trees: evaluating the tree on timeslices equals
  // timeslicing the tree's answer. Probed at random time points.
  Rng rng(Seed() ^ 0x5555);
  LineageManager& mgr = ctx_->lineage();
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::string> pool = names_;
    QueryPtr q = RandomTree(&rng, &pool, 2, /*non_repeating=*/false);
    ASSERT_NE(q, nullptr);
    Result<TpRelation> answer = exec_->Execute(*q);
    ASSERT_TRUE(answer.ok());
    for (int probe = 0; probe < 8; ++probe) {
      TimePoint t = static_cast<TimePoint>(rng.Below(200));
      // Left: the answer's snapshot.
      std::vector<std::pair<FactId, std::string>> left;
      for (const TpTuple& tup : answer->tuples()) {
        if (tup.t.Contains(t)) {
          left.emplace_back(tup.fact, mgr.CanonicalKey(tup.lineage));
        }
      }
      // Right: evaluate the tree over timeslices, using the snapshot op at
      // each node (structural recursion).
      std::function<TpRelation(const QueryNode&)> slice_eval =
          [&](const QueryNode& node) -> TpRelation {
        if (node.kind == QueryNode::Kind::kRelation) {
          return TimesliceRelation(**exec_->Find(node.relation_name), t);
        }
        TpRelation l = slice_eval(*node.left);
        TpRelation r = slice_eval(*node.right);
        TpRelation out(ctx_, l.schema(), "slice");
        for (const auto& [fact, lin] : SnapshotSetOp(node.op, l, r, t)) {
          out.AddDerived(fact, Interval(t, t + 1), lin);
        }
        return out;
      };
      TpRelation sliced = slice_eval(*q);
      std::vector<std::pair<FactId, std::string>> right;
      for (const TpTuple& tup : sliced.tuples()) {
        right.emplace_back(tup.fact, mgr.CanonicalKey(tup.lineage));
      }
      std::sort(left.begin(), left.end());
      std::sort(right.begin(), right.end());
      EXPECT_EQ(left, right) << QueryToString(*q) << " at t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tpset
