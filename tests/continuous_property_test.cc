// Property tests of the incremental continuous-query subsystem: for random
// append schedules, the accumulated state of every continuous query must
// equal a from-scratch Execute of the same query over the appended-to
// relations — same tuples, same intervals and, since every node goes
// through the one consing index, the same lineage ids. Additionally, the
// (inserted, retracted) delta stream must be coherent: a subscriber folding
// it into a multiset reconstructs the accumulated result exactly.
//
// Schedules exercised:
//  * in-order     — appends land at/after every operator frontier (resume);
//  * straddling   — one relation's timeline lags far behind the other's, so
//                   its appends reopen closed windows (resweep + retraction);
//  * hot fact     — every append extends one fact's chain (deep resume);
//  * mixed        — random relation, random fact, random gaps.
// Each schedule runs sequentially and with the parallel delta apply, and
// both must match Execute lineage id for lineage id.
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
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

struct ScheduleSpec {
  std::size_t num_facts = 6;
  std::size_t epochs = 40;
  std::size_t rows_per_epoch = 3;
  // Per-relation probability weights of being chosen for an epoch.
  // max gap between consecutive intervals of one fact chain (0 = contiguous
  // chains, maximal window interaction).
  TimePoint max_gap = 3;
  TimePoint max_len = 4;
  bool hot_fact = false;       // all appends go to fact 0
  std::size_t lag_relation = ~std::size_t{0};  // this relation's clock lags
};

// Accumulates the delta stream of one query and checks coherence.
struct Folded {
  std::map<std::tuple<FactId, TimePoint, TimePoint, LineageId>, int> tuples;
  std::size_t epochs_seen = 0;
  EpochId last_epoch = 0;

  void Apply(const EpochDelta& d) {
    ++epochs_seen;
    EXPECT_GT(d.epoch, last_epoch) << "epochs must arrive in order";
    last_epoch = d.epoch;
    for (const TpTuple& t : d.delta.retracted) {
      auto key = std::make_tuple(t.fact, t.t.start, t.t.end, t.lineage);
      auto it = tuples.find(key);
      ASSERT_TRUE(it != tuples.end()) << "retraction of a tuple never inserted";
      if (--it->second == 0) tuples.erase(it);
    }
    for (const TpTuple& t : d.delta.inserted) {
      int& count = tuples[std::make_tuple(t.fact, t.t.start, t.t.end, t.lineage)];
      ++count;
      EXPECT_EQ(count, 1) << "accumulated result must stay duplicate-free";
    }
  }

  void ExpectMatches(const TpRelation& current) {
    std::map<std::tuple<FactId, TimePoint, TimePoint, LineageId>, int> got;
    for (const TpTuple& t : current.tuples()) {
      ++got[std::make_tuple(t.fact, t.t.start, t.t.end, t.lineage)];
    }
    EXPECT_EQ(got, tuples) << "folded delta stream != accumulated result";
  }
};

void RunSchedule(const ScheduleSpec& spec, std::size_t num_threads,
                 std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(num_threads));
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  Rng rng(seed);

  const std::vector<std::string> rel_names = {"r", "s", "u"};
  // Independent time cursor per (relation, fact); a lagging relation's
  // cursor advances while others run ahead, making its appends straddle
  // operator frontiers.
  std::vector<std::vector<TimePoint>> cursor(
      rel_names.size(), std::vector<TimePoint>(spec.num_facts, 0));

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
  std::vector<Folded> folded(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<ContinuousQuery*> cq =
        exec.RegisterContinuous(queries[i].first, queries[i].second, options);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    cqs.push_back(*cq);
    Folded* f = &folded[i];
    (*cq)->Subscribe([f](const EpochDelta& d) { f->Apply(d); });
  }

  for (std::size_t e = 0; e < spec.epochs; ++e) {
    // Pick the relation: the lagging relation is chosen rarely, so its
    // timeline falls behind and its appends straddle.
    std::size_t ri = static_cast<std::size_t>(rng.Below(rel_names.size()));
    if (ri == spec.lag_relation && e % 5 != 4) {
      ri = (ri + 1) % rel_names.size();
    }
    DeltaBatch batch;
    for (std::size_t k = 0; k < spec.rows_per_epoch; ++k) {
      const std::size_t fact =
          spec.hot_fact ? 0
                        : static_cast<std::size_t>(rng.Below(spec.num_facts));
      TimePoint& cur = cursor[ri][fact];
      cur += rng.Uniform(0, spec.max_gap);
      const TimePoint len = rng.Uniform(1, spec.max_len);
      batch.Add({Value(static_cast<std::int64_t>(fact))},
                Interval(cur, cur + len),
                0.1 + 0.8 * rng.NextDouble());
      cur += len;
    }
    Result<EpochId> epoch = exec.Append(rel_names[ri], batch);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

    // Interleave a mid-schedule check so divergence is caught near its
    // cause, not only at the end.
    if (e % 13 == 12) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        Result<TpRelation> oneshot = exec.Execute(queries[i].second);
        ASSERT_TRUE(oneshot.ok());
        const TpRelation current = cqs[i]->Current();
        EXPECT_TRUE(RelationsEquivalent(current, *oneshot))
            << queries[i].second << " diverged at epoch " << e;
        EXPECT_TRUE(current.tuples() == oneshot->tuples())
            << queries[i].second << " lineage ids diverged at epoch " << e;
      }
    }
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    TpRelation current = cqs[i]->Current();
    EXPECT_TRUE(current.known_sorted());
    EXPECT_TRUE(current.IsSortedFactTime());
    folded[i].ExpectMatches(current);
    Result<TpRelation> oneshot = exec.Execute(queries[i].second);
    ASSERT_TRUE(oneshot.ok());
    EXPECT_TRUE(RelationsEquivalent(current, *oneshot)) << queries[i].second;
    EXPECT_TRUE(current.tuples() == oneshot->tuples())
        << queries[i].second << " lineage ids diverged";
  }
}

TEST(ContinuousPropertyTest, MixedScheduleSequential) {
  for (std::uint64_t seed : testing::PropertySeeds({1, 2, 3, 4, 5})) {
    RunSchedule(ScheduleSpec{}, 1, seed);
  }
}

TEST(ContinuousPropertyTest, MixedScheduleParallel) {
  for (std::uint64_t seed : testing::PropertySeeds({1, 2, 3})) {
    RunSchedule(ScheduleSpec{}, 4, seed);
  }
}

TEST(ContinuousPropertyTest, InOrderContiguousChains) {
  ScheduleSpec spec;
  spec.max_gap = 0;  // contiguous chains: maximal overlap between relations
  for (std::uint64_t seed : testing::PropertySeeds({11, 12, 13})) {
    RunSchedule(spec, 1, seed);
  }
}

TEST(ContinuousPropertyTest, FrontierStraddlingLaggedRelation) {
  ScheduleSpec spec;
  spec.lag_relation = 1;  // "s" lags: its appends reopen closed windows
  for (std::uint64_t seed : testing::PropertySeeds({21, 22, 23})) {
    RunSchedule(spec, 1, seed);
    RunSchedule(spec, 4, seed);
  }
}

TEST(ContinuousPropertyTest, SingleHotFactSkew) {
  ScheduleSpec spec;
  spec.hot_fact = true;
  spec.epochs = 60;
  for (std::uint64_t seed : testing::PropertySeeds({31, 32})) {
    RunSchedule(spec, 1, seed);
    RunSchedule(spec, 4, seed);
  }
}

TEST(ContinuousPropertyTest, LargeAlphabetManyFacts) {
  ScheduleSpec spec;
  spec.num_facts = 40;
  spec.epochs = 30;
  spec.rows_per_epoch = 8;
  for (std::uint64_t seed : testing::PropertySeeds({41, 42})) {
    RunSchedule(spec, 4, seed);
  }
}

}  // namespace
}  // namespace tpset
