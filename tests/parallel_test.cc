// ThreadPool, ApplySequencer and fact-range partitioner units: task
// composition, coverage, fact-disjointness, balance, and the skew/degenerate
// cases of PartitionRunsByFact over two runs.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/random.h"
#include "parallel/partition.h"
#include "parallel/sequencer.h"
#include "parallel/thread_pool.h"

namespace tpset {
namespace {

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrentlyWithCaller) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  auto f1 = pool.Submit([&]() { done.fetch_add(1); });
  auto f2 = pool.Submit([&]() { done.fetch_add(1); });
  f1.get();
  f2.get();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&]() { ran.fetch_add(1); });
    }
  }  // join here
  EXPECT_EQ(ran.load(), 50);
}

// ---- ApplySequencer ----

TEST(ApplySequencerTest, AdmitsTicketsInOrder) {
  ApplySequencer seq;
  ThreadPool pool(4);
  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::future<void>> futures;
  // Submit out of order; the sequencer must still admit 0,1,2,3.
  for (std::size_t t : {3u, 1u, 0u, 2u}) {
    futures.push_back(pool.Submit([&, t]() {
      seq.WaitTurn(t);
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(static_cast<int>(t));
      }
      seq.Done(t);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---- PartitionRunsByFact ----

// Builds a bare tuple vector (lineage ids are irrelevant to partitioning).
std::vector<TpTuple> Tuples(const std::vector<std::pair<FactId, TimePoint>>& fs) {
  std::vector<TpTuple> out;
  for (auto [fact, start] : fs) {
    out.push_back({fact, Interval(start, start + 1), 0});
  }
  return out;
}

using Runs = std::vector<std::pair<const TpTuple*, std::size_t>>;

// Two sorted runs, as a two-input set operation's r and s.
Runs TwoRuns(const std::vector<TpTuple>& r, const std::vector<TpTuple>& s) {
  return {{r.data(), r.size()}, {s.data(), s.size()}};
}

// Structural invariants every partitioning must satisfy: contiguous coverage
// of every run, non-empty partitions with the right sizes, and disjoint
// increasing fact ranges.
void CheckInvariants(const Runs& runs, const std::vector<RunPartition>& parts,
                     std::size_t max_partitions) {
  ASSERT_LE(parts.size(), max_partitions);
  std::vector<std::size_t> pos(runs.size(), 0);
  FactId prev_max = 0;
  bool have_prev = false;
  for (const RunPartition& p : parts) {
    ASSERT_EQ(p.slices.size(), runs.size());
    std::size_t size = 0;
    FactId lo = kInvalidFact, hi = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const auto [begin, end] = p.slices[k];
      EXPECT_EQ(begin, pos[k]);
      pos[k] = end;
      size += end - begin;
      for (std::size_t i = begin; i < end; ++i) {
        lo = std::min(lo, runs[k].first[i].fact);
        hi = std::max(hi, runs[k].first[i].fact);
      }
    }
    EXPECT_EQ(p.size, size);
    EXPECT_GT(size, 0u) << "empty partition";
    // All facts in this partition are above every fact of the previous one.
    if (have_prev) {
      EXPECT_GT(lo, prev_max) << "fact ranges must be disjoint and increasing";
    }
    prev_max = hi;
    have_prev = true;
  }
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(pos[k], runs[k].second);
  }
}

TEST(PartitionTest, EmptyInputsYieldNoPartitions) {
  std::vector<TpTuple> empty;
  EXPECT_TRUE(PartitionRunsByFact(TwoRuns(empty, empty), 4).empty());
}

TEST(PartitionTest, OneSideEmptyStillPartitions) {
  auto r = Tuples({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  std::vector<TpTuple> s;
  auto parts = PartitionRunsByFact(TwoRuns(r, s), 2);
  CheckInvariants(TwoRuns(r, s), parts, 2);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(PartitionTest, SingleFactIsNeverSplit) {
  auto r = Tuples({{7, 0}, {7, 2}, {7, 4}, {7, 6}});
  auto s = Tuples({{7, 1}, {7, 3}});
  auto parts = PartitionRunsByFact(TwoRuns(r, s), 8);
  CheckInvariants(TwoRuns(r, s), parts, 8);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size, 6u);
}

TEST(PartitionTest, MorePartitionsThanFactsCollapses) {
  auto r = Tuples({{0, 0}, {1, 0}});
  auto s = Tuples({{1, 2}, {2, 0}});
  auto parts = PartitionRunsByFact(TwoRuns(r, s), 16);
  CheckInvariants(TwoRuns(r, s), parts, 16);
  EXPECT_LE(parts.size(), 3u);  // at most one per fact
  EXPECT_GE(parts.size(), 2u);
}

TEST(PartitionTest, HeavyFactLandsAloneAndRestIsBalanced) {
  // 90 tuples of fact 5, ten other singleton facts.
  std::vector<std::pair<FactId, TimePoint>> spec;
  for (int i = 0; i < 90; ++i) spec.push_back({5, 2 * i});
  std::vector<TpTuple> s = Tuples({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},
                                   {6, 0}, {7, 0}, {8, 0}, {9, 0}, {10, 0}});
  auto r = Tuples(spec);
  auto parts = PartitionRunsByFact(TwoRuns(r, s), 4);
  CheckInvariants(TwoRuns(r, s), parts, 4);
  // Some partition must hold exactly the heavy fact's 90 r-tuples.
  bool heavy_isolated = false;
  for (const RunPartition& p : parts) {
    if (p.slices[0].second - p.slices[0].first == 90) heavy_isolated = true;
  }
  EXPECT_TRUE(heavy_isolated);
}

TEST(PartitionTest, UniformFactsBalanceWithinFactGranularity) {
  std::vector<std::pair<FactId, TimePoint>> rs, ss;
  for (FactId f = 0; f < 64; ++f) {
    for (int j = 0; j < 4; ++j) {
      rs.push_back({f, 3 * j});
      ss.push_back({f, 3 * j + 1});
    }
  }
  auto r = Tuples(rs);
  auto s = Tuples(ss);
  const std::size_t k = 8;
  auto parts = PartitionRunsByFact(TwoRuns(r, s), k);
  CheckInvariants(TwoRuns(r, s), parts, k);
  ASSERT_EQ(parts.size(), k);
  const std::size_t ideal = (r.size() + s.size()) / k;
  for (const RunPartition& p : parts) {
    EXPECT_GE(p.size, ideal / 2);
    EXPECT_LE(p.size, ideal * 2);
  }
}

TEST(PartitionTest, RandomizedInvariantSweep) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<FactId, TimePoint>> rs, ss;
    const std::size_t num_facts = 1 + rng.Below(12);
    const std::size_t nr = rng.Below(60);
    const std::size_t ns = rng.Below(60);
    for (std::size_t i = 0; i < nr; ++i) {
      rs.push_back({static_cast<FactId>(rng.Below(num_facts)), 0});
    }
    for (std::size_t i = 0; i < ns; ++i) {
      ss.push_back({static_cast<FactId>(rng.Below(num_facts)), 0});
    }
    std::sort(rs.begin(), rs.end());
    std::sort(ss.begin(), ss.end());
    // Spread starts so tuples of one fact are distinct.
    for (std::size_t i = 0; i < rs.size(); ++i) rs[i].second = 2 * i;
    for (std::size_t i = 0; i < ss.size(); ++i) ss[i].second = 2 * i;
    auto r = Tuples(rs);
    auto s = Tuples(ss);
    const std::size_t k = 1 + rng.Below(10);
    CheckInvariants(TwoRuns(r, s), PartitionRunsByFact(TwoRuns(r, s), k), k);
  }
}

}  // namespace
}  // namespace tpset
