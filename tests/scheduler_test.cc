// Unit tests of the morsel scheduler (parallel/scheduler.h): deque/steal
// mechanics, heavy-fact time-boundary splitting (cuts never bisect a
// window-open; stitched sub-sweeps reproduce the full sweep), and
// overlapped-splice ordering (a slow later morsel does not delay waiting on
// an earlier one; splices happen strictly in morsel order).
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "parallel/parallel_set_op.h"
#include "parallel/partition.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// ---- MorselBatch: deque and steal behavior --------------------------------

TEST(MorselBatchTest, RunsEveryMorselExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> runs(kCount);
  MorselBatch batch(&pool, kCount,
                    [&](std::size_t i) { runs[i].fetch_add(1); });
  batch.WaitAll();
  EXPECT_EQ(batch.morsels_run(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(MorselBatchTest, ZeroMorselsCompletesImmediately) {
  ThreadPool pool(2);
  MorselBatch batch(&pool, 0, [](std::size_t) { FAIL(); });
  batch.WaitAll();
  EXPECT_EQ(batch.morsels_run(), 0u);
  EXPECT_EQ(batch.morsels_stolen(), 0u);
}

TEST(MorselBatchTest, NullPoolRunsInline) {
  std::vector<std::size_t> order;
  MorselBatch batch(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  batch.WaitAll();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batch.morsels_stolen(), 0u);
}

// A morsel pinned behind a dependency that only a *steal* can satisfy: with
// 2 workers and round-robin assignment, worker 0 owns {0, 2} and worker 1
// owns {1, 3}. Morsel 0 blocks until morsel 2 ran — worker 0 is pinned, so
// morsel 2 can only run if worker 1 steals it after draining its own deque.
// Completion of the batch therefore *proves* the steal path works (without
// it this test would hang, which the harness turns into a failure).
TEST(MorselBatchTest, StealRescuesPinnedWorker) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool morsel2_done = false;
  MorselBatch batch(&pool, 4, [&](std::size_t i) {
    if (i == 2) {
      std::lock_guard<std::mutex> lock(mu);
      morsel2_done = true;
      cv.notify_all();
    } else if (i == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&]() { return morsel2_done; });
    }
  });
  batch.WaitAll();
  EXPECT_EQ(batch.morsels_run(), 4u);
  EXPECT_GE(batch.morsels_stolen(), 1u);
}

TEST(MorselBatchTest, ExceptionPropagatesWithoutHanging) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  MorselBatch batch(&pool, 20, [&](std::size_t i) {
    ran.fetch_add(1);
    if (i == 7) throw std::runtime_error("morsel 7 failed");
  });
  EXPECT_THROW(batch.WaitAll(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);  // workers drained the batch despite the error
}

// ---- Overlapped-splice ordering -------------------------------------------

// Injects a slow morsel *after* the first one: waiting on morsel 0 must
// return while morsel 1 is still blocked — the overlap the engine exploits
// to splice partition i while later partitions are still advancing. The
// consumption loop then records splice order, which must equal morsel
// order no matter how completion interleaved.
TEST(MorselBatchTest, WaitMorselOverlapsSlowLaterMorsels) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release_morsel1 = false;
  std::atomic<bool> morsel1_running{false};
  MorselBatch batch(&pool, 4, [&](std::size_t i) {
    if (i == 1) {
      morsel1_running.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&]() { return release_morsel1; });
    }
  });

  batch.WaitMorsel(0);  // must not require morsel 1 to finish
  std::vector<std::size_t> splice_order{0};

  // Morsel 1 is still pinned (its worker blocks until released); the wait
  // above returning is the overlap property itself. Release and drain in
  // order, as the engine's apply loop does.
  {
    std::lock_guard<std::mutex> lock(mu);
    release_morsel1 = true;
  }
  cv.notify_all();
  for (std::size_t i = 1; i < 4; ++i) {
    batch.WaitMorsel(i);
    splice_order.push_back(i);
  }
  EXPECT_EQ(splice_order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(morsel1_running.load());
}

// ---- Heavy-fact time-boundary splitting -----------------------------------

// One fact's worth of random, duplicate-free, start-sorted tuples per side.
std::vector<TpTuple> OneFactChain(Rng* rng, std::size_t n, TimePoint max_len,
                                  TimePoint max_gap) {
  std::vector<TpTuple> out;
  out.reserve(n);
  TimePoint cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TimePoint start = cursor + rng->Uniform(0, max_gap);
    TimePoint end = start + rng->Uniform(1, max_len);
    out.push_back({/*fact=*/7, Interval(start, end),
                   static_cast<LineageId>(100 + i)});
    cursor = start;  // next start >= this start: overlap chains possible
    if (rng->Bernoulli(0.5)) cursor = end;  // sometimes leave a clean gap
  }
  return out;
}

// Asserts the split invariant: a cut at the boundary between consecutive
// sub-spans never bisects a window-open — every tuple of the prefix ends at
// or before every tuple start of the suffix.
void ExpectCleanCuts(const std::vector<TpTuple>& r, const std::vector<TpTuple>& s,
                     const std::vector<FactPartition>& sub) {
  ASSERT_FALSE(sub.empty());
  for (std::size_t k = 0; k + 1 < sub.size(); ++k) {
    // The cut time is the smallest start on either side of the suffix.
    TimePoint cut = std::numeric_limits<TimePoint>::max();
    if (sub[k + 1].r_begin < r.size()) {
      cut = std::min(cut, r[sub[k + 1].r_begin].t.start);
    }
    if (sub[k + 1].s_begin < s.size()) {
      cut = std::min(cut, s[sub[k + 1].s_begin].t.start);
    }
    for (std::size_t i = 0; i < sub[k + 1].r_begin; ++i) {
      EXPECT_LE(r[i].t.end, cut) << "r tuple " << i << " straddles cut " << k;
    }
    for (std::size_t i = 0; i < sub[k + 1].s_begin; ++i) {
      EXPECT_LE(s[i].t.end, cut) << "s tuple " << i << " straddles cut " << k;
    }
  }
}

TEST(HeavyFactSplitTest, CutsNeverBisectAWindowOpen) {
  for (std::uint64_t seed : testing::PropertySeeds({1, 2, 3, 4, 5, 6})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<TpTuple> r = OneFactChain(&rng, 200, 6, 4);
    std::vector<TpTuple> s = OneFactChain(&rng, 150, 9, 2);
    for (std::size_t budget : {1u, 8u, 37u, 100u}) {
      FactPartition whole{0, r.size(), 0, s.size()};
      std::vector<FactPartition> sub =
          SplitFactAtTimeBoundaries(r.data(), s.data(), whole, budget);
      // Sub-spans are contiguous and cover the whole fact.
      ASSERT_EQ(sub.front().r_begin, 0u);
      ASSERT_EQ(sub.front().s_begin, 0u);
      ASSERT_EQ(sub.back().r_end, r.size());
      ASSERT_EQ(sub.back().s_end, s.size());
      for (std::size_t k = 0; k + 1 < sub.size(); ++k) {
        ASSERT_EQ(sub[k].r_end, sub[k + 1].r_begin);
        ASSERT_EQ(sub[k].s_end, sub[k + 1].s_begin);
      }
      ExpectCleanCuts(r, s, sub);
    }
  }
}

TEST(HeavyFactSplitTest, UnbrokenOverlapChainStaysOneMorsel) {
  // Every tuple overlaps the next: no clean cut exists anywhere.
  std::vector<TpTuple> r;
  for (int i = 0; i < 50; ++i) {
    r.push_back({7, Interval(i, i + 2), static_cast<LineageId>(10 + i)});
  }
  std::vector<TpTuple> s;  // empty side
  FactPartition whole{0, r.size(), 0, 0};
  std::vector<FactPartition> sub =
      SplitFactAtTimeBoundaries(r.data(), s.data(), whole, 5);
  EXPECT_EQ(sub.size(), 1u);
}

// Stitched sub-sweeps must reproduce the full-fact sweep: for every
// operation, concatenating each sub-morsel's surviving windows (fresh
// advancer per sub-span) equals the surviving windows of one sweep over the
// whole fact.
TEST(HeavyFactSplitTest, StitchedSubSweepsEqualFullSweep) {
  struct Win {
    FactId fact;
    Interval t;
    LineageId lr, ls;
    bool operator==(const Win& o) const {
      return fact == o.fact && t == o.t && lr == o.lr && ls == o.ls;
    }
  };
  for (std::uint64_t seed : testing::PropertySeeds({11, 12, 13, 14})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<TpTuple> r = OneFactChain(&rng, 120, 5, 3);
    std::vector<TpTuple> s = OneFactChain(&rng, 160, 7, 5);
    for (std::size_t budget : {1u, 10u, 64u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      FactPartition whole{0, r.size(), 0, s.size()};
      std::vector<FactPartition> sub =
          SplitFactAtTimeBoundaries(r.data(), s.data(), whole, budget);
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        std::vector<Win> full;
        {
          LineageAwareWindowAdvancer adv(r.data(), r.size(), s.data(), s.size());
          ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
            full.push_back({w.fact, w.t, w.lr, w.ls});
          });
        }
        std::vector<Win> stitched;
        for (const FactPartition& part : sub) {
          LineageAwareWindowAdvancer adv(
              r.data() + part.r_begin, part.r_end - part.r_begin,
              s.data() + part.s_begin, part.s_end - part.s_begin);
          ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
            stitched.push_back({w.fact, w.t, w.lr, w.ls});
          });
        }
        EXPECT_EQ(stitched.size(), full.size());
        EXPECT_TRUE(stitched == full);
      }
    }
  }
}

TEST(BuildMorselsTest, CutsOversizedInputsInOrder) {
  Rng rng(99);
  // Several facts with very different weights.
  std::vector<TpTuple> r, s;
  for (FactId f : {1u, 2u, 3u}) {
    std::size_t n = f == 2 ? 300 : 20;  // fact 2 is heavy
    TimePoint cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
      TimePoint start = cursor + rng.Uniform(0, 3);
      TimePoint end = start + rng.Uniform(1, 4);
      (rng.Bernoulli(0.5) ? r : s).push_back({f, Interval(start, end), 5});
      cursor = rng.Bernoulli(0.3) ? start : end;
    }
  }
  std::sort(r.begin(), r.end(), FactTimeOrder());
  std::sort(s.begin(), s.end(), FactTimeOrder());
  MorselPlan plan =
      BuildMorsels({r.data(), r.size()}, {s.data(), s.size()}, 40);
  ASSERT_GT(plan.morsels.size(), 1u);
  EXPECT_GE(plan.facts_split, 1u);  // fact 2 must have been time-split
  // Morsels are non-empty, contiguous, ordered, and cover both inputs.
  EXPECT_EQ(plan.morsels.front().r_begin, 0u);
  EXPECT_EQ(plan.morsels.front().s_begin, 0u);
  EXPECT_EQ(plan.morsels.back().r_end, r.size());
  EXPECT_EQ(plan.morsels.back().s_end, s.size());
  for (std::size_t k = 0; k < plan.morsels.size(); ++k) {
    EXPECT_GT(plan.morsels[k].size(), 0u);
    if (k + 1 == plan.morsels.size()) break;
    EXPECT_EQ(plan.morsels[k].r_end, plan.morsels[k + 1].r_begin);
    EXPECT_EQ(plan.morsels[k].s_end, plan.morsels[k + 1].s_begin);
  }
}

TEST(BuildMorselsTest, WithinBudgetInputsStayOneMorsel) {
  std::vector<TpTuple> r = {{1, Interval(0, 3), 5}, {2, Interval(1, 4), 6}};
  std::vector<TpTuple> s = {{1, Interval(2, 5), 7}};
  MorselPlan plan =
      BuildMorsels({r.data(), r.size()}, {s.data(), s.size()}, 100);
  ASSERT_EQ(plan.morsels.size(), 1u);
  EXPECT_EQ(plan.facts_split, 0u);
  EXPECT_EQ(plan.morsels[0].r_end, 2u);
  EXPECT_EQ(plan.morsels[0].s_end, 1u);
  EXPECT_TRUE(BuildMorsels({}, {}, 100).morsels.empty());
}

// ---- End to end through the engine ----------------------------------------

// A one-hot-fact workload through ParallelSetOpAlgorithm with a small
// morsel budget: results stay bit-identical to sequential LAWA (the
// contract survives time splitting), and the stats show the
// heavy fact actually was split.
TEST(SchedulerEngineTest, OneHotFactBitIdenticalWithSplitting) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(0xB0B);
  SyntheticPairSpec spec;
  spec.num_tuples = 4000;
  spec.num_facts = 10;  // round-robin: every fact gets 400 tuples...
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);

  TpRelation seq = LawaSetOp(SetOpKind::kUnion, r, s);

  ParallelSetOpAlgorithm algo(4, SortMode::kComparison, /*morsel_budget=*/64);
  LawaStats stats;
  TpRelation par =
      algo.ComputeSequenced(SetOpKind::kUnion, r, s, nullptr, 0, &stats);

  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i], seq[i]) << "tuple " << i;
  }
  EXPECT_GT(stats.morsels_run, 4u);
  EXPECT_GE(stats.facts_split, 1u);  // 400-tuple facts vs budget 64
}

}  // namespace
}  // namespace tpset
