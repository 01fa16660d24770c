// Morsel-driven work-stealing scheduler for fact-range sweeps.
//
// One task per fact range would let a single heavy fact pin one worker
// while the rest idle, since a fact-boundary cut never falls inside a fact.
// This file removes that ceiling, HyPer-style, without giving up
// determinism:
//
//  * morsels — the two sorted inputs are cut straight into morsels of
//    roughly a budget of combined tuples. Cuts happen first at fact
//    boundaries (free: windows never span facts) and, inside a fact heavier
//    than the budget, at *clean time boundaries*: a cut time T such that
//    every tuple of the fact either ends at or before T or starts at or
//    after T. No window spans such a cut (a window is bounded by the tuples
//    valid over it, and adjacency across a validity gap restarts at the
//    next tuple's start), so sweeping each sub-span with a fresh advancer
//    yields exactly the corresponding segment of the full fact's window
//    stream — the concatenation in morsel order IS the sequential stream. A
//    fact with no clean cut (one unbroken overlap chain) stays one morsel.
//
//  * work stealing — MorselBatch distributes morsel indices round-robin
//    over per-worker deques. A worker pops its own deque from the front
//    (lowest indices first, so the batch completes roughly in splice order);
//    when empty it steals from the *back* of a victim's deque (highest
//    indices — the work farthest from the splice frontier, and the cheapest
//    point to take without contending with the owner). Deques are tiny
//    (hundreds of indices) and mutex-protected; contention is one lock per
//    morsel plus one per steal attempt, noise next to a sweep.
//
//  * in-order completion waits — WaitMorsel(i) blocks until morsel i has
//    run, while later morsels keep executing, so a caller can consume
//    results in index order as they land (the incremental engine interns
//    each swept fact range's windows this way while later ranges still
//    sweep); WaitAll blocks for the whole batch (the one-shot engine's
//    apply interns the whole block at once, on every worker).
//
// Determinism: each morsel's result lands in its own slot and the caller
// consumes slots in index order, so outputs are independent of which worker
// ran which morsel and of steal timing. Only the stolen-counter is
// scheduling-dependent.
#ifndef TPSET_PARALLEL_SCHEDULER_H_
#define TPSET_PARALLEL_SCHEDULER_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "relation/tuple.h"

namespace tpset {

/// The engine's automatic morsel budget for a `total`-tuple operation:
/// ~32 morsels per worker, floored so per-morsel overhead (one advancer,
/// one result vector) stays invisible.
inline std::size_t MorselAutoBudget(std::size_t total, std::size_t workers) {
  const std::size_t slots = workers * 32;
  return std::max<std::size_t>(2048, slots == 0 ? total : total / slots);
}

/// A morsel plan: morsels in (fact, time) order. Morsels are plain
/// FactPartitions — contiguous index ranges of both inputs — because a
/// clean time cut of a start-sorted fact is also an index cut.
struct MorselPlan {
  std::vector<FactPartition> morsels;
  std::size_t facts_split = 0;  ///< facts cut at time boundaries (>1 morsel)
};

/// Splits one fact's spans (`part` must cover exactly one fact in both
/// inputs) at clean time boundaries into sub-spans of at most ~`budget`
/// combined tuples. A cut is placed before a tuple starting at T only when
/// every earlier tuple of the fact ends at or before T — cuts never bisect a
/// window-open (scheduler_test pins this). Returns one span when no clean
/// cut exists within budget. `budget` 0 is treated as 1.
std::vector<FactPartition> SplitFactAtTimeBoundaries(const TpTuple* r,
                                                     const TpTuple* s,
                                                     const FactPartition& part,
                                                     std::size_t budget);

/// Cuts `r` and `s` (both (fact, start)-sorted) into morsels of at most
/// ~`budget` combined tuples: whole facts accumulate into a morsel until
/// the next would overflow it, and facts heavier than the budget are
/// time-split via SplitFactAtTimeBoundaries. Morsel order preserves
/// (fact, time) order, so concatenating per-morsel sweep outputs reproduces
/// the sequential window stream. Empty inputs plan no morsels; `budget` 0 is
/// treated as 1.
MorselPlan BuildMorsels(TupleSpan r, TupleSpan s, std::size_t budget);

/// One batch of morsels executing on a pool with per-worker deques and work
/// stealing. Construction schedules everything; the caller then waits —
/// WaitAll, or WaitMorsel(0..n-1) in order to consume results as they land.
///
/// `body(i)` runs morsel i exactly once on some pool thread; it must write
/// its result into a caller-owned slot for index i and must not touch other
/// morsels' slots. An exception thrown by a body is captured and rethrown by
/// the next Wait* call (after all workers drained — the batch never hangs).
///
/// The batch holds only shared state also owned by the workers, so it is
/// safe to destroy early (the destructor waits for stragglers to keep
/// caller-owned slots alive, matching std::async semantics).
class MorselBatch {
 public:
  /// Starts `count` morsels on min(pool->size(), count) workers.
  MorselBatch(ThreadPool* pool, std::size_t count,
              std::function<void(std::size_t)> body);

  MorselBatch(const MorselBatch&) = delete;
  MorselBatch& operator=(const MorselBatch&) = delete;

  ~MorselBatch();

  /// Blocks until morsel `index` has completed (not necessarily any other).
  void WaitMorsel(std::size_t index);

  /// Blocks until every morsel has completed.
  void WaitAll();

  /// Morsels executed (== count). Valid after WaitAll.
  std::size_t morsels_run() const;

  /// Morsels a worker took from another worker's deque. Valid after
  /// WaitAll; scheduling-dependent (the only non-deterministic observable).
  std::size_t morsels_stolen() const;

 private:
  struct State;
  static void RunWorker(const std::shared_ptr<State>& st, std::size_t worker);

  std::shared_ptr<State> state_;
};

}  // namespace tpset

#endif  // TPSET_PARALLEL_SCHEDULER_H_
