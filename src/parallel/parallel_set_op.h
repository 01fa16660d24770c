// Partitioned parallel LAWA: the fused sweep kernel run per fact-range
// morsel on a thread pool.
//
// Execution of one operation (Fig. 5 pipeline, parallelized):
//   1. sort    — inputs are chunk-sorted and merged on the pool; an input
//                carrying the sortedness witness (TpRelation::known_sorted —
//                catalog relations, set-op outputs) is swept in place with
//                no copy and no sort at all (the zero-sort fast path);
//   2. split   — BuildMorsels plans morsels of about the morsel budget
//                straight from the two sorted inputs, cutting at fact
//                boundaries and time-splitting facts heavier than the budget
//                at clean time boundaries (see parallel/scheduler.h);
//   3. advance — each morsel's slices of the sorted arrays are swept in
//                place by the fused kernel (ColumnarAdvancer) on a
//                MorselBatch (per-worker deques + work stealing); each emits
//                its surviving windows as *pending* (fact, interval, λr, λs),
//                deferring the lineage concatenation;
//   4. apply   — once every morsel has swept, the pending windows form one
//                block in morsel order, and in the operation's sequencer
//                turn LineageManager::ConcatBlock interns the whole block on
//                the pool. It returns the ids the sequential Concat calls
//                would return in that order, and leaves the arena as they
//                would, so every output tuple (fact, interval, lineage id)
//                matches sequential LawaSetOp bit for bit. The output tuples
//                are then filled at their window offsets on the pool, after
//                the turn ends.
//
// See DESIGN.md ("Partitioned parallel execution", "Determinism") for the
// independence and determinism arguments.
#ifndef TPSET_PARALLEL_PARALLEL_SET_OP_H_
#define TPSET_PARALLEL_PARALLEL_SET_OP_H_

#include <memory>
#include <mutex>
#include <string>

#include "baselines/algorithm.h"
#include "common/setop.h"
#include "lawa/set_ops.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "parallel/sequencer.h"
#include "parallel/thread_pool.h"
#include "relation/relation.h"

namespace tpset {

/// LAWA over fact-range morsels on a private thread pool. Registered as
/// "LAWA-P"; supports all three operations (Table II row of LAWA).
class ParallelSetOpAlgorithm final : public SetOpAlgorithm {
 public:
  /// `num_threads` <= 1 degrades to plain sequential LawaSetOp (no pool is
  /// created); the pool itself is created lazily on first use.
  /// `morsel_budget` is the combined (r + s) tuple budget per morsel
  /// (scheduler.h); 0 picks MorselAutoBudget, and 1 is legal (every tuple
  /// its own morsel — tests use small budgets to force time splits at test
  /// scale).
  explicit ParallelSetOpAlgorithm(std::size_t num_threads,
                                  SortMode sort_mode = SortMode::kComparison,
                                  std::size_t morsel_budget = 0);
  ~ParallelSetOpAlgorithm() override;

  std::string name() const override { return "LAWA-P"; }
  bool Supports(SetOpKind) const override { return true; }

  /// Standalone entry point (registry / benchmarks). The caller must not
  /// mutate the shared context concurrently — the same contract as
  /// sequential LawaSetOp.
  TpRelation Compute(SetOpKind op, const TpRelation& r,
                     const TpRelation& s) const override;

  /// Executor entry point for concurrent query-subtree evaluation: phases
  /// 1-3 run immediately, the arena-mutating apply phase waits for `ticket`
  /// on `seq`. Every concurrent evaluation against one context must go
  /// through one sequencer.
  ///
  /// `stats`: output_tuples and windows_produced match the sequential run
  /// exactly, whatever the morsel plan: a morsel's sweep drains early only
  /// at an input whose global end lies in its slice, and otherwise counts
  /// the one-sided tail the sequential sweep counts and filters out.
  /// Proposition 1 bounds both counts.
  ///
  /// `span`: when non-null, the operation records its phase walls as child
  /// spans ("sort", "split", "advance", "apply"; the degenerate sequential
  /// path records only "advance" — LawaSetOp's whole wall — with children
  /// "sweep", "intern" and "materialize", each summed over its blocks) and
  /// attaches the LawaStats to `span` itself. The span's own wall/cpu cover
  /// the full call including sequencer waits.
  TpRelation ComputeSequenced(SetOpKind op, const TpRelation& r,
                              const TpRelation& s, ApplySequencer* seq,
                              std::size_t ticket, LawaStats* stats = nullptr,
                              obs::Span* span = nullptr) const;

  std::size_t num_threads() const { return num_threads_; }

 private:
  ThreadPool* pool() const;

  std::size_t num_threads_;
  SortMode sort_mode_;
  std::size_t morsel_budget_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Sorts into (fact, start, end) order using `pool`: chunks are sorted as
/// pool tasks (each with `mode`, see SortTuples) and merged pairwise.
void ParallelSortTuples(std::vector<TpTuple>* tuples, SortMode mode,
                        ThreadPool* pool);

/// Sorts `count` independent arrays at once, interleaving their chunk and
/// merge tasks on one pool so no array's merge tail leaves workers idle.
void ParallelSortBatch(std::vector<TpTuple>* const* arrays, std::size_t count,
                       SortMode mode, ThreadPool* pool);

}  // namespace tpset

#endif  // TPSET_PARALLEL_PARALLEL_SET_OP_H_
