// Partitioned parallel LAWA: the paper's advancer run per fact-range
// partition on a thread pool.
//
// Execution of one operation (Fig. 5 pipeline, parallelized):
//   1. sort    — inputs are chunk-sorted and merged on the pool; an input
//                carrying the sortedness witness (TpRelation::known_sorted —
//                catalog relations, set-op outputs) is swept in place with
//                no copy and no sort at all (the zero-sort fast path);
//   2. split   — PartitionByFactRange cuts both inputs at fact boundaries,
//                then BuildMorsels refines the plan into morsels of about
//                the morsel budget, time-splitting facts heavier than the
//                budget at clean time boundaries (see parallel/scheduler.h);
//   3. advance — morsels are swept by the sequential advancer on a
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

/// Wall-clock breakdown of one parallel set operation, phase by phase.
/// `advance_ms` covers the morsel sweeps and the block's gather (waits for
/// the sequencer turn included); `apply_ms` is the bulk intern in the turn
/// plus the output fill after it.
///
/// Since the observability layer (src/obs/), this struct is a *thin
/// adapter*: the engine records phases as child spans ("sort", "split",
/// "advance", "apply") of an obs::Span, and FromSpan projects those four
/// walls back out for callers (benches) that want plain numbers.
struct PhaseTimings {
  double sort_ms = 0.0;
  double split_ms = 0.0;
  double advance_ms = 0.0;
  double apply_ms = 0.0;

  double total_ms() const { return sort_ms + split_ms + advance_ms + apply_ms; }

  /// Projects a node span recorded by ComputeSequenced back into the four
  /// phase walls (a missing child reads as 0).
  static PhaseTimings FromSpan(const obs::Span& span);
};

/// LAWA over fact-range partitions on a private thread pool. Registered as
/// "LAWA-P"; supports all three operations (Table II row of LAWA).
class ParallelSetOpAlgorithm final : public SetOpAlgorithm {
 public:
  /// `num_threads` <= 1 degrades to plain sequential LawaSetOp (no pool is
  /// created). `partitions_per_thread` oversubscribes
  /// the split so stragglers even out; the pool itself is created lazily on
  /// first use. `morsel_budget` is the combined (r + s) tuple budget per
  /// morsel of the work-stealing refinement (scheduler.h); 0 picks
  /// MorselAutoBudget, and 1 is legal (every tuple its own morsel — tests
  /// use small budgets to force time splits at test scale). Phase 3 sweeps
  /// on the kernel ResolveSweepKernel picks for the combined input size;
  /// either kernel sweeps each morsel's slice of the sorted tuple arrays in
  /// place.
  explicit ParallelSetOpAlgorithm(std::size_t num_threads,
                                  SortMode sort_mode = SortMode::kComparison,
                                  std::size_t partitions_per_thread = 4,
                                  std::size_t morsel_budget = 0);
  ~ParallelSetOpAlgorithm() override;

  std::string name() const override { return "LAWA-P"; }
  bool Supports(SetOpKind) const override { return true; }

  /// Standalone entry point (registry / benchmarks). The caller must not
  /// mutate the shared context concurrently — the same contract as
  /// sequential LawaSetOp.
  TpRelation Compute(SetOpKind op, const TpRelation& r,
                     const TpRelation& s) const override;

  /// Compute with per-phase wall times (and optionally stats) reported.
  TpRelation ComputeTimed(SetOpKind op, const TpRelation& r,
                          const TpRelation& s, PhaseTimings* timings,
                          LawaStats* stats = nullptr) const;

  /// Executor entry point for concurrent query-subtree evaluation: phases
  /// 1-3 run immediately, the arena-mutating apply phase waits for `ticket`
  /// on `seq`. Every concurrent evaluation against one context must go
  /// through one sequencer.
  ///
  /// `stats`: output_tuples matches the sequential run exactly;
  /// windows_produced may be smaller — a partition whose other input is
  /// empty never sweeps, skipping candidate windows the sequential global
  /// loop produces only to filter out. Proposition 1 bounds both counts.
  ///
  /// `span`: when non-null, the operation records its phase walls as child
  /// spans ("sort", "split", "advance", "apply"; the degenerate sequential
  /// path records only "advance" — the whole interleaved wall) and attaches
  /// the LawaStats to `span` itself. The span's own wall/cpu cover the full
  /// call including sequencer waits.
  TpRelation ComputeSequenced(SetOpKind op, const TpRelation& r,
                              const TpRelation& s, ApplySequencer* seq,
                              std::size_t ticket, LawaStats* stats = nullptr,
                              obs::Span* span = nullptr) const;

  std::size_t num_threads() const { return num_threads_; }

 private:
  ThreadPool* pool() const;

  std::size_t num_threads_;
  SortMode sort_mode_;
  std::size_t partitions_per_thread_;
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
