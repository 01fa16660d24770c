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
//                MorselBatch (per-worker deques + work stealing); what
//                happens to the surviving windows depends on the apply mode
//                (below);
//   4. apply   — the sequential, arena-mutating tail, gated by the
//                ApplySequencer when query subtrees race. The apply overlaps
//                phase 3: morsel i is applied as soon as morsels <= i
//                finished sweeping, while later morsels are still advancing
//                — apply *order* (the determinism invariant) is preserved,
//                barrier completion is not required.
//
// Two apply modes trade strictness of the equivalence guarantee for the
// size of the sequential term:
//
//  * ApplyMode::kBitIdentical (default): phase 3 emits *pending* windows
//    (fact, interval, λr, λs) and phase 4 runs the same Concat calls in the
//    same order as sequential LawaSetOp — the arena evolves identically and
//    every output tuple (fact, interval, lineage id) matches the sequential
//    run bit for bit.
//  * ApplyMode::kStaged: each partition sweep interns its concatenations
//    into a thread-local StagingArena during phase 3 and builds its output
//    tuples with partition-local ids; phase 4 shrinks to
//    LineageManager::SpliceStaged per partition (deterministic id remap +
//    append) plus a bulk tuple splice. Output is deterministic and equals
//    the sequential run tuple for tuple in (fact, interval) with
//    probability-equal lineage — node *ids* may differ (see
//    lineage/staging.h). The sequencer critical section shrinks from
//    O(output · intern cost) to O(staged cells), so concurrent subtrees
//    overlap far more.
//
// See DESIGN.md ("Partitioned parallel execution", "Staged apply") for the
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

/// How the arena-mutating apply phase of a parallel set operation runs.
enum class ApplyMode {
  kBitIdentical = 0,  ///< serialized Concat replay; bit-equal to sequential
  kStaged = 1,        ///< per-partition staging arenas + sequential splice
};

/// Wall-clock breakdown of one parallel set operation, phase by phase.
/// `advance_ms` includes staged-mode lineage staging (it runs inside the
/// partition sweeps); `apply_ms` is the sequential arena-mutating tail —
/// the sequencer critical section under concurrent subtree evaluation.
/// Apply overlaps the sweeps: `apply_ms` is the time actually spent
/// splicing/replaying and `advance_ms` the rest of the overlapped span (so
/// the sum still approximates the combined wall time of phases 3+4).
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
  /// created; `apply_mode` is then irrelevant — the sequential algorithm is
  /// bit-identical by definition). `partitions_per_thread` oversubscribes
  /// the split so stragglers even out; the pool itself is created lazily on
  /// first use. `morsel_budget` is the combined (r + s) tuple budget per
  /// morsel of the work-stealing refinement (scheduler.h); 0 picks
  /// MorselAutoBudget, and 1 is legal (every tuple its own morsel — tests
  /// use small budgets to force time splits at test scale). Phase 3 sweeps
  /// on the kernel ResolveSweepKernel picks for the combined input size;
  /// under kColumnar, morsels sweep column sub-spans of one shared SoA view.
  explicit ParallelSetOpAlgorithm(std::size_t num_threads,
                                  SortMode sort_mode = SortMode::kComparison,
                                  std::size_t partitions_per_thread = 4,
                                  ApplyMode apply_mode = ApplyMode::kBitIdentical,
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
  ApplyMode apply_mode() const { return apply_mode_; }

 private:
  ThreadPool* pool() const;

  std::size_t num_threads_;
  SortMode sort_mode_;
  std::size_t partitions_per_thread_;
  ApplyMode apply_mode_;
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
