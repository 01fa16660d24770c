// TP set operations via LAWA (paper Algorithms 2-4, process of Fig. 5:
// sort → LAWA → λ-filter → λ-concatenation).
#ifndef TPSET_LAWA_SET_OPS_H_
#define TPSET_LAWA_SET_OPS_H_

#include <cassert>

#include "common/setop.h"
#include "common/status.h"
#include "lawa/advancer.h"
#include "relation/relation.h"

namespace tpset {

/// How the inputs are brought into (fact, start) order before the sweep.
/// §VI-B: comparison sorting gives O(n log n) overall; a counting-based
/// (radix) sort makes the whole operation linear when applicable.
enum class SortMode { kComparison = 0, kCounting = 1 };

/// Which sweep kernel runs the LAWA advance loop. kScalar is the reference
/// tuple-at-a-time advancer (lawa/advancer.h, the paper's Alg. 1);
/// kColumnar is the fused kernel (lawa/columnar_advancer.h), which reads the
/// same sorted tuple arrays in place — identical window stream. Every engine
/// resolves kAuto per sweep: columnar at kColumnarAutoThreshold combined
/// input tuples and above, scalar below it. The threshold is unchanged from
/// when the fused kernel built a column projection per sweep, and was not
/// re-measured after that build went away.
enum class SweepKernel { kAuto = 0, kScalar = 1, kColumnar = 2 };

/// kAuto cutover point, in combined input tuples (nr + ns).
inline constexpr std::size_t kColumnarAutoThreshold = 64;

/// The concrete kernel kAuto resolves to for a sweep of `combined_tuples`.
inline SweepKernel ResolveSweepKernel(SweepKernel kernel,
                                      std::size_t combined_tuples) {
  if (kernel != SweepKernel::kAuto) return kernel;
  return combined_tuples >= kColumnarAutoThreshold ? SweepKernel::kColumnar
                                                   : SweepKernel::kScalar;
}

/// "auto" / "scalar" / "columnar" — flag values and EXPLAIN/bench labels.
const char* SweepKernelName(SweepKernel kernel);

/// Per-run statistics for complexity checks and benchmarks.
struct LawaStats {
  std::size_t windows_produced = 0;  ///< candidate windows (Prop. 1 bound)
  std::size_t output_tuples = 0;     ///< windows that passed the λ-filter
  /// Inputs (0-2) for which the per-operation copy + sort was skipped
  /// because the relation carried the sortedness witness — catalog
  /// relations (Register validates order) and set-operation outputs
  /// (emitted in order) take the zero-sort fast path.
  std::size_t sort_skipped = 0;

  // Morsel-scheduler counters (src/parallel/scheduler.h; cumulative for
  // continuous-query operators). Sequential runs leave them zero.
  /// Morsels executed by the work-stealing batch (= plan size).
  std::size_t morsels_run = 0;
  /// Morsels a worker took from another worker's deque. The one
  /// scheduling-dependent counter — everything else is deterministic.
  std::size_t morsels_stolen = 0;
  /// Facts heavier than the morsel budget that were split at clean time
  /// boundaries into sub-morsels.
  std::size_t facts_split = 0;

  // Continuous-query maintenance counters (src/incremental/, cumulative per
  // operator node). One-shot runs leave them zero.
  /// Facts whose sweep continued from the persisted AdvancerCheckpoint (the
  /// delta landed at/after the fact's frontier; closed prefix reused).
  std::size_t facts_resumed = 0;
  /// Facts reswept from scratch (delta straddled the frontier or carried
  /// retractions); unchanged windows still reuse their old lineage.
  std::size_t facts_reswept = 0;
  /// Delta epochs that reached this operator with a non-empty input delta.
  std::size_t epochs_applied = 0;

  // Storage counters (run-indexed stream storage, src/storage/). Operator
  // nodes fill tuples_retired when a retention rebase drops output windows
  // below the watermark (incremental_set_op.h Rebase); leaf relations
  // surface their StorageStats (runs_merged / tail_hits / tuples_retired)
  // through the same ExplainContinuous plan rendering.
  /// Source runs consumed by storage merges (tail rolls + compactions).
  std::size_t runs_merged = 0;
  /// Tuples dropped below the retention watermark (storage compactions for
  /// leaves; output windows dropped by checkpoint rebase for operators).
  std::size_t tuples_retired = 0;
  /// O(1) fact-tail lookups served by the storage tail map.
  std::size_t tail_hits = 0;

  // Sweep-kernel counters (which kernel ran the advance loop). Sequential
  // runs record 1 sweep; parallel runs one per morsel; incremental runs one
  // per fact apply. EXPLAIN renders `kernel=` from these.
  std::size_t sweeps_scalar = 0;
  std::size_t sweeps_columnar = 0;
};

/// Records `count` sweeps run under `resolved` (a concrete kernel, not
/// kAuto) into the process metrics (tpset_lawa_sweep_kernel_*_total) and,
/// if `stats` is non-null, its sweeps_scalar / sweeps_columnar.
void NoteSweepKernels(SweepKernel resolved, std::size_t count,
                      LawaStats* stats);

/// Concatenates one surviving window's lineage pair per the operation's
/// Table I function. Sink is LineageManager or StagingArena — both expose
/// the same null-aware Concat* interface.
template <typename Sink>
LineageId ConcatLineage(SetOpKind op, Sink& sink, LineageId lr, LineageId ls) {
  switch (op) {
    case SetOpKind::kIntersect:
      return sink.ConcatAnd(lr, ls);
    case SetOpKind::kUnion:
      return sink.ConcatOr(lr, ls);
    case SetOpKind::kExcept:
      return sink.ConcatAndNot(lr, ls);
  }
  return kNullLineage;
}

/// Computes r opTp s with LAWA. Inputs must satisfy ValidateSetOpInputs
/// (asserted in debug builds, unchecked in release — use the Checked variant
/// for untrusted input). The result is duplicate-free, change-preserved and
/// sorted by (fact, start).
///
/// Change preservation additionally assumes that no input relation carries
/// two *adjacent* same-fact tuples with equivalent lineage — true for every
/// base relation (distinct tuples are distinct variables) and for every
/// output of these operations, but violable by hand-built derived
/// relations; normalize those with CoalesceEquivalent (algebra/) first.
TpRelation LawaSetOp(SetOpKind op, const TpRelation& r, const TpRelation& s,
                     SortMode sort_mode = SortMode::kComparison,
                     LawaStats* stats = nullptr);

/// Validating wrapper around LawaSetOp.
Result<TpRelation> LawaSetOpChecked(SetOpKind op, const TpRelation& r,
                                    const TpRelation& s,
                                    SortMode sort_mode = SortMode::kComparison);

/// r ∪Tp s (Algorithm 3).
inline TpRelation LawaUnion(const TpRelation& r, const TpRelation& s) {
  return LawaSetOp(SetOpKind::kUnion, r, s);
}
/// r ∩Tp s (Algorithm 2).
inline TpRelation LawaIntersect(const TpRelation& r, const TpRelation& s) {
  return LawaSetOp(SetOpKind::kIntersect, r, s);
}
/// r −Tp s (Algorithm 4).
inline TpRelation LawaExcept(const TpRelation& r, const TpRelation& s) {
  return LawaSetOp(SetOpKind::kExcept, r, s);
}

/// Sorts tuples by (fact, start, end). kComparison uses std::sort;
/// kCounting uses an LSD radix sort on (fact, start) — linear in the input,
/// the §VI-B counting-based alternative. Exposed for the ablation bench.
void SortTuples(std::vector<TpTuple>* tuples, SortMode mode);

/// Drives one advancer sweep for `op`, invoking emit(w) for every window
/// that survives the per-operation λ-filter (Algorithms 2-4). This is the
/// single definition of the drain conditions and filters, shared by
/// sequential LawaSetOp and both parallel sweep kernels — what the emit
/// callback does with a surviving window (concatenate into the shared
/// arena, defer, or stage thread-locally) is the only thing that differs
/// between them. The loop conditions extend the paper's pseudocode to also
/// drain still-valid tuples (see DESIGN.md, faithfulness note 3): windows
/// keep coming while the operation can still produce output.
template <typename Emit>
void ForEachSurvivingWindow(SetOpKind op, LineageAwareWindowAdvancer& adv,
                            Emit&& emit) {
  LineageAwareWindow w;
  switch (op) {
    case SetOpKind::kIntersect:
      while ((adv.HasPendingR() || adv.HasValidR()) &&
             (adv.HasPendingS() || adv.HasValidS())) {
        bool produced = adv.Next(&w);
        assert(produced);
        (void)produced;
        if (w.lr != kNullLineage && w.ls != kNullLineage) emit(w);
      }
      break;
    case SetOpKind::kUnion:
      while (adv.HasPendingR() || adv.HasPendingS() || adv.HasValidR() ||
             adv.HasValidS()) {
        bool produced = adv.Next(&w);
        assert(produced);
        (void)produced;
        // Every window overlaps at least one valid tuple, so the ∪Tp filter
        // (λr ≠ null ∨ λs ≠ null) always passes.
        emit(w);
      }
      break;
    case SetOpKind::kExcept:
      while (adv.HasPendingR() || adv.HasValidR()) {
        bool produced = adv.Next(&w);
        assert(produced);
        (void)produced;
        if (w.lr != kNullLineage) emit(w);
      }
      break;
  }
}

}  // namespace tpset

#endif  // TPSET_LAWA_SET_OPS_H_
