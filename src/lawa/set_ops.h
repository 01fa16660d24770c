// TP set operations via LAWA (paper Algorithms 2-4, process of Fig. 5:
// sort → LAWA → λ-filter → λ-concatenation).
#ifndef TPSET_LAWA_SET_OPS_H_
#define TPSET_LAWA_SET_OPS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/setop.h"
#include "common/status.h"
#include "lawa/advancer.h"
#include "relation/relation.h"

namespace tpset {

namespace obs {
struct Span;
}

/// How the inputs are brought into (fact, start) order before the sweep.
/// §VI-B: comparison sorting gives O(n log n) overall; a counting-based
/// (radix) sort makes the whole operation linear when applicable.
enum class SortMode { kComparison = 0, kCounting = 1 };

/// The kernel selector the end-to-end benchmark's replay names. Every engine
/// sweeps with the fused kernel (lawa/columnar_advancer.h), so kAuto
/// resolves to kColumnar at every size; nothing in the library calls this.
enum class SweepKernel { kAuto, kColumnar };

inline SweepKernel ResolveSweepKernel(SweepKernel, std::size_t) {
  return SweepKernel::kColumnar;
}

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
};

/// Records one operator's lineage-concatenation wall, in microseconds, into
/// the process metrics (tpset_lineage_concat_usec): LawaSetOp's block
/// interns summed, or the parallel apply turn's ConcatBlock.
void NoteConcatUsec(std::uint64_t usec);

/// Proposition 1's bound on the candidate windows LAWA produces for r op s:
/// 2|r| + 2|s| - |distinct facts of r ∪ s|. EXPLAIN's `bound` attribute and
/// LawaSetOp's output reserve. With `fact_sorted` — both spans in fact
/// order, as every catalog relation, every LAWA output and LawaSetOp's
/// sorted inputs are — it gallops over each fact's run, reading
/// O(log run) tuples per fact; otherwise it sorts the distinct facts.
std::size_t WindowBound(TupleSpan r, TupleSpan s, bool fact_sorted);

/// WindowBound over two relations, in fact order when both carry the
/// sortedness witness.
std::size_t WindowBound(const TpRelation& r, const TpRelation& s);

/// Surviving windows per block of LawaSetOp's sweep. A block holds each
/// window's output tuple, its (λr, λs) pair and its interned id, 36 bytes
/// a window, so 4096 windows take 144 KiB and stay in L2 from the sweep that
/// fills them to the intern and materialisation that drain them.
inline constexpr std::size_t kLawaBlockWindows = 4096;

/// Concatenates one surviving window's lineage pair per the operation's
/// Table I function: the per-window loop that LineageManager::ConcatBlock
/// reproduces for a whole block.
inline LineageId ConcatLineage(SetOpKind op, LineageManager& mgr, LineageId lr,
                               LineageId ls) {
  switch (op) {
    case SetOpKind::kIntersect:
      return mgr.ConcatAnd(lr, ls);
    case SetOpKind::kUnion:
      return mgr.ConcatOr(lr, ls);
    case SetOpKind::kExcept:
      return mgr.ConcatAndNot(lr, ls);
  }
  return kNullLineage;
}

/// Computes r opTp s with LAWA. Inputs must satisfy ValidateSetOpInputs
/// (asserted in debug builds, unchecked in release — use the Checked variant
/// for untrusted input). The result is duplicate-free, change-preserved and
/// sorted by (fact, start).
///
/// It runs a block at a time: the sweep fills up to kLawaBlockWindows
/// surviving windows, LineageManager::ConcatBlock interns their lineage
/// pairs on the calling thread, and the outputs are appended into a tuple
/// array reserved once at WindowBound. Ids, nodes and intern counts are
/// those of concatenating window by window. When `span` is non-null, the
/// three steps' walls, each summed over the blocks, become its children
/// "sweep", "intern" and "materialize". Every call records its intern wall
/// through NoteConcatUsec.
///
/// Change preservation additionally assumes that no input relation carries
/// two *adjacent* same-fact tuples with equivalent lineage — true for every
/// base relation (distinct tuples are distinct variables) and for every
/// output of these operations, but violable by hand-built derived
/// relations; normalize those with CoalesceEquivalent (algebra/) first.
TpRelation LawaSetOp(SetOpKind op, const TpRelation& r, const TpRelation& s,
                     SortMode sort_mode = SortMode::kComparison,
                     LawaStats* stats = nullptr, obs::Span* span = nullptr);

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
/// that survives the per-operation λ-filter (Algorithms 2-4): the paper's
/// Alg. 1 under the paper's filters, kept as the reference. Every engine —
/// LawaSetOp, the parallel morsel sweep and the incremental engine's resume
/// and resweep — runs the fused kernel, ColumnarAdvancer::Sweep, which must
/// emit the identical window stream; columnar_kernel_test,
/// lawa_block_property_test and bench_parallel's kernel A/B hold it to this
/// loop. The loop conditions extend the paper's pseudocode to also drain
/// still-valid tuples (see DESIGN.md, faithfulness note 3): windows keep
/// coming while the operation can still produce output.
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
