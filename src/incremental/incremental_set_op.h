// One TP set operation maintained incrementally: per-fact LAWA resume.
//
// The LAWA sweep visits (fact, time) in increasing order and its status (the
// AdvancerCheckpoint) is O(1) per fact — so a completed sweep of one fact is
// a checkpoint the next epoch can pick up. An IncrementalSetOp persists, per
// fact: the accumulated side inputs, the emitted output windows (with the
// (λr, λs) pair each was concatenated from), and the advancer checkpoint.
// Applying an epoch's input delta then touches only the facts in the delta:
//
//  * resume — the delta carries no retractions, appends in time order on
//    each side, and starts at or after the fact's sweep frontier
//    (checkpoint.prev_win_te): the advancer is restored and continues over
//    the appended tuples. Closed windows are untouched; the epoch emits
//    pure insertions. O(delta) per fact.
//  * resweep — the delta straddles the frontier (an append valid for its
//    relation can still predate the frontier of an operator that stopped
//    early, e.g. ∩Tp once one side drains) or carries retractions: the
//    fact's inputs are patched and swept from scratch. The fresh window
//    stream is diffed against the stored one on (interval, λr, λs) — a
//    window whose interval and input lineages are unchanged keeps its old
//    output tuple verbatim (no re-concatenation); windows that disappeared
//    are emitted as retractions, new ones as insertions.
//
// Facts not in the delta are never visited. Either way the accumulated
// per-fact output equals what a from-scratch LawaSetOp over the accumulated
// inputs would produce — the equivalence the continuous-query property
// tests pin down.
//
// A per-fact apply only sweeps: it records each new window and leaves its
// lineage unset. Apply then interns the recorded (λr, λs) pairs in fact
// order with LineageManager::ConcatBlock on the calling thread, so the ids,
// nodes and intern counts are those of concatenating window by window at
// one thread, whatever the thread count.
#ifndef TPSET_INCREMENTAL_INCREMENTAL_SET_OP_H_
#define TPSET_INCREMENTAL_INCREMENTAL_SET_OP_H_

#include <map>
#include <vector>

#include "common/setop.h"
#include "incremental/delta.h"
#include "lawa/advancer.h"
#include "lawa/set_ops.h"
#include "lineage/lineage.h"
#include "parallel/thread_pool.h"
#include "relation/relation.h"

namespace tpset {

/// Persistent sweep state of one TP set operation. See the file comment.
class IncrementalSetOp {
 public:
  /// Per-fact applies sweep with the fused kernel (ColumnarAdvancer), as
  /// LawaSetOp does: a resume restores the fact's checkpoint on its grown
  /// side arrays and sweeps only the appended suffix, a resweep sweeps the
  /// whole fact.
  explicit IncrementalSetOp(SetOpKind op) : op_(op) {}
  IncrementalSetOp(const IncrementalSetOp&) = delete;
  IncrementalSetOp& operator=(const IncrementalSetOp&) = delete;

  SetOpKind op() const { return op_; }

  /// Applies one epoch's input deltas (left / right side of the operation)
  /// and returns the output delta. The touched facts are cut into fact
  /// ranges: one without a multi-worker `pool`, else up to two per worker,
  /// balanced by sweep cost and swept on the pool. The calling thread
  /// interns each range's new windows into `mgr` in fact order as soon as
  /// the range is swept, so ids and arena contents equal a sequential
  /// apply's. The caller must hold exclusive access to the context for the
  /// duration.
  DeltaMap Apply(const DeltaMap& left, const DeltaMap& right,
                 LineageManager& mgr, ThreadPool* pool = nullptr);

  /// Retention rebase. After the leaves' storage retired every tuple ending
  /// at or below `watermark` (StoredRelation::Compact), the persisted sweep
  /// state must lose the same prefix or its checkpoints go stale: per fact,
  /// drops the side-input prefix and the emitted-window prefix whose
  /// intervals end at or below the watermark (per-fact inputs and windows
  /// are non-overlapping start-ordered chains, so "ends at or below" is a
  /// prefix), shifts the advancer checkpoint cursors down by the dropped
  /// input counts (the checkpoint's valid tuples are held by value, so a
  /// retired-but-still-valid tuple keeps influencing the window it is part
  /// of — exactly the straddling-window semantics), and erases facts whose
  /// state empties entirely. No retractions are emitted: retention forgets,
  /// it does not retract — subscribers compare state above the watermark
  /// (the clip-equivalence pinned by tests/retention_test.cc). Returns the
  /// number of output windows retired (also added to stats().tuples_retired).
  std::size_t Rebase(TimePoint watermark);

  /// Cumulative maintenance counters: epochs_applied / facts_resumed /
  /// facts_reswept, windows_produced (advancer invocations, including
  /// resweeps), output_tuples (current accumulated size), tuples_retired
  /// (output windows dropped by retention rebase).
  const LawaStats& stats() const { return stats_; }

  /// Current accumulated output size.
  std::size_t accumulated_size() const { return accumulated_; }

  /// Appends the accumulated output — what a from-scratch run over the
  /// accumulated inputs would produce — to `out` in (fact, start) order.
  void AppendAccumulated(TpRelation* out) const;

 private:
  /// One emitted output window: the interval, the input-lineage pair it was
  /// concatenated from (the resweep diff key) and the concatenated lineage.
  struct OutTuple {
    Interval t;
    LineageId lr;
    LineageId ls;
    LineageId lineage;
  };

  struct FactState {
    std::vector<TpTuple> r, s;   ///< accumulated side inputs, (start) order
    std::vector<OutTuple> out;   ///< accumulated output windows, (start) order
    AdvancerCheckpoint ckpt;     ///< sweep status after the last epoch
  };

  /// Result of applying one fact's delta. Its new windows are in
  /// FactState::out and delta.inserted with their lineage unset;
  /// delta.inserted[k] is the window at out index new_out[k].
  struct FactApplyResult {
    FactDelta delta;
    std::vector<std::size_t> new_out;
    bool resumed = false;
    std::size_t windows_produced = 0;
  };

  /// Sweeps one fact's delta into `st` without touching the lineage arena.
  FactApplyResult ApplyFact(FactId fact, FactState& st, const FactDelta* l,
                            const FactDelta* r);

  void Fold(const FactApplyResult& res);

  SetOpKind op_;
  std::map<FactId, FactState> facts_;
  LawaStats stats_;
  std::size_t accumulated_ = 0;
};

}  // namespace tpset

#endif  // TPSET_INCREMENTAL_INCREMENTAL_SET_OP_H_
