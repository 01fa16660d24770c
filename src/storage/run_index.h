// Run-indexed storage core: sorted runs, the size-tiered append policy, and
// the k-way merging iterator that presents one logical sorted view.
//
// The LSM-flavored answer to the ROADMAP item "per-epoch latency of a
// continuous query is bounded below by the O(n) MergeSortedAppend into the
// stored relation": an append batch lands as a new sorted run in O(batch)
// instead of merging into the full relation. A size-tiered roll policy —
// after every append, the incoming run merges with its predecessor while the
// predecessor is less than twice its size — keeps the run count logarithmic
// in the data appended since the last compaction, so amortized append work
// is O(batch · log(appended / batch)) and, crucially, independent of the
// size of the compacted base the runs sit in front of. Readers see one
// logical (fact, start, end)-sorted stream through RunMergeIterator,
// regardless of the physical run count; StoredRelation (stored_relation.h)
// wraps the index together with a base level, a per-fact tail map and the
// retention watermark.
//
// Runs are immutable once published and held by shared_ptr, which makes a
// RunIndex a cheap *persistent* value: copying one copies run pointers, not
// tuples. StoredRelation exploits this for its generation snapshots — an
// append or compaction builds a new index sharing every untouched run with
// the published one, and readers holding the old index keep valid spans for
// as long as they hold it.
#ifndef TPSET_STORAGE_RUN_INDEX_H_
#define TPSET_STORAGE_RUN_INDEX_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "relation/tuple.h"

namespace tpset {

/// "No retention": every tuple end is above this watermark.
inline constexpr TimePoint kNoWatermark = std::numeric_limits<TimePoint>::min();

/// Cumulative counters of one relation's storage engine. Surfaced per leaf
/// by ExplainContinuous and mirrored into LawaStats' storage fields.
struct StorageStats {
  std::size_t appends = 0;         ///< accepted append batches
  std::size_t runs_merged = 0;     ///< source runs consumed by merges
  std::size_t compactions = 0;     ///< merges into the base level
  std::size_t tuples_retired = 0;  ///< tuples dropped below the watermark
  std::size_t tail_hits = 0;       ///< O(1) fact-tail lookups served
};

/// One immutable sorted run: a (fact, start, end)-sorted batch, stamped with
/// the latest epoch folded into it (0 = the base level, which predates the
/// epoch counter). Published runs are never mutated — snapshots borrow spans
/// into them.
struct SortedRun {
  std::vector<TpTuple> tuples;
  EpochId epoch = 0;
};

/// K-way merge over sorted spans, yielding tuples in global (fact, start,
/// end) order — the witness-preserving logical view of a run-indexed
/// relation. Ties (possible only for duplicate tuples, which validated
/// appends never produce) break toward the earlier span, keeping the order
/// deterministic either way. Spans must outlive the iterator.
class RunMergeIterator {
 public:
  explicit RunMergeIterator(const std::vector<TupleSpan>& spans);

  bool Valid() const { return !heap_.empty(); }
  const TpTuple& Get() const { return *heap_.front().cur; }
  void Next();

 private:
  struct Cursor {
    const TpTuple* cur;
    const TpTuple* end;
    std::size_t run;
  };

  /// std::*_heap comparator: true when `a` comes *after* `b` (max-heap order
  /// inverted into a min-heap on (tuple, run index)).
  static bool After(const Cursor& a, const Cursor& b);

  std::vector<Cursor> heap_;
};

/// Merges `spans` into `*out` (appended) in (fact, start, end) order,
/// dropping tuples with t.end <= watermark — a window entirely at or below
/// the watermark is retired, one merely straddling it survives intact.
/// Pass kNoWatermark to keep everything. Returns the number dropped.
std::size_t MergeRuns(const std::vector<TupleSpan>& spans, TimePoint watermark,
                      std::vector<TpTuple>* out);

/// The tail of a run-indexed relation: the sorted runs appended since the
/// last compaction, oldest first, with the size-tiered roll policy applied
/// on every append. A value type over shared immutable runs: copies are
/// O(run count) pointer copies and keep every borrowed span alive. Not
/// thread-safe (callers hold StoredRelation's lock or are single-writer);
/// distinct copies may be used from distinct threads freely.
class RunIndex {
 public:
  RunIndex() = default;
  RunIndex(const RunIndex&) = default;
  RunIndex& operator=(const RunIndex&) = default;
  RunIndex(RunIndex&&) = default;
  RunIndex& operator=(RunIndex&&) = default;

  /// Accepts one (fact, start, end)-sorted batch as a new run and applies
  /// the roll policy (merging the incoming run with its predecessors while
  /// sizes are within 2x, counting the consumed sources into
  /// stats->runs_merged). Rolls build fresh runs — published ones are
  /// immutable. With `allow_roll` false the batch lands as-is; StoredRelation
  /// freezes rolls while a compaction claim is pending so the claimed prefix
  /// stays positionally stable. Epochs must be strictly increasing: a stale
  /// or duplicate epoch is rejected — the fence against double-applied
  /// batches after a writer retry. An empty batch is accepted (it records
  /// the epoch, no run is created). O(batch) amortized.
  Status Append(std::vector<TpTuple> batch, EpochId epoch, StorageStats* stats,
                bool allow_roll = true);

  /// Total tuples across all runs.
  std::size_t size() const { return total_; }
  std::size_t run_count() const { return runs_.size(); }
  const std::vector<std::shared_ptr<const SortedRun>>& runs() const {
    return runs_;
  }

  /// Borrowed spans of every non-empty run, oldest first. Valid while any
  /// RunIndex copy holding the runs is alive.
  std::vector<TupleSpan> spans() const;

  /// The latest epoch accepted (0 before any append). Survives Clear() and
  /// WithoutPrefix(): a compaction folds runs away but must not reopen the
  /// epoch fence.
  EpochId last_epoch() const { return last_epoch_; }

  /// Copy of this index without its oldest `k` runs — what survives a
  /// compaction that claimed the k-run prefix. Keeps the epoch fence.
  RunIndex WithoutPrefix(std::size_t k) const;

  /// Drops all runs (after a compaction folded them into the base level).
  void Clear();

 private:
  std::vector<std::shared_ptr<const SortedRun>> runs_;
  std::size_t total_ = 0;
  EpochId last_epoch_ = 0;
};

}  // namespace tpset

#endif  // TPSET_STORAGE_RUN_INDEX_H_
