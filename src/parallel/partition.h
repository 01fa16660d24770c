// Fact-range partitioning of (fact, start)-sorted TP tuple runs.
//
// LAWA windows never span fact boundaries (the advancer's status resets
// whenever currFact changes), so a set operation over inputs sorted by
// (fact, start) decomposes into independent operations over disjoint fact
// ranges — the partition-then-merge structure of radix-partitioned joins,
// with the fact as the partitioning key. The same holds for merging sorted
// runs, which the storage engine's compaction partitions this way.
#ifndef TPSET_PARALLEL_PARTITION_H_
#define TPSET_PARALLEL_PARTITION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "relation/tuple.h"

namespace tpset {

/// A contiguous index range of each of two sorted inputs: one morsel of a
/// parallel sweep (parallel/scheduler.h). Successive morsels cover
/// increasing (fact, time) ranges; only a fact heavier than the morsel
/// budget spans several, cut at clean time boundaries.
struct FactPartition {
  std::size_t r_begin = 0, r_end = 0;
  std::size_t s_begin = 0, s_end = 0;

  /// Combined tuple count (the balancing weight).
  std::size_t size() const { return (r_end - r_begin) + (s_end - s_begin); }
};

/// One partition of several parallel sorted runs: slices[i] is the index
/// range [begin, end) of run i covering the partition's fact range. All
/// tuples of a fact land in exactly one partition, and the fact ranges of
/// successive partitions are disjoint and increasing.
struct RunPartition {
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  std::size_t size = 0;  ///< combined tuple count (the balancing weight)
};

/// Cuts any number of (fact, start)-sorted runs at common fact boundaries
/// into at most `max_partitions` non-empty partitions balanced by combined
/// tuple count (a single heavy fact is never split; fewer partitions come
/// back when the runs hold fewer facts, and empty runs yield none). Cut
/// facts are found by binary search on the combined rank. The run-indexed
/// storage engine uses this to parallelize compaction — each partition
/// k-way-merges its slices independently and the outputs concatenate in
/// fact order.
std::vector<RunPartition> PartitionRunsByFact(
    const std::vector<std::pair<const TpTuple*, std::size_t>>& runs,
    std::size_t max_partitions);

/// One contiguous index range [begin, end) of a weighted item sequence.
struct WeightRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Cuts [0, weights.size()) into at most `max_groups` non-empty contiguous
/// ranges balanced by total weight (an item is never split, so a single
/// heavy item ends up alone in its range). The incremental engine uses this
/// to partition the facts touched by a delta batch into fact ranges — the
/// items are touched facts in FactId order, weighted by their sweep cost —
/// before fanning the per-fact delta apply out to the pool.
std::vector<WeightRange> PartitionByWeight(const std::vector<std::size_t>& weights,
                                           std::size_t max_groups);

}  // namespace tpset

#endif  // TPSET_PARALLEL_PARTITION_H_
