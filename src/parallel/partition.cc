#include "parallel/partition.h"

#include <algorithm>
#include <utility>

#include "common/types.h"

namespace tpset {

namespace {

// First index of tuples[0..n) whose fact is >= f. Sorted-by-(fact, start)
// input makes this a pure fact lower bound.
std::size_t FactLowerBound(const TpTuple* tuples, std::size_t n, FactId f) {
  auto it = std::lower_bound(
      tuples, tuples + n, f,
      [](const TpTuple& t, FactId fact) { return t.fact < fact; });
  return static_cast<std::size_t>(it - tuples);
}

}  // namespace

std::vector<RunPartition> PartitionRunsByFact(
    const std::vector<std::pair<const TpTuple*, std::size_t>>& runs,
    std::size_t max_partitions) {
  std::size_t total = 0;
  for (const auto& [data, n] : runs) {
    (void)data;
    total += n;
  }
  std::vector<RunPartition> parts;
  if (total == 0) return parts;
  if (max_partitions == 0) max_partitions = 1;

  auto count_below = [&](FactId f) {
    std::size_t count = 0;
    for (const auto& [data, n] : runs) count += FactLowerBound(data, n, f);
    return count;
  };

  std::vector<std::size_t> prev(runs.size(), 0);
  std::size_t prev_total = 0;
  for (std::size_t i = 1; i < max_partitions; ++i) {
    const std::size_t target = total * i / max_partitions;
    FactId lo = 0, hi = kInvalidFact;  // no real fact is kInvalidFact
    while (lo < hi) {
      const FactId mid = lo + (hi - lo) / 2;
      if (count_below(mid) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    RunPartition part;
    part.slices.reserve(runs.size());
    std::size_t cut_total = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const std::size_t cut = FactLowerBound(runs[r].first, runs[r].second, lo);
      part.slices.emplace_back(prev[r], cut);
      cut_total += cut;
    }
    if (cut_total == prev_total) continue;  // skewed fact: no split
    part.size = cut_total - prev_total;
    for (std::size_t r = 0; r < runs.size(); ++r) prev[r] = part.slices[r].second;
    prev_total = cut_total;
    parts.push_back(std::move(part));
    if (prev_total == total) break;
  }
  if (prev_total < total) {
    RunPartition part;
    part.slices.reserve(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      part.slices.emplace_back(prev[r], runs[r].second);
    }
    part.size = total - prev_total;
    parts.push_back(std::move(part));
  }
  return parts;
}

std::vector<WeightRange> PartitionByWeight(const std::vector<std::size_t>& weights,
                                           std::size_t max_groups) {
  std::vector<WeightRange> groups;
  const std::size_t n = weights.size();
  if (n == 0) return groups;
  if (max_groups == 0) max_groups = 1;

  std::size_t total = 0;
  for (std::size_t w : weights) total += w;

  // Greedy target walk, mirroring PartitionRunsByFact: the k-th cut falls
  // where the running weight first reaches k/max_groups of the total.
  std::size_t begin = 0;
  std::size_t running = 0;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    running += weights[i];
    const std::size_t remaining_groups = max_groups - emitted;
    if (remaining_groups <= 1) continue;
    const std::size_t target = total * (emitted + 1) / max_groups;
    if (running >= target && i + 1 < n) {
      groups.push_back({begin, i + 1});
      begin = i + 1;
      ++emitted;
    }
  }
  groups.push_back({begin, n});
  return groups;
}

}  // namespace tpset
