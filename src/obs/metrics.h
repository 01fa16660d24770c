// Process-wide metrics registry: named counters, gauges and log-scale
// histograms, sharded per thread so hot paths (the scheduler's steal loop,
// the advancer's sweep drivers, storage appends) record with plain relaxed
// atomics and zero cross-thread contention. Aggregation happens only at
// scrape time.
//
// Naming scheme: `tpset_<subsystem>_<name>` with the unit suffixed
// (`_total` for counters, `_usec`/`_ms` for time-valued histograms), e.g.
// tpset_sched_morsels_stolen_total, tpset_storage_append_latency_usec.
// DESIGN.md ("Observability") documents the full catalog.
//
// Hot-path cost and the kill switch:
//  * Counter::Increment is one relaxed fetch_add on a cache-line-private
//    shard cell plus one relaxed flag load — no branch misprediction in the
//    steady state, no false sharing between recording threads.
//  * MetricsRegistry::set_enabled(false) turns every record call into a
//    flag-load-and-return (scrapes still work; values freeze).
//
// Handles returned by GetCounter/GetGauge/GetHistogram are stable for the
// registry's lifetime (node-based storage), so call sites look them up once
// through a static local and then record lock-free:
//
//   static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
//       "tpset_pool_tasks_total", "tasks executed by all thread pools");
//   c.Increment();
#ifndef TPSET_OBS_METRICS_H_
#define TPSET_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tpset::obs {

/// Number of per-thread shard cells per metric. A power of two; threads map
/// onto cells by a once-per-thread hash of their id. 16 covers every pool
/// size the engine runs (8 workers + caller threads) with few collisions,
/// and a collision only means two threads share one atomic — correctness is
/// unaffected.
inline constexpr std::size_t kMetricShards = 16;

/// This thread's shard index, computed once per thread.
inline std::size_t ShardIndex() {
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kMetricShards - 1);
  return shard;
}

namespace internal {
/// Process-wide runtime kill switch (default on). Checked relaxed on every
/// record call; scrapes ignore it.
extern std::atomic<bool> g_recording_enabled;

inline bool RecordingEnabled() {
  return g_recording_enabled.load(std::memory_order_relaxed);
}

/// One cache line per shard cell so two threads bumping the same metric
/// never invalidate each other's line.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace internal

/// Monotone counter. Increment is wait-free and contention-free per shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(std::uint64_t n = 1) {
    if (!internal::RecordingEnabled()) return;
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards. Monotone across successive calls (shards only
  /// grow; relaxed loads may lag concurrent increments, never exceed them).
  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const internal::ShardCell& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  internal::ShardCell shards_[kMetricShards];
};

/// Instantaneous signed value (queue depth, resident tuples). Set/Add are
/// single-atomic — gauges are updated at coarse points (under a pool or
/// storage lock), never in the sweep loop, so sharding would buy nothing
/// and Set would be ill-defined across shards.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) {
    if (!internal::RecordingEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    if (!internal::RecordingEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-scale (base-2) histogram over non-negative integer-valued samples
/// (latencies in microseconds, sizes in tuples). Bucket 0 holds samples of
/// value 0; bucket i >= 1 holds [2^(i-1), 2^i). 40 buckets cover half a
/// trillion — two weeks in microseconds.
inline constexpr std::size_t kHistogramBuckets = 40;

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label value);
/// the last bucket is unbounded (+Inf) by construction of BucketIndex.
inline std::uint64_t HistogramBucketBound(std::size_t i) {
  return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::uint64_t value) {
    if (!internal::RecordingEnabled()) return;
    Shard& s = shards_[ShardIndex()];
    s.buckets[BucketIndex(value)].value.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket for `value`: 0 for 0, else floor(log2(value)) + 1, clamped.
  static std::size_t BucketIndex(std::uint64_t value) {
    if (value == 0) return 0;
    std::size_t idx = 64 - static_cast<std::size_t>(__builtin_clzll(value));
    return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
  }

  /// Aggregated per-bucket counts (non-cumulative), total count and sum.
  void Snapshot(std::vector<std::uint64_t>* buckets, std::uint64_t* count,
                std::uint64_t* sum) const {
    buckets->assign(kHistogramBuckets, 0);
    *count = 0;
    *sum = 0;
    for (const Shard& s : shards_) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t v = s.buckets[b].value.load(std::memory_order_relaxed);
        (*buckets)[b] += v;
        *count += v;
      }
      *sum += s.sum.load(std::memory_order_relaxed);
    }
  }

 private:
  // Per-shard bucket array: the whole shard is one thread's private region;
  // only the shard *start* needs cache-line alignment.
  struct alignas(64) Shard {
    internal::ShardCell buckets[kHistogramBuckets];
    std::atomic<std::uint64_t> sum{0};
  };
  Shard shards_[kMetricShards];
};

/// One scraped metric, aggregated across shards.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;                    // kCounter
  std::int64_t gauge = 0;                       // kGauge
  std::vector<std::uint64_t> buckets;           // kHistogram, non-cumulative
  std::uint64_t hist_count = 0;                 // kHistogram
  std::uint64_t hist_sum = 0;                   // kHistogram
};

/// A full scrape: every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The snapshot of `name`, or nullptr.
  const MetricSnapshot* Find(const std::string& name) const;
};

/// Registry of named metrics. Get* registers on first use and returns a
/// stable reference; re-registration with the same name returns the same
/// metric (the help string of the first registration wins). Thread-safe;
/// the per-metric record calls are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every engine layer records into.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help);
  Gauge& GetGauge(const std::string& name, const std::string& help);
  Histogram& GetHistogram(const std::string& name, const std::string& help);

  /// Aggregates every registered metric, sorted by name. Safe to call
  /// concurrently with record calls (relaxed reads — a scrape racing an
  /// increment may miss it; the next scrape sees it).
  MetricsSnapshot Scrape() const;

  /// Runtime kill switch, process-wide (all registries share it): false
  /// freezes every metric at its current value.
  static void set_enabled(bool enabled);
  static bool enabled();

 private:
  template <typename M>
  M& GetOrCreate(std::map<std::string, std::pair<std::unique_ptr<M>, std::string>>* map,
                 const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  // Node-based maps: handles stay valid as more metrics register.
  std::map<std::string, std::pair<std::unique_ptr<Counter>, std::string>> counters_;
  std::map<std::string, std::pair<std::unique_ptr<Gauge>, std::string>> gauges_;
  std::map<std::string, std::pair<std::unique_ptr<Histogram>, std::string>> histograms_;
};

/// Microseconds between `t0` and now, for histogram observations.
std::uint64_t ElapsedUsec(std::chrono::steady_clock::time_point t0);

}  // namespace tpset::obs

#endif  // TPSET_OBS_METRICS_H_
