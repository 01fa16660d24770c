// Flight recorder: metric history, slow-query exemplars, crash dumps.
//
// PR 6's MetricsRegistry answers "what is the value now"; every scrape is an
// isolated snapshot. The recorder adds *time*: a background collector thread
// samples the registry on a fixed tick (default 250ms) into per-metric
// fixed-size ring buffers, so any caller can ask "what happened over the
// last N seconds" — windowed min/max/avg, delta-rates for counters, and a
// windowed p99 for histograms (computed from bucket deltas between the
// window's edge samples, so it reflects only the window, not process
// lifetime). On top of the rings sit two retention stores:
//
//  * a slow-execution log: executions (queries, continuous-query epochs)
//    whose wall time exceeds a p99-derived or absolute threshold retain
//    their full QueryProfile span tree as a JSON exemplar in a bounded ring
//    (oldest evicted);
//  * the process-wide structured EventLog (obs/events.h), snapshotted into
//    every flight record.
//
// Concurrency protocol: every metric history and the slow-exemplar log is
// an obs::StampedRing (obs/ring.h), the one module that decides how a
// reader detects a torn or lapped record. The collector is each metric
// ring's only writer; readers take at most capacity-1 trailing samples (the
// newest slot may be mid-write) and keep only consecutive seqs that end at
// the newest, so History races the tick TSan-clean. Slow-log writers
// serialize on slow_mu_ and never drop. Slow thresholds are published, not
// computed per call: the first Start publishes the frozen floor and every
// tick each kind's ring p99, so SlowThresholdMs is two relaxed loads. The
// tracked-metric table is a fixed-capacity append-only array with an
// atomic published count — no allocation, iterable from a signal handler.
//
// Crash-dump diagnostics: InstallCrashHandler(path) registers a handler for
// SIGSEGV / SIGABRT / SIGTERM that writes the rings, recent events, and
// retained exemplars as one JSON flight-record file, then re-raises the
// signal. The handler uses only pre-allocated buffers (reserved at install
// time), relaxed atomic loads with bounded retries, and async-signal-safe
// write(2) — no malloc, no stdio, no locks — so it works even if the
// process died mid-Emit or was forked mid-tick. DumpNow(path) writes the
// same JSON from normal code. scripts/flight_record_schema.json documents
// the format; scripts/validate_flight_record.py enforces it in CI.
#ifndef TPSET_OBS_RECORDER_H_
#define TPSET_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/ring.h"

namespace tpset::obs {

struct RecorderOptions {
  /// Collector sampling period.
  std::chrono::milliseconds tick{250};

  /// Samples retained per metric. Readers see at most capacity-1 of them
  /// (the newest slot may be mid-write). 256 at the default tick is ~64s of
  /// history.
  std::size_t ring_capacity = 256;

  /// Absolute slow-execution threshold floor in milliseconds. An execution
  /// is retained as an exemplar when its wall exceeds
  /// max(floor, p99 of its kind's latency ring over the full ring window).
  double slow_floor_ms = 25.0;

  /// Retained slow-execution exemplars (oldest evicted).
  std::size_t slow_capacity = 16;

  /// Bounds enforced by Validate(): nonsense configurations are rejected,
  /// not silently clamped (a clamp hides the typo that made an operator
  /// think they were sampling at 1ms when they got 1s).
  static constexpr std::int64_t kMinTickMs = 1;
  static constexpr std::int64_t kMaxTickMs = 60 * 60 * 1000;  // 1h: "idle"
  static constexpr std::size_t kMinRingCapacity = 4;
  static constexpr std::size_t kMaxRingCapacity = 1 << 20;
  static constexpr std::size_t kMaxSlowCapacity = 65536;

  /// InvalidArgument unless every knob is inside its documented bounds:
  /// tick in [1ms, 1h], ring_capacity in [4, 1M], slow_floor_ms >= 0,
  /// slow_capacity in [1, 65536].
  Status Validate() const;

  /// `base` overridden by the environment knobs, validated:
  ///   TPSET_OBS_SAMPLE_MS — collector tick in milliseconds
  ///   TPSET_OBS_RING_CAP  — samples retained per metric ring
  /// Unset (or empty) variables keep `base`'s value; a non-numeric value or
  /// one outside the Validate() bounds is InvalidArgument naming the
  /// variable — callers should fail loudly rather than run with a config
  /// the operator didn't ask for.
  static Result<RecorderOptions> FromEnv(RecorderOptions base);
  static Result<RecorderOptions> FromEnv();  ///< FromEnv over the defaults
};

/// Windowed statistics over one metric's ring. Semantics per kind:
///  * counter: first/last are the raw cumulative values at the window
///    edges; min/max/avg are over *per-tick deltas* (so a burst tick stands
///    out); rate_per_sec is (last-first)/window.
///  * gauge: first/last/min/max/avg over the sampled values; rate 0.
///  * histogram: first/last are cumulative observation counts at the window
///    edges; min/max/avg are per-tick observation-count deltas;
///    rate_per_sec is observations/sec; p99 is the windowed 99th-percentile
///    upper bucket bound from the bucket-count deltas; avg_value is
///    (sum delta)/(count delta) — the mean observed value in the window.
struct HistoryStats {
  MetricSnapshot::Kind kind = MetricSnapshot::Kind::kCounter;
  std::size_t samples = 0;  ///< ring samples inside the window
  double window_sec = 0.0;  ///< actual span between edge samples
  std::int64_t first = 0;
  std::int64_t last = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double avg = 0.0;
  double rate_per_sec = 0.0;
  double p99 = 0.0;        ///< histograms only
  double avg_value = 0.0;  ///< histograms only
};

/// One retained slow execution.
struct SlowExemplar {
  std::uint64_t seq = 0;  ///< global retention order (1-based)
  std::int64_t ts_unix_us = 0;
  double wall_ms = 0.0;
  double threshold_ms = 0.0;  ///< the threshold it exceeded
  std::string kind;           ///< "query" or "epoch"
  std::string label;          ///< query text / continuous-query name
  std::string profile_json;   ///< span tree, "null" when absent/oversized
};

class Recorder {
 public:
  /// Samples `registry` (the global one when null). Does not start the
  /// collector thread; Start() does.
  explicit Recorder(const MetricsRegistry* registry = nullptr);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// The process-wide recorder the engine records into. Never auto-starts
  /// its collector; QueryExecutor::Append calls EnsureStarted on the first
  /// epoch, the REPL and benches call Start explicitly.
  static Recorder& Global();

  /// Starts the background collector (idempotent; options apply on the
  /// first call only and must pass RecorderOptions::Validate — out-of-bounds
  /// knobs are rejected, never clamped). Pre-allocates every buffer the
  /// crash path needs. On a rejected config nothing starts.
  Status Start(const RecorderOptions& options = {});
  /// Start() with the frozen (or default) options unless already running.
  void EnsureStarted();
  /// Stops and joins the collector thread (rings and exemplars persist).
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  const RecorderOptions& options() const { return options_; }

  /// One collector pass: scrape the registry, append one sample to every
  /// metric's ring. The background thread calls this once per tick; tests
  /// call it directly for deterministic histories.
  void TickOnce();

  /// Collector passes so far.
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_acquire); }

  /// Windowed statistics for `name` over the trailing `window`. NotFound
  /// until the collector has sampled the metric at least once.
  Result<HistoryStats> History(const std::string& name,
                               std::chrono::milliseconds window) const;

  /// Names with at least one ring sample, sorted.
  std::vector<std::string> TrackedMetrics() const;

  // ---- Slow-execution log ---------------------------------------------

  /// Considers one finished execution for the slow log. `kind` is "query"
  /// or "epoch" (selects which latency ring derives the p99 threshold);
  /// `profile` may be null. Cheap when not slow: two atomic loads and one
  /// comparison.
  void RecordExecution(const char* kind, const std::string& label,
                       double wall_ms, const QueryProfile* profile);

  /// The current retention threshold for `kind`: max(options().slow_floor_ms,
  /// ring p99 of the kind's latency metric over the full ring window), as
  /// last published by Start or TickOnce. Lock-free and allocation-free.
  double SlowThresholdMs(const char* kind) const;

  /// Retained exemplars, oldest first.
  std::vector<SlowExemplar> SlowQueries() const;

  /// Exemplars retained since construction (including evicted ones).
  std::uint64_t slow_recorded() const {
    const StampedRing* ring = slow_ring_.load(std::memory_order_acquire);
    return ring != nullptr ? ring->claimed() : 0;
  }

  // ---- Flight records -------------------------------------------------

  /// The full flight record as one JSON object: recorder config, per-metric
  /// ring summaries + trailing series, recent events, slow exemplars.
  /// `crash_signal` 0 means a live dump.
  std::string FlightRecordJson(int crash_signal = 0) const;

  /// Writes FlightRecordJson to `path`.
  Status DumpNow(const std::string& path) const;

  /// Async-signal-safe dump: formats into the pre-allocated buffer and
  /// writes to `fd` with write(2). Returns bytes written. Requires Start()
  /// or InstallCrashHandler() to have pre-allocated the buffers.
  std::size_t DumpToFdSignalSafe(int fd, int crash_signal) const;

  /// Installs the SIGSEGV/SIGABRT/SIGTERM handler writing the flight record
  /// to `path` before re-raising. Pre-allocates the dump buffers. The most
  /// recent call wins; `path` must fit 255 bytes.
  void InstallCrashHandler(const std::string& path);

 private:
  static constexpr std::size_t kMaxTracked = 256;
  struct TrackedMetric {
    char name[96] = {0};
    MetricSnapshot::Kind kind = MetricSnapshot::Kind::kCounter;
    StampedRing* ring = nullptr;
  };

  /// Ring of `words`-word samples for `name`, appending a tracked-metric
  /// entry on first sight; null once the fixed table is full.
  StampedRing* RingFor(const std::string& name, MetricSnapshot::Kind kind,
                       std::size_t words);
  const TrackedMetric* FindTracked(const char* name) const;

  /// Works out each kind's ring p99 over the full ring window and publishes
  /// it for SlowThresholdMs. Caller holds tick_mu_.
  void PublishSlowThresholds();

  void CollectorLoop();
  void PreallocateDumpBuffers() const;

  template <typename Sink>
  void WriteFlightRecord(Sink* sink, int crash_signal) const;

  const MetricsRegistry* registry_;
  RecorderOptions options_;

  // Fixed append-only table: the collector writes an entry fully, then
  // publishes it by advancing tracked_count_ (release). Signal-handler
  // iterable.
  TrackedMetric tracked_[kMaxTracked];
  std::atomic<std::size_t> tracked_count_{0};

  std::atomic<std::uint64_t> ticks_{0};
  // Serializes collector passes (the background thread vs test-driven
  // TickOnce calls); ring readers never take it.
  std::mutex tick_mu_;

  // Slow log: a ring built on the first retained exemplar and published
  // once through an atomic pointer, so the crash path can read it lock-free;
  // writers serialize on slow_mu_.
  std::atomic<StampedRing*> slow_ring_{nullptr};
  std::mutex slow_mu_;

  // Published slow thresholds: the floor (set by the first Start) and each
  // kind's ring p99 in ms, 0 while unknown (set by Start and TickOnce).
  std::atomic<double> slow_floor_ms_{RecorderOptions{}.slow_floor_ms};
  std::atomic<double> slow_p99_ms_[2] = {};  // "query", "epoch"

  // Collector thread lifecycle.
  std::atomic<bool> running_{false};
  bool started_ = false;  // options frozen once true
  std::thread collector_;
  mutable std::mutex lifecycle_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  // Pre-allocated crash-path scratch (see PreallocateDumpBuffers). Mutable:
  // the const dump paths format through them; normal-path dumps serialize
  // on dump_mu_, the signal path is single-crasher by construction.
  mutable std::mutex dump_mu_;
  mutable std::vector<char> dump_buf_;
  mutable std::vector<Event> event_scratch_;
  mutable std::vector<std::uint64_t> ring_scratch_;
  mutable std::vector<std::uint64_t> slow_scratch_;
};

}  // namespace tpset::obs

#endif  // TPSET_OBS_RECORDER_H_
