#include "obs/recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace tpset::obs {

namespace {

obs::Counter& CollectorTicksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_obs_collector_ticks_total",
      "flight-recorder collector passes (registry scrapes into the rings)");
  return c;
}

obs::Counter& SlowExecsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_obs_slow_execs_total",
      "executions retained as slow-query exemplars");
  return c;
}

// A metric sample is one ring record: {ts_unix_us, value} for counters and
// gauges, {ts_unix_us, count, sum, buckets...} for histograms.
constexpr std::size_t kScalarWords = 2;
constexpr std::size_t kHistWords = 3 + kHistogramBuckets;

// The flight record reads at most this many trailing samples per metric.
constexpr std::size_t kMaxDumpSamples = 512;

const char* KindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "counter";
}

}  // namespace

// ---- RecorderOptions --------------------------------------------------------

Status RecorderOptions::Validate() const {
  if (tick.count() < kMinTickMs || tick.count() > kMaxTickMs) {
    return Status::InvalidArgument(
        "recorder tick must be in [" + std::to_string(kMinTickMs) + "ms, " +
        std::to_string(kMaxTickMs) + "ms], got " +
        std::to_string(tick.count()) + "ms");
  }
  if (ring_capacity < kMinRingCapacity || ring_capacity > kMaxRingCapacity) {
    return Status::InvalidArgument(
        "recorder ring_capacity must be in [" +
        std::to_string(kMinRingCapacity) + ", " +
        std::to_string(kMaxRingCapacity) + "], got " +
        std::to_string(ring_capacity));
  }
  if (!(slow_floor_ms >= 0.0)) {  // negation catches NaN too
    return Status::InvalidArgument(
        "recorder slow_floor_ms must be >= 0, got " +
        std::to_string(slow_floor_ms));
  }
  if (slow_capacity < 1 || slow_capacity > kMaxSlowCapacity) {
    return Status::InvalidArgument(
        "recorder slow_capacity must be in [1, " +
        std::to_string(kMaxSlowCapacity) + "], got " +
        std::to_string(slow_capacity));
  }
  return Status::OK();
}

namespace {

/// Parses env var `name` as a non-negative integer into `*out`. Unset or
/// empty leaves `*out` alone; garbage is InvalidArgument naming the var.
Status EnvInt(const char* name, long long* out) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return Status::OK();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 0) {
    return Status::InvalidArgument(std::string(name) + "='" + text +
                                   "' is not a non-negative integer");
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Result<RecorderOptions> RecorderOptions::FromEnv() {
  return FromEnv(RecorderOptions{});
}

Result<RecorderOptions> RecorderOptions::FromEnv(RecorderOptions base) {
  long long tick_ms = base.tick.count();
  TPSET_RETURN_NOT_OK(EnvInt("TPSET_OBS_SAMPLE_MS", &tick_ms));
  base.tick = std::chrono::milliseconds(tick_ms);
  long long ring_cap = static_cast<long long>(base.ring_capacity);
  TPSET_RETURN_NOT_OK(EnvInt("TPSET_OBS_RING_CAP", &ring_cap));
  base.ring_capacity = static_cast<std::size_t>(ring_cap);
  TPSET_RETURN_NOT_OK(base.Validate());
  return base;
}

// ---- Ring records -----------------------------------------------------------

namespace {

// The latency histograms whose ring p99 raises each kind's slow threshold,
// indexed by SlowThresholdMs's kind: 0 = "query", 1 = "epoch".
const char* const kSlowMetrics[2] = {"tpset_exec_query_usec",
                                     "tpset_incr_epoch_usec"};

// Copies the newest <= `max` samples of `ring` into `rows`, oldest first,
// keeping only consecutive seqs that end at the newest sample, so every
// delta spans exactly one tick. A run that stops short of the sample the
// collector is writing when the read ends was lapped: no samples then,
// rather than stale ones. It is judged against the seqs claimed by the end
// of the read, not at its start: a reader preempted while the collector
// overwrites the window's tail could otherwise return a run that ends
// before one an earlier read returned, and a counter's history would read
// as decreasing. `rows` holds max + 1 records; the last one is the ring's
// copy scratch. No allocation; signal-safe.
std::size_t ReadSamples(const StampedRing& ring, std::size_t max,
                        std::uint64_t* rows) {
  const std::size_t width = ring.words();
  std::uint64_t* scratch = rows + max * width;
  std::size_t k = 0;
  std::uint64_t last = 0;
  ring.Read(max, scratch, [&](std::uint64_t seq) {
    if (k > 0 && seq != last + 1) k = 0;  // a skipped seq restarts the run
    std::memcpy(rows + k * width, scratch, width * sizeof(std::uint64_t));
    last = seq;
    ++k;
  });
  return last + 1 >= ring.claimed() ? k : 0;
}

// One slow-log record, stored as ring words; the ring's seq is its seq.
struct SlowRecord {
  std::int64_t ts_unix_us;
  double wall_ms;
  double threshold_ms;
  char kind[16];
  char label[104];
  char profile_json[8056];  // "null" when absent or oversized
};
static_assert(sizeof(SlowRecord) % 8 == 0, "a SlowRecord is whole ring words");

// The retained exemplars, oldest first, each decoded into `scratch` while
// visit(seq, record) runs: the one slow-log read loop, behind SlowQueries
// and the flight record. No allocation, no lock; signal-safe.
template <typename Visit>
void ReadSlow(const std::atomic<StampedRing*>& slow_ring, SlowRecord* scratch,
              Visit&& visit) {
  const StampedRing* ring = slow_ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  ring->Read(ring->capacity(), scratch,
             [&](std::uint64_t seq) { visit(seq, *scratch); });
}

// ---- Stats ------------------------------------------------------------------

// Windowed statistics over `k` sample rows of `width` words (oldest first).
// No allocation.
HistoryStats ComputeStats(MetricSnapshot::Kind kind, const std::uint64_t* rows,
                          std::size_t k, std::size_t width) {
  HistoryStats h;
  h.kind = kind;
  h.samples = k;
  if (k == 0) return h;
  const auto ts = [&](std::size_t j) {
    return static_cast<std::int64_t>(rows[j * width]);
  };
  h.window_sec = k >= 2 ? static_cast<double>(ts(k - 1) - ts(0)) / 1e6 : 0.0;

  auto value = [&](std::size_t j) {
    // Counters/gauges: the sampled value. Histograms: cumulative count.
    return rows[j * width + 1];
  };

  if (kind == MetricSnapshot::Kind::kGauge) {
    const auto signed_value = [&](std::size_t j) {
      return static_cast<std::int64_t>(value(j));
    };
    h.first = signed_value(0);
    h.last = signed_value(k - 1);
    h.min = h.max = h.first;
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::int64_t v = signed_value(j);
      h.min = std::min(h.min, v);
      h.max = std::max(h.max, v);
      sum += static_cast<double>(v);
    }
    h.avg = sum / static_cast<double>(k);
    return h;
  }

  // Counter or histogram: monotone cumulative series; stats over per-tick
  // deltas, rate over the window. A counter reset (fresh registry in tests)
  // would make a delta negative; clamp to 0 rather than wrap.
  h.first = static_cast<std::int64_t>(value(0));
  h.last = static_cast<std::int64_t>(value(k - 1));
  if (k >= 2) {
    double sum = 0.0;
    for (std::size_t j = 0; j + 1 < k; ++j) {
      const std::uint64_t a = value(j), b = value(j + 1);
      const std::int64_t d =
          b >= a ? static_cast<std::int64_t>(b - a) : 0;
      if (j == 0) {
        h.min = h.max = d;
      } else {
        h.min = std::min(h.min, d);
        h.max = std::max(h.max, d);
      }
      sum += static_cast<double>(d);
    }
    h.avg = sum / static_cast<double>(k - 1);
    if (h.window_sec > 0) {
      h.rate_per_sec =
          static_cast<double>(h.last - h.first) / h.window_sec;
    }
  }

  if (kind == MetricSnapshot::Kind::kHistogram && k >= 2) {
    const std::uint64_t* first_row = rows + 1;
    const std::uint64_t* last_row = rows + (k - 1) * width + 1;
    const std::uint64_t count_delta =
        last_row[0] >= first_row[0] ? last_row[0] - first_row[0] : 0;
    const std::uint64_t sum_delta =
        last_row[1] >= first_row[1] ? last_row[1] - first_row[1] : 0;
    if (count_delta > 0) {
      h.avg_value =
          static_cast<double>(sum_delta) / static_cast<double>(count_delta);
      // Windowed p99: walk the bucket-count deltas to the 99th-percentile
      // observation; report that bucket's inclusive upper bound.
      const std::uint64_t target =
          (count_delta * 99 + 99) / 100;  // ceil(0.99 * delta)
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t ba = first_row[2 + b], bb = last_row[2 + b];
        cumulative += bb >= ba ? bb - ba : 0;
        if (cumulative >= target) {
          h.p99 = static_cast<double>(HistogramBucketBound(b));
          break;
        }
      }
    }
  }
  return h;
}

}  // namespace

// ---- Recorder lifecycle -----------------------------------------------------

Recorder::Recorder(const MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {}

Recorder::~Recorder() {
  Stop();
  const std::size_t n = tracked_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) delete tracked_[i].ring;
  delete slow_ring_.load(std::memory_order_acquire);
}

Recorder& Recorder::Global() {
  // Leaked like the registry: the crash handler may fire at any point of
  // static destruction.
  static Recorder* global = new Recorder();
  return *global;
}

Status Recorder::Start(const RecorderOptions& options) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (!running_.load(std::memory_order_acquire)) {
      stop_requested_ = false;
      collector_ = std::thread([this]() { CollectorLoop(); });
      running_.store(true, std::memory_order_release);
    }
    return Status::OK();
  }
  // Out-of-bounds knobs are rejected, not clamped: a recorder running with
  // a config the operator didn't ask for is worse than one that refuses.
  TPSET_RETURN_NOT_OK(options.Validate());
  {
    // Under tick_mu_, since TickOnce reads the options. EnsureStarted passes
    // options_ itself; skip the self-assignment so that no-op write cannot
    // race a reader outside both locks.
    std::lock_guard<std::mutex> tick(tick_mu_);
    if (&options != &options_) options_ = options;
    PublishSlowThresholds();  // the p99 window follows the frozen options
  }
  slow_floor_ms_.store(options_.slow_floor_ms, std::memory_order_relaxed);
  started_ = true;
  PreallocateDumpBuffers();
  stop_requested_ = false;
  collector_ = std::thread([this]() { CollectorLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Recorder::EnsureStarted() {
  if (running_.load(std::memory_order_acquire)) return;
  // options_ is either the validated frozen config or the (valid) defaults,
  // so this Start cannot fail on bounds; surface anything unexpected.
  const Status status = Start(options_);
  if (!status.ok()) {
    EmitEvent(Severity::kError, "obs", "recorder start failed: %.80s",
              status.message().c_str());
  }
}

void Recorder::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    stop_requested_ = true;
    stop_cv_.notify_all();
    to_join = std::move(collector_);
  }
  if (to_join.joinable()) to_join.join();
  running_.store(false, std::memory_order_release);
}

void Recorder::CollectorLoop() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  while (!stop_requested_) {
    lock.unlock();
    TickOnce();
    lock.lock();
    stop_cv_.wait_for(lock, options_.tick, [this]() { return stop_requested_; });
  }
}

// ---- Sampling ---------------------------------------------------------------

StampedRing* Recorder::RingFor(const std::string& name,
                               MetricSnapshot::Kind kind, std::size_t words) {
  const std::size_t n = tracked_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (name == tracked_[i].name) return tracked_[i].ring;
  }
  if (n >= kMaxTracked || name.size() >= sizeof(TrackedMetric::name)) {
    return nullptr;  // table full / name oversized: skip, keep sampling rest
  }
  std::memcpy(tracked_[n].name, name.c_str(), name.size() + 1);
  tracked_[n].kind = kind;
  tracked_[n].ring = new StampedRing(options_.ring_capacity, words);
  tracked_count_.store(n + 1, std::memory_order_release);
  return tracked_[n].ring;
}

const Recorder::TrackedMetric* Recorder::FindTracked(const char* name) const {
  const std::size_t n = tracked_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::strcmp(name, tracked_[i].name) == 0) return &tracked_[i];
  }
  return nullptr;
}

void Recorder::TickOnce() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  const MetricsSnapshot snap = registry_->Scrape();
  std::uint64_t sample[kHistWords];
  sample[0] = static_cast<std::uint64_t>(NowUnixUs());
  for (const MetricSnapshot& m : snap.metrics) {
    const bool hist = m.kind == MetricSnapshot::Kind::kHistogram;
    StampedRing* ring =
        RingFor(m.name, m.kind, hist ? kHistWords : kScalarWords);
    if (ring == nullptr) continue;
    if (hist) {
      sample[1] = m.hist_count;
      sample[2] = m.hist_sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        sample[3 + b] = b < m.buckets.size() ? m.buckets[b] : 0;
      }
    } else if (m.kind == MetricSnapshot::Kind::kCounter) {
      sample[1] = m.counter;
    } else {
      sample[1] = static_cast<std::uint64_t>(m.gauge);
    }
    ring->Publish(sample);  // writers serialize on tick_mu_: never drops
  }
  PublishSlowThresholds();
  ticks_.fetch_add(1, std::memory_order_release);
  CollectorTicksCounter().Increment();
}

// ---- History ----------------------------------------------------------------

Result<HistoryStats> Recorder::History(const std::string& name,
                                       std::chrono::milliseconds window) const {
  const TrackedMetric* metric = FindTracked(name.c_str());
  if (metric == nullptr) {
    return Status::NotFound("no ring samples for metric '" + name +
                            "' (collector not started, or metric never "
                            "registered)");
  }
  const StampedRing& ring = *metric->ring;
  const std::size_t width = ring.words();
  // At most capacity-1 samples: the newest slot may be mid-write.
  std::vector<std::uint64_t> rows(ring.capacity() * width);
  const std::size_t k = ReadSamples(ring, ring.capacity() - 1, rows.data());
  if (k == 0) {
    return Status::NotFound("metric '" + name + "' has no samples yet");
  }
  // Trim to the trailing window, keeping the newest sample at or before the
  // window start as the delta baseline (deltas need an edge sample).
  const auto ts = [&](std::size_t j) {
    return static_cast<std::int64_t>(rows[j * width]);
  };
  const std::int64_t cutoff = ts(k - 1) - window.count() * 1000;
  std::size_t begin = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (ts(j) >= cutoff) {
      begin = j > 0 ? j - 1 : 0;
      break;
    }
  }
  return ComputeStats(metric->kind, rows.data() + begin * width, k - begin,
                      width);
}

std::vector<std::string> Recorder::TrackedMetrics() const {
  const std::size_t n = tracked_count_.load(std::memory_order_acquire);
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) names.emplace_back(tracked_[i].name);
  std::sort(names.begin(), names.end());
  return names;
}

// ---- Slow-execution log -----------------------------------------------------

void Recorder::PublishSlowThresholds() {
  const auto window = std::chrono::duration_cast<std::chrono::milliseconds>(
      options_.tick * static_cast<int>(options_.ring_capacity));
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    const Result<HistoryStats> h = History(kSlowMetrics[epoch], window);
    slow_p99_ms_[epoch].store(
        h.ok() && h->samples >= 2 ? h->p99 / 1000.0 : 0.0,
        std::memory_order_relaxed);
  }
}

double Recorder::SlowThresholdMs(const char* kind) const {
  const bool epoch = std::strcmp(kind, "epoch") == 0;
  return std::max(slow_floor_ms_.load(std::memory_order_relaxed),
                  slow_p99_ms_[epoch].load(std::memory_order_relaxed));
}

void Recorder::RecordExecution(const char* kind, const std::string& label,
                               double wall_ms, const QueryProfile* profile) {
  if (!internal::RecordingEnabled()) return;
  const double threshold = SlowThresholdMs(kind);
  if (wall_ms < threshold) return;

  std::lock_guard<std::mutex> lock(slow_mu_);
  StampedRing* ring = slow_ring_.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new StampedRing(options_.slow_capacity, sizeof(SlowRecord) / 8);
    slow_ring_.store(ring, std::memory_order_release);
  }
  auto record = std::make_unique<SlowRecord>();
  record->ts_unix_us = NowUnixUs();
  record->wall_ms = wall_ms;
  record->threshold_ms = threshold;
  std::snprintf(record->kind, sizeof(record->kind), "%s", kind);
  std::snprintf(record->label, sizeof(record->label), "%s", label.c_str());
  std::strcpy(record->profile_json, "null");
  if (profile != nullptr) {
    const std::string json = profile->ToJson();
    if (json.size() < sizeof(record->profile_json)) {
      std::memcpy(record->profile_json, json.c_str(), json.size() + 1);
    }
  }
  ring->Publish(record.get());  // writers serialized: never drops
  SlowExecsCounter().Increment();
  EmitEvent(Severity::kWarn, "obs",
            "slow %s wall_ms=%.2f threshold_ms=%.2f label=%.40s", kind,
            wall_ms, threshold, label.c_str());
}

std::vector<SlowExemplar> Recorder::SlowQueries() const {
  std::vector<SlowExemplar> out;
  auto scratch = std::make_unique<SlowRecord>();
  ReadSlow(slow_ring_, scratch.get(),
           [&](std::uint64_t seq, const SlowRecord& r) {
             out.push_back({seq, r.ts_unix_us, r.wall_ms, r.threshold_ms,
                            r.kind, r.label, r.profile_json});
           });
  return out;
}

// ---- Flight records ---------------------------------------------------------

namespace {

// Minimal JSON emission over a sink with `void Append(const char*, size_t)`.
// Everything here is allocation-free and async-signal-safe; the only callers
// that may allocate are the sinks themselves (StringSink).

template <typename Sink>
void Put(Sink* s, const char* text) {
  s->Append(text, std::strlen(text));
}

template <typename Sink>
void PutU64(Sink* s, std::uint64_t v) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  s->Append(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

template <typename Sink>
void PutI64(Sink* s, std::int64_t v) {
  if (v < 0) {
    Put(s, "-");
    PutU64(s, static_cast<std::uint64_t>(-(v + 1)) + 1);
  } else {
    PutU64(s, static_cast<std::uint64_t>(v));
  }
}

// Fixed three decimals; clamps to +/-9e15 (flight records are diagnostics,
// not accounting).
template <typename Sink>
void PutDouble(Sink* s, double v) {
  if (!(v == v)) {  // NaN
    Put(s, "0");
    return;
  }
  if (v > 9e15) v = 9e15;
  if (v < -9e15) v = -9e15;
  if (v < 0) {
    Put(s, "-");
    v = -v;
  }
  const std::uint64_t scaled =
      static_cast<std::uint64_t>(v * 1000.0 + 0.5);
  PutU64(s, scaled / 1000);
  Put(s, ".");
  char frac[4] = {
      static_cast<char>('0' + scaled / 100 % 10),
      static_cast<char>('0' + scaled / 10 % 10),
      static_cast<char>('0' + scaled % 10), '\0'};
  Put(s, frac);
}

template <typename Sink>
void PutJsonString(Sink* s, const char* text) {
  Put(s, "\"");
  for (const char* p = text; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      char esc[3] = {'\\', *p, '\0'};
      Put(s, esc);
    } else if (c < 0x20) {
      Put(s, " ");
    } else {
      s->Append(p, 1);
    }
  }
  Put(s, "\"");
}

struct StringSink {
  std::string out;
  void Append(const char* s, std::size_t n) { out.append(s, n); }
};

// Buffered fd writer over a caller-provided (pre-allocated) buffer.
struct FdSink {
  int fd;
  char* buf;
  std::size_t cap;
  std::size_t len = 0;
  std::size_t written = 0;

  void Flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;  // best effort: a crash dump cannot retry forever
      off += static_cast<std::size_t>(n);
    }
    written += off;
    len = 0;
  }

  void Append(const char* s, std::size_t n) {
    while (n > 0) {
      if (len == cap) Flush();
      const std::size_t take = n < cap - len ? n : cap - len;
      std::memcpy(buf + len, s, take);
      len += take;
      s += take;
      n -= take;
    }
  }
};

}  // namespace

void Recorder::PreallocateDumpBuffers() const {
  if (!dump_buf_.empty()) return;
  dump_buf_.resize(64 * 1024);
  event_scratch_.resize(EventLog::Global().capacity());
  // ReadSamples' rows plus its copy scratch, for the widest record.
  const std::size_t samples =
      std::min(options_.ring_capacity - 1, kMaxDumpSamples);
  ring_scratch_.resize((samples + 1) * kHistWords);
  slow_scratch_.resize(sizeof(SlowRecord) / 8);
}

template <typename Sink>
void Recorder::WriteFlightRecord(Sink* sink, int crash_signal) const {
  Put(sink, "{\"flight_record\":1,\"generated_unix_us\":");
  PutI64(sink, NowUnixUs());
  Put(sink, ",\"crash_signal\":");
  PutI64(sink, crash_signal);
  Put(sink, ",\"tick_ms\":");
  PutI64(sink, static_cast<std::int64_t>(options_.tick.count()));
  Put(sink, ",\"ring_capacity\":");
  PutU64(sink, options_.ring_capacity);
  Put(sink, ",\"ticks\":");
  PutU64(sink, ticks_.load(std::memory_order_acquire));

  // Per-metric ring summaries plus a short trailing series.
  Put(sink, ",\"metrics\":[");
  const std::size_t n = tracked_count_.load(std::memory_order_acquire);
  bool first_metric = true;
  // Rings longer than the scratch emit their newest samples only.
  const std::size_t scratch_samples = ring_scratch_.size() / kHistWords - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const TrackedMetric& metric = tracked_[i];
    const std::size_t width = metric.ring->words();
    std::uint64_t* rows = ring_scratch_.data();
    const std::size_t k = ReadSamples(
        *metric.ring, std::min(metric.ring->capacity() - 1, scratch_samples),
        rows);
    if (k == 0) continue;
    const HistoryStats h = ComputeStats(metric.kind, rows, k, width);
    if (!first_metric) Put(sink, ",");
    first_metric = false;
    Put(sink, "{\"name\":");
    PutJsonString(sink, metric.name);
    Put(sink, ",\"kind\":\"");
    Put(sink, KindName(metric.kind));
    Put(sink, "\",\"samples\":");
    PutU64(sink, h.samples);
    Put(sink, ",\"window_sec\":");
    PutDouble(sink, h.window_sec);
    Put(sink, ",\"first\":");
    PutI64(sink, h.first);
    Put(sink, ",\"last\":");
    PutI64(sink, h.last);
    Put(sink, ",\"min\":");
    PutI64(sink, h.min);
    Put(sink, ",\"max\":");
    PutI64(sink, h.max);
    Put(sink, ",\"avg\":");
    PutDouble(sink, h.avg);
    Put(sink, ",\"rate_per_sec\":");
    PutDouble(sink, h.rate_per_sec);
    Put(sink, ",\"p99\":");
    PutDouble(sink, h.p99);
    // Trailing raw series (newest-last): sampled values for counters and
    // gauges, cumulative observation counts for histograms.
    Put(sink, ",\"series\":[");
    const std::size_t series = k < 64 ? k : 64;
    for (std::size_t j = k - series; j < k; ++j) {
      if (j != k - series) Put(sink, ",");
      const std::uint64_t value = rows[j * width + 1];
      if (metric.kind == MetricSnapshot::Kind::kGauge) {
        PutI64(sink, static_cast<std::int64_t>(value));
      } else {
        PutU64(sink, value);
      }
    }
    Put(sink, "]}");
  }
  Put(sink, "]");

  // Recent events, oldest first.
  Put(sink, ",\"events\":[");
  const std::size_t num_events = EventLog::Global().SnapshotInto(
      event_scratch_.data(), event_scratch_.size());
  for (std::size_t i = 0; i < num_events; ++i) {
    const Event& e = event_scratch_[i];
    if (i != 0) Put(sink, ",");
    Put(sink, "{\"ts_unix_us\":");
    PutI64(sink, e.ts_unix_us);
    Put(sink, ",\"seq\":");
    PutU64(sink, e.seq);
    Put(sink, ",\"severity\":\"");
    Put(sink, SeverityName(e.severity));
    Put(sink, "\",\"subsystem\":");
    PutJsonString(sink, e.subsystem);
    Put(sink, ",\"message\":");
    PutJsonString(sink, e.message);
    Put(sink, "}");
  }
  Put(sink, "]");

  // Slow-execution exemplars, oldest retained first.
  Put(sink, ",\"slow_queries\":[");
  bool first_slow = true;
  ReadSlow(slow_ring_, reinterpret_cast<SlowRecord*>(slow_scratch_.data()),
           [&](std::uint64_t seq, const SlowRecord& r) {
             if (!first_slow) Put(sink, ",");
             first_slow = false;
             Put(sink, "{\"seq\":");
             PutU64(sink, seq);
             Put(sink, ",\"ts_unix_us\":");
             PutI64(sink, r.ts_unix_us);
             Put(sink, ",\"wall_ms\":");
             PutDouble(sink, r.wall_ms);
             Put(sink, ",\"threshold_ms\":");
             PutDouble(sink, r.threshold_ms);
             Put(sink, ",\"kind\":");
             PutJsonString(sink, r.kind);
             Put(sink, ",\"label\":");
             PutJsonString(sink, r.label);
             Put(sink, ",\"profile\":");
             // Already valid JSON (QueryProfile::ToJson) or the literal null.
             Put(sink, r.profile_json);
             Put(sink, "}");
           });
  Put(sink, "]}");
  Put(sink, "\n");
}

std::string Recorder::FlightRecordJson(int crash_signal) const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  PreallocateDumpBuffers();
  StringSink sink;
  WriteFlightRecord(&sink, crash_signal);
  return std::move(sink.out);
}

Status Recorder::DumpNow(const std::string& path) const {
  const std::string json = FlightRecordJson(0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open flight-record path '" + path +
                                   "'");
  }
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.close();
  if (!out) {
    return Status::InvalidArgument("short write to flight-record path '" +
                                   path + "'");
  }
  return Status::OK();
}

std::size_t Recorder::DumpToFdSignalSafe(int fd, int crash_signal) const {
  if (dump_buf_.empty()) return 0;  // Start/InstallCrashHandler never ran
  FdSink sink{fd, dump_buf_.data(), dump_buf_.size()};
  WriteFlightRecord(&sink, crash_signal);
  sink.Flush();
  return sink.written;
}

// ---- Crash handler ----------------------------------------------------------

namespace {

std::atomic<Recorder*> g_crash_recorder{nullptr};
char g_crash_dump_path[256] = {0};
std::atomic<bool> g_crash_dumping{false};

void CrashHandler(int sig) {
  // First crasher wins; a second signal (possibly *caused by* the dump) must
  // not recurse into it.
  if (!g_crash_dumping.exchange(true, std::memory_order_acq_rel)) {
    Recorder* recorder = g_crash_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr && g_crash_dump_path[0] != '\0') {
      const int fd = ::open(g_crash_dump_path,
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        recorder->DumpToFdSignalSafe(fd, sig);
        ::close(fd);
      }
    }
  }
  // SA_RESETHAND already restored the default action; re-raise so the
  // process terminates (and cores) the way it would have without us.
  ::raise(sig);
}

}  // namespace

void Recorder::InstallCrashHandler(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    PreallocateDumpBuffers();
  }
  std::snprintf(g_crash_dump_path, sizeof(g_crash_dump_path), "%s",
                path.c_str());
  g_crash_recorder.store(this, std::memory_order_release);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (int sig : {SIGSEGV, SIGABRT, SIGTERM}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace tpset::obs
