// Flight-recorder tests: crash-dump JSON from a forked child, deterministic
// ring-history statistics (delta rates, windowed p99), bounded ring memory,
// the subscriber-lag gauge against a hand-computed epoch schedule, slow-
// exemplar retention/eviction, and the lock-free read paths racing writers
// (this file carries the concurrency label and runs under the CI TSan job).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "incremental/continuous_query.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "query/executor.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_THREAD__)
#define TPSET_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TPSET_TSAN_BUILD 1
#endif
#endif

namespace tpset {
namespace {

using testing::MakeRelation;
using testing::SupermarketDb;

constexpr std::chrono::milliseconds kWideWindow(3'600'000);

DeltaBatch OneRow(const std::string& fact, TimePoint ts, TimePoint te,
                  double p) {
  DeltaBatch batch;
  batch.Add({Value(fact)}, Interval(ts, te), p, "");
  return batch;
}

// String-aware balanced-braces check (the obs_test ToJson idiom): braces and
// brackets outside string literals must nest and balance.
void CheckBalancedJson(const std::string& json) {
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0) << json;
  EXPECT_EQ(brackets, 0) << json;
}

bool HasKey(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\":") != std::string::npos;
}

// A forked child installs the crash handler, raises SIGSEGV, and must leave
// behind a complete flight-record file written entirely from the signal
// handler (pre-allocated buffers + write(2); the child dies of the re-raised
// signal). The same structure is schema-validated by
// scripts/validate_flight_record.py in the CI smoke. Declared first in this
// file so the fork happens before any test spawns threads.
TEST(RecorderCrashTest, ForkedChildSignalDumpIsWellFormed) {
#ifdef TPSET_TSAN_BUILD
  GTEST_SKIP() << "fork + fatal-signal dump is not exercised under TSan";
#endif
  const std::string path = ::testing::TempDir() + "recorder_crash_dump.json";
  unlink(path.c_str());

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: a local recorder with two sampled metrics, one event, one slow
    // exemplar — then crash. No gtest machinery; the parent asserts.
    obs::MetricsRegistry registry;
    obs::Counter& ops =
        registry.GetCounter("tpset_test_crash_ops_total", "ops");
    obs::Histogram& lat =
        registry.GetHistogram("tpset_test_crash_lat_usec", "lat");
    obs::Recorder rec(&registry);
    ops.Increment(3);
    lat.Observe(5);
    rec.TickOnce();
    ops.Increment(4);
    lat.Observe(500);
    rec.TickOnce();
    obs::EmitEvent(obs::Severity::kWarn, "test", "about to crash on purpose");
    rec.RecordExecution("query", "crash exemplar", 1e6, nullptr);
    rec.InstallCrashHandler(path);
    raise(SIGSEGV);
    _exit(42);  // not reached: the handler re-raises with default disposition
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited normally, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no crash dump at " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  ASSERT_FALSE(json.empty());

  EXPECT_EQ(json.rfind("{\"flight_record\":1", 0), 0u) << json.substr(0, 80);
  for (const char* key :
       {"generated_unix_us", "crash_signal", "tick_ms", "ring_capacity",
        "ticks", "metrics", "events", "slow_queries"}) {
    EXPECT_TRUE(HasKey(json, key)) << "missing top-level key " << key;
  }
  EXPECT_NE(json.find("\"crash_signal\":" + std::to_string(SIGSEGV)),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tpset_test_crash_ops_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tpset_test_crash_lat_usec\""),
            std::string::npos);
  EXPECT_NE(json.find("about to crash on purpose"), std::string::npos);
  EXPECT_NE(json.find("crash exemplar"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  CheckBalancedJson(json);
}

// ---- Ring history -----------------------------------------------------------

// Counter semantics: first/last are the cumulative window edges, min/max/avg
// are over per-tick deltas. Driven by manual TickOnce calls so the sampled
// values are exact.
TEST(RecorderHistoryTest, CounterDeltaStatsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_test_ops_total", "ops");
  obs::Recorder rec(&registry);

  ops.Increment(5);
  rec.TickOnce();  // sample: 5
  ops.Increment(10);
  rec.TickOnce();  // sample: 15 (delta 10)
  rec.TickOnce();  // sample: 15 (delta 0)
  ops.Increment(20);
  rec.TickOnce();  // sample: 35 (delta 20)

  Result<obs::HistoryStats> h = rec.History("tpset_test_ops_total", kWideWindow);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->kind, obs::MetricSnapshot::Kind::kCounter);
  EXPECT_EQ(h->samples, 4u);
  EXPECT_EQ(h->first, 5);
  EXPECT_EQ(h->last, 35);
  EXPECT_EQ(h->min, 0);
  EXPECT_EQ(h->max, 20);
  EXPECT_DOUBLE_EQ(h->avg, 10.0);
  // The samples are microseconds apart; only the rate/window relationship is
  // deterministic: rate * window == last - first.
  if (h->window_sec > 0) {
    EXPECT_NEAR(h->rate_per_sec * h->window_sec, 30.0, 1e-6);
  }
}

// Gauge semantics: min/max/avg over the sampled values themselves, negatives
// preserved, rate pinned to zero.
TEST(RecorderHistoryTest, GaugeStatsCoverSampledValues) {
  obs::MetricsRegistry registry;
  obs::Gauge& depth = registry.GetGauge("tpset_test_depth", "depth");
  obs::Recorder rec(&registry);

  depth.Set(3);
  rec.TickOnce();
  depth.Set(-7);
  rec.TickOnce();
  depth.Set(12);
  rec.TickOnce();

  Result<obs::HistoryStats> h = rec.History("tpset_test_depth", kWideWindow);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->kind, obs::MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(h->samples, 3u);
  EXPECT_EQ(h->first, 3);
  EXPECT_EQ(h->last, 12);
  EXPECT_EQ(h->min, -7);
  EXPECT_EQ(h->max, 12);
  EXPECT_DOUBLE_EQ(h->avg, (3.0 - 7.0 + 12.0) / 3.0);
  EXPECT_DOUBLE_EQ(h->rate_per_sec, 0.0);
}

// Histogram semantics: the p99 and mean come from *bucket deltas between the
// window edges*, so observations recorded before the window's baseline
// sample do not leak in.
TEST(RecorderHistoryTest, HistogramWindowedP99IgnoresPreWindowLoad) {
  obs::MetricsRegistry registry;
  obs::Histogram& lat = registry.GetHistogram("tpset_test_lat_usec", "lat");
  obs::Recorder rec(&registry);

  // Pre-window load: 50 large observations that must not affect the window.
  for (int i = 0; i < 50; ++i) lat.Observe(1'000'000);
  rec.TickOnce();  // baseline edge

  // In-window: 90 tiny + 10 at 1000 -> ceil(0.99 * 100) = 99th observation
  // lands in the [512, 1023] bucket.
  for (int i = 0; i < 90; ++i) lat.Observe(0);
  for (int i = 0; i < 10; ++i) lat.Observe(1000);
  rec.TickOnce();

  Result<obs::HistoryStats> h = rec.History("tpset_test_lat_usec", kWideWindow);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->kind, obs::MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(h->samples, 2u);
  EXPECT_EQ(h->first, 50);   // cumulative observation count at the baseline
  EXPECT_EQ(h->last, 150);
  EXPECT_EQ(h->min, 100);    // single per-tick delta
  EXPECT_EQ(h->max, 100);
  EXPECT_DOUBLE_EQ(h->p99, 1023.0);  // HistogramBucketBound(10)
  EXPECT_DOUBLE_EQ(h->avg_value, (90.0 * 0 + 10.0 * 1000) / 100.0);
}

TEST(RecorderHistoryTest, NotFoundBeforeAnySample) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tpset_test_ops_total", "ops");  // registered, unticked
  obs::Recorder rec(&registry);
  EXPECT_FALSE(rec.History("tpset_test_ops_total", kWideWindow).ok());
  EXPECT_FALSE(rec.History("tpset_no_such_metric", kWideWindow).ok());
  EXPECT_TRUE(rec.TrackedMetrics().empty());
}

// Rings are fixed-size: a sustained run keeps only the trailing
// capacity-1 samples, options freeze on the first Start, and the recorder
// restarts cleanly after Stop.
TEST(RecorderHistoryTest, RingIsBoundedAndKeepsTrailingSamples) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_test_ops_total", "ops");
  obs::Recorder rec(&registry);

  obs::RecorderOptions options;
  options.tick = std::chrono::milliseconds(3'600'000);  // collector stays idle
  options.ring_capacity = 8;
  rec.Start(options);
  EXPECT_TRUE(rec.running());
  EXPECT_EQ(rec.options().ring_capacity, 8u);

  obs::RecorderOptions ignored;
  ignored.ring_capacity = 99;
  rec.Start(ignored);  // idempotent: options froze on the first Start
  EXPECT_EQ(rec.options().ring_capacity, 8u);

  for (int i = 0; i < 50; ++i) {
    ops.Increment(1);
    rec.TickOnce();
  }
  Result<obs::HistoryStats> h = rec.History("tpset_test_ops_total", kWideWindow);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_LE(h->samples, 7u);  // capacity-1: the newest slot may be mid-write
  EXPECT_EQ(h->last, 50);
  const std::vector<std::string> tracked = rec.TrackedMetrics();
  EXPECT_NE(std::find(tracked.begin(), tracked.end(), "tpset_test_ops_total"),
            tracked.end());

  rec.Stop();
  EXPECT_FALSE(rec.running());
  rec.Start(ignored);  // restart after Stop keeps the frozen options
  EXPECT_TRUE(rec.running());
  EXPECT_EQ(rec.options().ring_capacity, 8u);
  rec.Stop();
}

// ---- Slow-execution log -----------------------------------------------------

TEST(RecorderSlowLogTest, RetentionAndEviction) {
  obs::MetricsRegistry registry;
  obs::Recorder rec(&registry);
  // No latency rings yet: the threshold is the configured floor.
  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("query"), 25.0);
  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("epoch"), 25.0);

  rec.RecordExecution("query", "fast", 10.0, nullptr);
  EXPECT_EQ(rec.slow_recorded(), 0u);
  EXPECT_TRUE(rec.SlowQueries().empty());

  obs::QueryProfile profile("slowroot");
  profile.root().AddChild("child");
  rec.RecordExecution("query", "first slow", 30.0, &profile);
  ASSERT_EQ(rec.slow_recorded(), 1u);
  std::vector<obs::SlowExemplar> slow = rec.SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].seq, 1u);
  EXPECT_EQ(slow[0].kind, "query");
  EXPECT_EQ(slow[0].label, "first slow");
  EXPECT_DOUBLE_EQ(slow[0].wall_ms, 30.0);
  EXPECT_DOUBLE_EQ(slow[0].threshold_ms, 25.0);
  EXPECT_NE(slow[0].profile_json.find("\"name\":\"slowroot\""),
            std::string::npos);

  // An oversized span tree degrades to the literal null, not a torn string.
  obs::QueryProfile big("big");
  for (int i = 0; i < 300; ++i) {
    big.root().AddChild(std::string(40, 'x') + std::to_string(i));
  }
  rec.RecordExecution("epoch", "oversized profile", 40.0, &big);
  slow = rec.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[1].kind, "epoch");
  EXPECT_EQ(slow[1].profile_json, "null");

  // Fill past capacity (default 16): oldest evicted, order preserved.
  for (int i = 0; i < 20; ++i) {
    rec.RecordExecution("query", "q" + std::to_string(i), 26.0 + i, nullptr);
  }
  EXPECT_EQ(rec.slow_recorded(), 22u);
  slow = rec.SlowQueries();
  ASSERT_EQ(slow.size(), 16u);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].seq, 7 + i);  // seqs 7..22 survive
    if (i > 0) {
      EXPECT_LT(slow[i - 1].seq, slow[i].seq);
    }
    EXPECT_EQ(slow[i].label, "q" + std::to_string(4 + i));
  }
}

// The retention threshold follows the latency ring's windowed p99 once the
// collector has sampled it.
TEST(RecorderSlowLogTest, ThresholdTracksRingP99) {
  obs::MetricsRegistry registry;
  obs::Histogram& lat =
      registry.GetHistogram("tpset_exec_query_usec", "query wall");
  obs::Recorder rec(&registry);

  rec.TickOnce();  // baseline edge (count 0)
  for (int i = 0; i < 200; ++i) lat.Observe(100'000);  // 100ms per query
  rec.TickOnce();

  // p99 bucket bound of 100000usec is 131071usec -> 131.071ms threshold.
  EXPECT_NEAR(rec.SlowThresholdMs("query"), 131.071, 1e-9);
  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("epoch"), 25.0);  // no epoch ring

  rec.RecordExecution("query", "under p99", 50.0, nullptr);
  EXPECT_EQ(rec.slow_recorded(), 0u);
  rec.RecordExecution("query", "over p99", 200.0, nullptr);
  ASSERT_EQ(rec.slow_recorded(), 1u);
  EXPECT_NEAR(rec.SlowQueries()[0].threshold_ms, 131.071, 1e-9);
}

// A configured floor holds from Start on, before any latency ring exists,
// and the ring's p99 replaces it once ticks have sampled a slower window.
TEST(RecorderSlowLogTest, StartPublishesFloorAndTicksPublishP99) {
  obs::MetricsRegistry registry;
  obs::Recorder rec(&registry);
  obs::RecorderOptions options;
  options.tick = std::chrono::milliseconds(3'600'000);  // collector stays idle
  options.slow_floor_ms = 5.0;
  ASSERT_TRUE(rec.Start(options).ok());

  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("query"), 5.0);
  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("epoch"), 5.0);
  rec.RecordExecution("query", "four", 4.0, nullptr);
  EXPECT_EQ(rec.slow_recorded(), 0u);
  rec.RecordExecution("query", "six", 6.0, nullptr);
  ASSERT_EQ(rec.slow_recorded(), 1u);
  EXPECT_DOUBLE_EQ(rec.SlowQueries()[0].threshold_ms, 5.0);

  obs::Histogram& lat =
      registry.GetHistogram("tpset_exec_query_usec", "query wall");
  rec.TickOnce();  // baseline edge (count 0)
  for (int i = 0; i < 200; ++i) lat.Observe(100'000);
  rec.TickOnce();
  EXPECT_NEAR(rec.SlowThresholdMs("query"), 131.071, 1e-9);
  EXPECT_DOUBLE_EQ(rec.SlowThresholdMs("epoch"), 5.0);  // no epoch ring
  rec.Stop();
}

// ---- Flight-record JSON -----------------------------------------------------

TEST(RecorderDumpTest, FlightRecordJsonShapeAndDumpNow) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_test_ops_total", "ops");
  obs::Recorder rec(&registry);
  ops.Increment(7);
  rec.TickOnce();
  ops.Increment(2);
  rec.TickOnce();
  rec.RecordExecution("query", "dump exemplar", 99.0, nullptr);

  const std::string json = rec.FlightRecordJson();
  EXPECT_EQ(json.rfind("{\"flight_record\":1", 0), 0u);
  EXPECT_NE(json.find("\"crash_signal\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tpset_test_ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":[7,9]"), std::string::npos);
  EXPECT_NE(json.find("dump exemplar"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  CheckBalancedJson(json);

  const std::string path = ::testing::TempDir() + "recorder_dump_now.json";
  ASSERT_TRUE(rec.DumpNow(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str().rfind("{\"flight_record\":1", 0), 0u);
  CheckBalancedJson(buf.str());
}

// The metrics and slow_queries sections byte for byte, with the numbers the
// clock decides masked to '#'. The events section reads the process-wide
// log, so it is left to the schema validator.
TEST(RecorderDumpTest, GoldenFlightRecordSections) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_test_ops_total", "ops");
  obs::Gauge& depth = registry.GetGauge("tpset_test_depth", "depth");
  obs::Histogram& lat = registry.GetHistogram("tpset_test_lat_usec", "lat");
  obs::Recorder rec(&registry);
  ops.Increment(5);
  depth.Set(-3);
  lat.Observe(100);
  rec.TickOnce();
  ops.Increment(10);
  depth.Set(-8);
  lat.Observe(3000);
  lat.Observe(0);
  rec.TickOnce();
  ops.Increment(1);
  depth.Set(4);
  lat.Observe(70'000);
  rec.TickOnce();

  obs::QueryProfile profile("golden");
  profile.root().start_unix_us = 1234;
  profile.root().AddChild("child")->SetAttr("out", std::size_t{2});
  rec.RecordExecution("query", "c - \"a\"", 40.0, &profile);
  rec.RecordExecution("epoch", "w1", 30.5, nullptr);

  std::string json = rec.FlightRecordJson();
  for (const char* key :
       {"generated_unix_us", "ts_unix_us", "window_sec", "rate_per_sec"}) {
    const std::string prefix = std::string("\"") + key + "\":";
    for (std::size_t at = json.find(prefix); at != std::string::npos;
         at = json.find(prefix, at + 1)) {
      const std::size_t begin = at + prefix.size();
      std::size_t end = begin;
      while (end < json.size() &&
             (std::isdigit(static_cast<unsigned char>(json[end])) != 0 ||
              json[end] == '-' || json[end] == '.')) {
        ++end;
      }
      json.replace(begin, end - begin, "#");
    }
  }
  const std::size_t metrics = json.find("\"metrics\":");
  const std::size_t events = json.find(",\"events\":");
  const std::size_t slow = json.find("\"slow_queries\":");
  ASSERT_NE(metrics, std::string::npos);
  ASSERT_NE(events, std::string::npos);
  ASSERT_NE(slow, std::string::npos);
  EXPECT_EQ(
      json.substr(metrics, events - metrics),
      "\"metrics\":["
      "{\"name\":\"tpset_test_depth\",\"kind\":\"gauge\",\"samples\":3,"
      "\"window_sec\":#,\"first\":-3,\"last\":4,\"min\":-8,\"max\":4,"
      "\"avg\":-2.333,\"rate_per_sec\":#,\"p99\":0.000,"
      "\"series\":[-3,-8,4]},"
      "{\"name\":\"tpset_test_lat_usec\",\"kind\":\"histogram\","
      "\"samples\":3,\"window_sec\":#,\"first\":1,\"last\":4,\"min\":1,"
      "\"max\":2,\"avg\":1.500,\"rate_per_sec\":#,\"p99\":131071.000,"
      "\"series\":[1,3,4]},"
      "{\"name\":\"tpset_test_ops_total\",\"kind\":\"counter\","
      "\"samples\":3,\"window_sec\":#,\"first\":5,\"last\":16,\"min\":1,"
      "\"max\":10,\"avg\":5.500,\"rate_per_sec\":#,\"p99\":0.000,"
      "\"series\":[5,15,16]}]");
  EXPECT_EQ(
      json.substr(slow),
      "\"slow_queries\":["
      "{\"seq\":1,\"ts_unix_us\":#,\"wall_ms\":40.000,"
      "\"threshold_ms\":25.000,\"kind\":\"query\","
      "\"label\":\"c - \\\"a\\\"\",\"profile\":"
      "{\"name\":\"golden\",\"wall_ms\":0.000,\"cpu_ms\":0.000,"
      "\"start_unix_us\":1234,\"children\":[{\"name\":\"child\","
      "\"wall_ms\":0.000,\"cpu_ms\":0.000,\"start_unix_us\":0,"
      "\"attrs\":{\"out\":\"2\"}}]}\n},"
      "{\"seq\":2,\"ts_unix_us\":#,\"wall_ms\":30.500,"
      "\"threshold_ms\":25.000,\"kind\":\"epoch\",\"label\":\"w1\","
      "\"profile\":null}]}\n");
}

// ---- Event log --------------------------------------------------------------

TEST(RecorderOptionsTest, ValidateRejectsOutOfBoundsKnobs) {
  EXPECT_TRUE(obs::RecorderOptions{}.Validate().ok());

  obs::RecorderOptions bad;
  bad.tick = std::chrono::milliseconds(0);
  EXPECT_FALSE(bad.Validate().ok());
  bad.tick = std::chrono::milliseconds(2 * 60 * 60 * 1000);  // 2h > 1h cap
  EXPECT_FALSE(bad.Validate().ok());

  bad = obs::RecorderOptions{};
  bad.ring_capacity = 2;  // below the 4-sample floor readers rely on
  EXPECT_FALSE(bad.Validate().ok());
  bad.ring_capacity = (1u << 20) + 1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = obs::RecorderOptions{};
  bad.slow_floor_ms = -1.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = obs::RecorderOptions{};
  bad.slow_capacity = 0;
  EXPECT_FALSE(bad.Validate().ok());

  // A rejected config never starts a recorder (reject, don't clamp).
  obs::MetricsRegistry registry;
  obs::Recorder rec(&registry);
  obs::RecorderOptions zero_tick;
  zero_tick.tick = std::chrono::milliseconds(0);
  EXPECT_FALSE(rec.Start(zero_tick).ok());
  EXPECT_FALSE(rec.running());
  EXPECT_TRUE(rec.Start(obs::RecorderOptions{}).ok());
  EXPECT_TRUE(rec.running());
  rec.Stop();
}

TEST(RecorderOptionsTest, FromEnvParsesAndValidates) {
  // Unset: defaults pass through.
  unsetenv("TPSET_OBS_SAMPLE_MS");
  unsetenv("TPSET_OBS_RING_CAP");
  Result<obs::RecorderOptions> options = obs::RecorderOptions::FromEnv();
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->tick.count(), obs::RecorderOptions{}.tick.count());

  setenv("TPSET_OBS_SAMPLE_MS", "50", 1);
  setenv("TPSET_OBS_RING_CAP", "64", 1);
  options = obs::RecorderOptions::FromEnv();
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->tick.count(), 50);
  EXPECT_EQ(options->ring_capacity, 64u);

  // Garbage and out-of-bounds values are errors naming the variable, never
  // silently clamped or ignored.
  setenv("TPSET_OBS_SAMPLE_MS", "fast", 1);
  Result<obs::RecorderOptions> bad = obs::RecorderOptions::FromEnv();
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("TPSET_OBS_SAMPLE_MS"),
            std::string::npos);

  setenv("TPSET_OBS_SAMPLE_MS", "0", 1);
  EXPECT_FALSE(obs::RecorderOptions::FromEnv().ok());

  setenv("TPSET_OBS_SAMPLE_MS", "250", 1);
  setenv("TPSET_OBS_RING_CAP", "3", 1);  // below the floor
  EXPECT_FALSE(obs::RecorderOptions::FromEnv().ok());
  setenv("TPSET_OBS_RING_CAP", "-5", 1);
  EXPECT_FALSE(obs::RecorderOptions::FromEnv().ok());

  unsetenv("TPSET_OBS_SAMPLE_MS");
  unsetenv("TPSET_OBS_RING_CAP");
}

TEST(EventLogTest, WrapKeepsNewestInOrder) {
  obs::EventLog log(8);
  EXPECT_EQ(log.capacity(), 8u);
  EXPECT_EQ(obs::EventLog(3).capacity(), 8u);  // rounded up to the minimum

  for (int i = 0; i < 20; ++i) {
    log.Emit(obs::Severity::kInfo, "test", "event i=%d", i);
  }
  EXPECT_EQ(log.emitted(), 20u);
  const std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t j = 0; j < events.size(); ++j) {
    EXPECT_EQ(events[j].seq, 13 + j);  // seqs 13..20, oldest first
    EXPECT_STREQ(events[j].subsystem, "test");
    EXPECT_EQ(std::string(events[j].message),
              "event i=" + std::to_string(12 + j));
  }
  EXPECT_EQ(log.Snapshot(3).size(), 3u);
  EXPECT_EQ(log.Snapshot(3).front().seq, 18u);

  // Oversized messages truncate into the slot, NUL-terminated.
  log.Emit(obs::Severity::kError, "test", "%s", std::string(500, 'm').c_str());
  const obs::Event last = log.Snapshot(1).front();
  EXPECT_EQ(last.severity, obs::Severity::kError);
  EXPECT_EQ(std::string(last.message), std::string(103, 'm'));
}

// ---- Streaming telemetry ----------------------------------------------------

// Subscriber lag against a hand-computed schedule: wa reads a, wb reads b;
// epochs e1,e2 append to a (wb falls 2 behind), e3 appends to b (wb catches
// up, wa now 1 behind). The lag gauge tracks the last-touched query; the
// per-subscription truth lives on SubscriberInfos and in the explain body.
TEST(RecorderTelemetryTest, SubscriberLagMatchesHandComputedSchedule) {
  SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (TpRelation* rel : {&db.a, &db.b}) {
    rel->SortFactTime();
    ASSERT_TRUE(exec.Register(*rel).ok());
  }
  ContinuousQuery* wa = exec.RegisterContinuous("wa", "a").value();
  ContinuousQuery* wb = exec.RegisterContinuous("wb", "b").value();
  std::vector<EpochId> wa_epochs, wb_epochs;
  wa->Subscribe([&](const EpochDelta& ed) { wa_epochs.push_back(ed.epoch); });
  wb->Subscribe([&](const EpochDelta& ed) { wb_epochs.push_back(ed.epoch); });

  auto e2e_count = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Scrape();
    const obs::MetricSnapshot* e2e = snap.Find("tpset_incr_epoch_e2e_usec");
    return e2e != nullptr ? e2e->hist_count : 0;
  };
  const std::uint64_t e2e_before = e2e_count();

  const EpochId e1 = exec.Append("a", OneRow("milk", 10, 12, 0.5)).value();
  const EpochId e2 = exec.Append("a", OneRow("milk", 12, 14, 0.5)).value();

  auto lag_gauge = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Scrape();
    const obs::MetricSnapshot* g = snap.Find("tpset_incr_subscriber_lag");
    return g != nullptr ? g->gauge : -1;
  };
  // Last accounting action of e2: wb (map order) noting a log it has not
  // absorbed -> lag 2.
  EXPECT_EQ(lag_gauge(), 2);

  std::vector<ContinuousQuery::SubscriberInfo> infos = wb->SubscriberInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].last_delivered, 0u);
  EXPECT_EQ(infos[0].lag, 2u);
  EXPECT_EQ(wb->log_epoch(), e2);

  const EpochId e3 = exec.Append("b", OneRow("milk", 9, 11, 0.5)).value();
  // wb absorbed e3 (lag 0, the gauge's final write); wa is now 1 behind.
  EXPECT_EQ(lag_gauge(), 0);
  infos = wa->SubscriberInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].last_delivered, e2);
  EXPECT_EQ(infos[0].lag, 1u);
  infos = wb->SubscriberInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].last_delivered, e3);
  EXPECT_EQ(infos[0].lag, 0u);

  EXPECT_EQ(wa_epochs, (std::vector<EpochId>{e1, e2}));
  EXPECT_EQ(wb_epochs, (std::vector<EpochId>{e3}));

  // A subscription made now starts at the current log epoch, not lagging
  // behind history it never asked for.
  wb->Subscribe([](const EpochDelta&) {});
  infos = wb->SubscriberInfos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[1].last_delivered, e3);
  EXPECT_EQ(infos[1].lag, 0u);

  // Event-time low watermarks: min over the DAG's leaves of the maximum
  // stored interval end (a: milk now ends 14; b: milk now ends 11).
  EXPECT_EQ(wa->LowWatermark(), 14);
  EXPECT_EQ(wb->LowWatermark(), 11);

  // End-to-end epoch latency observed once per applied epoch (e1,e2 -> wa,
  // e3 -> wb).
  EXPECT_EQ(e2e_count(), e2e_before + 3);

  // The explain body surfaces the same telemetry.
  const std::string described = wa->Describe();
  EXPECT_NE(described.find("log_epoch: 3"), std::string::npos) << described;
  EXPECT_NE(described.find("low_watermark: 14"), std::string::npos);
  EXPECT_NE(described.find("delivered=2, lag=1"), std::string::npos);
}

// ---- Concurrency ------------------------------------------------------------

// History reads, flight-record dumps, and manual ticks race the 1ms
// background collector while a writer mutates the registry: every read must
// come back untorn (counter history monotone, JSON balanced). TSan-clean.
TEST(RecorderConcurrencyTest, HistoryRacesCollectorTick) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_test_ops_total", "ops");
  obs::Histogram& lat = registry.GetHistogram("tpset_test_lat_usec", "lat");
  obs::Gauge& depth = registry.GetGauge("tpset_test_depth", "depth");
  obs::Recorder rec(&registry);
  obs::RecorderOptions options;
  options.tick = std::chrono::milliseconds(1);
  options.ring_capacity = 16;
  rec.Start(options);

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::thread mutator([&] {
    std::int64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      ops.Increment(1);
      lat.Observe(static_cast<std::uint64_t>(i % 4096));
      depth.Set(i % 64 - 32);
      ++i;
    }
  });
  std::thread history_reader([&] {
    std::int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      Result<obs::HistoryStats> h =
          rec.History("tpset_test_ops_total", kWideWindow);
      if (!h.ok()) continue;  // not sampled yet, or reader lapped out
      if (h->last < last) monotone.store(false, std::memory_order_relaxed);
      last = h->last;
      (void)rec.History("tpset_test_lat_usec", kWideWindow);
      (void)rec.History("tpset_test_depth", kWideWindow);
    }
  });
  std::thread dumper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string json = rec.FlightRecordJson();
      if (json.rfind("{\"flight_record\":1", 0) != 0) {
        monotone.store(false, std::memory_order_relaxed);
      }
      (void)rec.TrackedMetrics();
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < deadline) {
    rec.TickOnce();  // manual ticks race the background collector
  }
  done.store(true, std::memory_order_release);
  mutator.join();
  history_reader.join();
  dumper.join();
  rec.Stop();

  EXPECT_TRUE(monotone.load());
  rec.TickOnce();
  Result<obs::HistoryStats> h = rec.History("tpset_test_ops_total", kWideWindow);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(static_cast<std::uint64_t>(h->last), ops.Value());
}

// Slow-log writers race SlowQueries readers: each exemplar must come back
// internally consistent (label encodes the wall time it was stored with).
TEST(RecorderConcurrencyTest, SlowLogRacesReaders) {
  obs::MetricsRegistry registry;
  obs::Recorder rec(&registry);

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 400;
  std::atomic<bool> done{false};
  std::atomic<bool> consistent{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (const obs::SlowExemplar& e : rec.SlowQueries()) {
          const std::string expect =
              "q" + std::to_string(static_cast<long long>(e.wall_ms));
          if (e.label != expect || e.kind != "query") {
            consistent.store(false, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int idx = w * kPerWriter + i;
        rec.RecordExecution("query", "q" + std::to_string(1000 + idx),
                            1000.0 + idx, nullptr);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_TRUE(consistent.load());
  EXPECT_EQ(rec.slow_recorded(),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
  const std::vector<obs::SlowExemplar> slow = rec.SlowQueries();
  EXPECT_EQ(slow.size(), rec.options().slow_capacity);
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_LT(slow[i - 1].seq, slow[i].seq);
  }
}

// Concurrent emitters lapping a small event ring while snapshots run: no
// torn events, snapshot order strictly increasing, and once writers quiesce
// the newest capacity events are all present.
TEST(RecorderConcurrencyTest, EventEmittersRaceSnapshots) {
  obs::EventLog log(16);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::atomic<bool> well_formed{true};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::uint64_t prev = 0;
      for (const obs::Event& e : log.Snapshot()) {
        if (e.seq <= prev || std::string(e.subsystem) != "test" ||
            std::string(e.message).rfind("w=", 0) != 0) {
          well_formed.store(false, std::memory_order_relaxed);
        }
        prev = e.seq;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.Emit(obs::Severity::kInfo, "test", "w=%d i=%d", w, i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(well_formed.load());
  EXPECT_EQ(log.emitted(),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
  const std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), log.capacity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, kWriters * kPerWriter - log.capacity() + 1 + i);
  }
}

}  // namespace
}  // namespace tpset
