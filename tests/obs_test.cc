// Observability layer: sharded metrics (under concurrent hammering — this
// test carries the concurrency label and runs under the CI TSan job), the
// runtime kill switch, golden Prometheus/JSON exports, and span-tree
// well-formedness properties.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::PropertySeeds;

constexpr std::size_t kThreads = 8;

// N threads hammer one counter; the aggregate is exact — shards may split
// the increments any way, but none may be lost.
TEST(ObsMetricsTest, ConcurrentCounterIncrementsAreExact) {
  obs::Counter counter;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

// Concurrent histogram observations: total count and sum are exact and the
// per-bucket counts add up to the count (the CI validator's invariant).
TEST(ObsMetricsTest, ConcurrentHistogramObservationsAreExact) {
  obs::Histogram hist;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.Observe(t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0, sum = 0;
  hist.Snapshot(&buckets, &count, &sum);
  const std::uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(count, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);  // sum of 0..n-1
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, count);
}

// Concurrent gauge adds cancel exactly.
TEST(ObsMetricsTest, ConcurrentGaugeAddsBalance) {
  obs::Gauge gauge;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t]() {
      const std::int64_t delta = t % 2 == 0 ? 7 : -7;
      for (int i = 0; i < 10000; ++i) gauge.Add(delta);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), 0);
}

// Property: a counter's Value() never decreases, even while writers are
// racing the reads (shards only grow; relaxed loads may lag, never exceed).
TEST(ObsMetricsTest, CounterIsMonotoneUnderConcurrency) {
  for (std::uint64_t seed : PropertySeeds({1, 7, 42})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    obs::Counter counter;
    std::atomic<bool> done{false};
    std::atomic<bool> monotone{true};
    std::thread reader([&]() {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t v = counter.Value();
        if (v < last) monotone.store(false, std::memory_order_relaxed);
        last = v;
      }
    });
    std::uint64_t expected = 0;
    std::vector<std::uint64_t> written(4, 0);
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < 4; ++t) {
      writers.emplace_back([&counter, &written, seed, t]() {
        std::mt19937_64 rng(seed * 1000 + t);
        for (int i = 0; i < 5000; ++i) {
          const std::uint64_t n = rng() % 8;
          counter.Increment(n);
          written[t] += n;
        }
      });
    }
    for (std::thread& w : writers) w.join();
    done.store(true, std::memory_order_release);
    reader.join();
    for (std::uint64_t w : written) expected += w;
    EXPECT_TRUE(monotone.load());
    EXPECT_EQ(counter.Value(), expected);
  }
}

// The runtime kill switch freezes every metric kind; re-enabling resumes
// recording from the frozen value (scrapes keep working throughout).
TEST(ObsMetricsTest, RuntimeKillSwitchFreezesRecording) {
  ASSERT_TRUE(obs::MetricsRegistry::enabled());
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram hist;
  counter.Increment(3);
  gauge.Set(5);
  hist.Observe(1);

  obs::MetricsRegistry::set_enabled(false);
  counter.Increment(100);
  gauge.Set(-1);
  gauge.Add(17);
  hist.Observe(9999);
  obs::MetricsRegistry::set_enabled(true);

  EXPECT_EQ(counter.Value(), 3u);
  EXPECT_EQ(gauge.Value(), 5);
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0, sum = 0;
  hist.Snapshot(&buckets, &count, &sum);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(sum, 1u);

  counter.Increment(2);
  EXPECT_EQ(counter.Value(), 5u);
}

// Golden Prometheus text export from a locally-built registry with known
// values. Bucket lines are generated from the documented bounds — cumulative
// counts, +Inf last, then _sum/_count.
TEST(ObsExportTest, PrometheusTextGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tpset_test_ops_total", "ops").Increment(42);
  registry.GetGauge("tpset_test_depth", "depth").Set(-3);
  obs::Histogram& hist = registry.GetHistogram("tpset_test_lat_usec", "lat");
  hist.Observe(0);  // bucket 0
  hist.Observe(5);  // bucket 3: [4, 8)
  hist.Observe(5);

  std::string expected =
      "# HELP tpset_test_depth depth\n"
      "# TYPE tpset_test_depth gauge\n"
      "tpset_test_depth -3\n"
      "# HELP tpset_test_lat_usec lat\n"
      "# TYPE tpset_test_lat_usec histogram\n";
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    const std::uint64_t cumulative = b == 0 ? 1 : (b < 3 ? 1 : 3);
    const std::string le =
        b + 1 == obs::kHistogramBuckets
            ? "+Inf"
            : std::to_string(obs::HistogramBucketBound(b));
    expected += "tpset_test_lat_usec_bucket{le=\"" + le + "\"} " +
                std::to_string(cumulative) + "\n";
  }
  expected +=
      "tpset_test_lat_usec_sum 10\n"
      "tpset_test_lat_usec_count 3\n"
      "# HELP tpset_test_ops_total ops\n"
      "# TYPE tpset_test_ops_total counter\n"
      "tpset_test_ops_total 42\n";

  EXPECT_EQ(obs::PrometheusText(registry.Scrape()), expected);
}

// JSON-lines export: one object per metric, sorted by name; histogram
// buckets are non-cumulative and sum to the count.
TEST(ObsExportTest, JsonLinesShapeAndConsistency) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tpset_test_ops_total", "ops").Increment(7);
  obs::Histogram& hist = registry.GetHistogram("tpset_test_lat_usec", "lat");
  for (std::uint64_t v : {0, 1, 2, 100, 1000000}) hist.Observe(v);

  const obs::MetricsSnapshot snapshot = registry.Scrape();
  const obs::MetricSnapshot* h = snapshot.Find("tpset_test_lat_usec");
  ASSERT_NE(h, nullptr);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->hist_count);
  EXPECT_EQ(h->hist_count, 5u);
  EXPECT_EQ(h->hist_sum, 1000103u);

  const std::string lines = obs::JsonLines(snapshot);
  EXPECT_NE(lines.find("{\"name\":\"tpset_test_ops_total\",\"type\":"
                       "\"counter\",\"value\":7}\n"),
            std::string::npos)
      << lines;
  EXPECT_NE(lines.find("\"name\":\"tpset_test_lat_usec\",\"type\":"
                       "\"histogram\",\"count\":5,\"sum\":1000103"),
            std::string::npos)
      << lines;
  // One line per metric, each a braced object.
  std::size_t line_count = 0;
  for (char c : lines) line_count += c == '\n';
  EXPECT_EQ(line_count, snapshot.metrics.size());
}

// Scrape-while-record: exporters run against a registry that writers are
// mutating and extending (new metrics registering mid-scrape). Every export
// must be structurally complete — whole lines, no torn names — and once the
// writers quiesce the export carries the exact final values. TSan-clean.
TEST(ObsExportTest, ExportsStayWellFormedWhileRecording) {
  obs::MetricsRegistry registry;
  obs::Counter& ops = registry.GetCounter("tpset_race_ops_total", "ops");
  obs::Histogram& lat = registry.GetHistogram("tpset_race_lat_usec", "lat");
  obs::Gauge& depth = registry.GetGauge("tpset_race_depth", "depth");

  constexpr int kDynamic = 64;
  std::atomic<bool> done{false};
  std::atomic<bool> well_formed{true};
  std::thread mutator([&]() {
    std::int64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      ops.Increment();
      lat.Observe(static_cast<std::uint64_t>(i % 1024));
      depth.Set(i % 32 - 16);
      ++i;
    }
  });
  std::thread registrar([&registry]() {
    for (int i = 0; i < kDynamic; ++i) {
      registry
          .GetCounter("tpset_race_dyn" + std::to_string(i) + "_total", "dyn")
          .Increment(static_cast<std::uint64_t>(i));
    }
  });
  std::thread scraper([&]() {
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = registry.Scrape();
      // Prometheus: every line is a comment or starts with a metric name.
      const std::string prom = obs::PrometheusText(snap);
      std::size_t start = 0;
      while (start < prom.size()) {
        std::size_t end = prom.find('\n', start);
        if (end == std::string::npos) end = prom.size();
        const std::string line = prom.substr(start, end - start);
        if (!line.empty() && line[0] != '#' &&
            line.rfind("tpset_race_", 0) != 0) {
          well_formed.store(false, std::memory_order_relaxed);
        }
        start = end + 1;
      }
      // JSON lines: one braced object per line, name always present.
      const std::string lines = obs::JsonLines(snap);
      start = 0;
      while (start < lines.size()) {
        std::size_t end = lines.find('\n', start);
        if (end == std::string::npos) break;
        const std::string line = lines.substr(start, end - start);
        if (line.rfind("{\"name\":\"tpset_race_", 0) != 0 ||
            line.back() != '}') {
          well_formed.store(false, std::memory_order_relaxed);
        }
        start = end + 1;
      }
    }
  });
  registrar.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  mutator.join();
  scraper.join();
  EXPECT_TRUE(well_formed.load());

  // Quiesced: the final export is exact and internally consistent.
  const obs::MetricsSnapshot snap = registry.Scrape();
  EXPECT_EQ(snap.metrics.size(), 3u + kDynamic);
  const obs::MetricSnapshot* c = snap.Find("tpset_race_ops_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter, ops.Value());
  const obs::MetricSnapshot* h = snap.Find("tpset_race_lat_usec");
  ASSERT_NE(h, nullptr);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->hist_count);
  for (int i = 0; i < kDynamic; ++i) {
    const obs::MetricSnapshot* d =
        snap.Find("tpset_race_dyn" + std::to_string(i) + "_total");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->counter, static_cast<std::uint64_t>(i));
  }
}

// Re-registration returns the same metric (stable handles).
TEST(ObsMetricsTest, RegistrationIsIdempotent) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("tpset_test_x_total", "first");
  obs::Counter& b = registry.GetCounter("tpset_test_x_total", "second");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  EXPECT_EQ(registry.Scrape().Find("tpset_test_x_total")->help, "first");
}

// ---- Span trees -------------------------------------------------------------

// Counts spans and checks parent/child invariants recursively.
void CheckSpanTree(const obs::Span& span, std::size_t depth,
                   std::size_t* count, std::size_t max_depth) {
  ++*count;
  EXPECT_LE(depth, max_depth);
  EXPECT_FALSE(span.name.empty());
  for (const auto& child : span.children) {
    ASSERT_NE(child, nullptr);
    CheckSpanTree(*child, depth + 1, count, max_depth);
  }
}

// Property: randomly grown span trees stay well-formed — every AddChild is
// reachable exactly once, FindChild resolves first-by-name, Render emits one
// line per span at the right indentation, ToJson balances its braces.
TEST(ObsProfileTest, SpanTreeWellFormednessProperty) {
  for (std::uint64_t seed : PropertySeeds({3, 11, 99})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    obs::QueryProfile profile("root");

    // Grow a random tree: repeatedly pick a span and add a child.
    std::vector<obs::Span*> spans = {&profile.root()};
    const std::size_t kSpans = 1 + rng() % 40;
    for (std::size_t i = 0; i < kSpans; ++i) {
      obs::Span* parent = spans[rng() % spans.size()];
      obs::Span* child = parent->AddChild("s" + std::to_string(i % 7));
      child->wall_ms = static_cast<double>(rng() % 1000) / 10.0;
      if (rng() % 2 == 0) child->SetAttr("out", std::size_t{i});
      if (rng() % 3 == 0) {
        LawaStats stats;
        stats.windows_produced = i;
        child->AttachStats(stats);
      }
      spans.push_back(child);
    }

    std::size_t count = 0;
    CheckSpanTree(profile.root(), 0, &count, kSpans + 1);
    EXPECT_EQ(count, spans.size());

    // Render: exactly one line per span.
    const std::string text = profile.Render();
    std::size_t line_count = 0;
    for (char c : text) line_count += c == '\n';
    EXPECT_EQ(line_count, count) << text;

    // FindChild returns the first child with the name.
    if (!profile.root().children.empty()) {
      const obs::Span* first = profile.root().children.front().get();
      EXPECT_EQ(profile.root().FindChild(first->name), first);
    }
    EXPECT_EQ(profile.root().FindChild("no-such-child"), nullptr);

    // ToJson: balanced braces and brackets, root name present.
    const std::string json = profile.ToJson();
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
      EXPECT_GE(braces, 0);
      EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0) << json;
    EXPECT_EQ(brackets, 0) << json;
    EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  }
}

// SpanTimer stamps wall/CPU on stop, is idempotent, and is null-safe.
TEST(ObsProfileTest, SpanTimerStampsAndNullIsNoop) {
  obs::Span span;
  span.name = "timed";
  {
    obs::SpanTimer timer(&span);
    timer.Stop();
    timer.Stop();  // idempotent
  }
  EXPECT_GE(span.wall_ms, 0.0);
  EXPECT_GT(span.start_unix_us, 0);

  obs::SpanTimer null_timer(nullptr);  // must not crash
  null_timer.Stop();
}

// A profile Reset produces a fresh root with a new admission timestamp.
TEST(ObsProfileTest, ResetProducesFreshRoot) {
  obs::QueryProfile profile("epoch");
  profile.root().AddChild("child");
  ASSERT_EQ(profile.root().children.size(), 1u);
  profile.Reset("epoch");
  EXPECT_TRUE(profile.root().children.empty());
  EXPECT_EQ(profile.root().name, "epoch");
  EXPECT_GT(profile.admitted_unix_us(), 0);
}

}  // namespace
}  // namespace tpset
