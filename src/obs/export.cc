#include "obs/export.h"

#include "obs/profile.h"

namespace tpset::obs {

namespace {

const char* TypeName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

ScrapeSnapshot TakeScrape(MetricsRegistry* registry) {
  if (registry == nullptr) registry = &MetricsRegistry::Global();
  ScrapeSnapshot scrape;
  scrape.scraped_unix_us = NowUnixUs();
  scrape.snapshot = registry->Scrape();
  return scrape;
}

std::string PrometheusText(const ScrapeSnapshot& scrape) {
  return PrometheusText(scrape.snapshot);
}

std::string JsonLines(const ScrapeSnapshot& scrape) {
  return JsonLines(scrape.snapshot);
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + m.help + "\n";
    }
    out += "# TYPE " + m.name + " " + TypeName(m.kind) + "\n";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += m.name + " " + std::to_string(m.counter) + "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        out += m.name + " " + std::to_string(m.gauge) + "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          cumulative += m.buckets[b];
          // The last bucket is unbounded: its `le` label is +Inf, which
          // also makes the final cumulative count equal `_count`.
          const std::string le =
              b + 1 == m.buckets.size()
                  ? "+Inf"
                  : std::to_string(HistogramBucketBound(b));
          out += m.name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += m.name + "_sum " + std::to_string(m.hist_sum) + "\n";
        out += m.name + "_count " + std::to_string(m.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string JsonLines(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    out += "{\"name\":\"" + m.name + "\",\"type\":\"" + TypeName(m.kind) + "\"";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += ",\"value\":" + std::to_string(m.counter);
        break;
      case MetricSnapshot::Kind::kGauge:
        out += ",\"value\":" + std::to_string(m.gauge);
        break;
      case MetricSnapshot::Kind::kHistogram: {
        out += ",\"count\":" + std::to_string(m.hist_count) +
               ",\"sum\":" + std::to_string(m.hist_sum) + ",\"bounds\":[";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          if (b > 0) out += ',';
          out += b + 1 == m.buckets.size()
                     ? "null"  // +Inf
                     : std::to_string(HistogramBucketBound(b));
        }
        out += "],\"buckets\":[";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          if (b > 0) out += ',';
          out += std::to_string(m.buckets[b]);
        }
        out += ']';
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace tpset::obs
