// Exporters for metrics snapshots: Prometheus text exposition format and a
// JSON-lines snapshot (one metric per line — the format scripts/ci.sh
// validates against scripts/metrics_schema.json after the bench smoke).
#ifndef TPSET_OBS_EXPORT_H_
#define TPSET_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace tpset::obs {

/// One shard-aggregation pass over the registry, shared by every renderer.
/// Scraping is the expensive half of an export (16 shards x all metrics);
/// rendering is string formatting. Callers that serve multiple formats — or
/// stamp the scrape time into their output — take one TakeScrape() and feed
/// the same snapshot to PrometheusText and/or JsonLines.
struct ScrapeSnapshot {
  std::int64_t scraped_unix_us = 0;  ///< when the shards were aggregated
  MetricsSnapshot snapshot;
};

/// Aggregates `registry` (the process-global one by default) once.
ScrapeSnapshot TakeScrape(MetricsRegistry* registry = nullptr);

/// Prometheus text exposition format, version 0.0.4:
///
///   # HELP tpset_pool_tasks_total tasks executed by all thread pools
///   # TYPE tpset_pool_tasks_total counter
///   tpset_pool_tasks_total 42
///
/// Histograms emit the cumulative `_bucket{le="..."}` series (power-of-two
/// bounds, see HistogramBucketBound) plus `_sum` and `_count`.
std::string PrometheusText(const MetricsSnapshot& snapshot);
std::string PrometheusText(const ScrapeSnapshot& scrape);

/// JSON lines, one object per metric:
///
///   {"name":"tpset_pool_tasks_total","type":"counter","value":42}
///   {"name":"...","type":"histogram","count":7,"sum":123,
///    "bounds":[0,1,3,...],"buckets":[0,2,5,...]}
///
/// `buckets` are non-cumulative; their sum equals `count` (the consistency
/// invariant the CI validator checks).
std::string JsonLines(const MetricsSnapshot& snapshot);
std::string JsonLines(const ScrapeSnapshot& scrape);

}  // namespace tpset::obs

#endif  // TPSET_OBS_EXPORT_H_
