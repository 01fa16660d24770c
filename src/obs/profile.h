// Trace spans: a per-execution QueryProfile recording a span tree (parse →
// analyze → per-node sweep → per-morsel advance → splice/apply; per-epoch
// delta propagation for continuous queries) with wall and thread-CPU times,
// free-form attributes, and the owning operation's LawaStats counters
// attached to each span.
//
// A profile is owned by one execution (the ExecOptions::profile hook, an
// EXPLAIN run, or a continuous query's last-epoch record). Span creation is
// not synchronized — the engine pre-builds the node-level tree on the
// coordinating thread and hands each concurrent task its own Span*, whose
// subtree that task alone touches (the same ownership discipline as the
// morsel result slots). Rendering/serialization must wait for the execution
// to finish.
#ifndef TPSET_OBS_PROFILE_H_
#define TPSET_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lawa/set_ops.h"

namespace tpset::obs {

/// One node of the span tree. Plain data; owned through the parent chain.
struct Span {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< thread CPU time of the recording thread
  /// Microseconds since the Unix epoch when the span started (0 = never
  /// timed). The root span's value is the query's admission timestamp — the
  /// hook a serving layer's fairness accounting needs.
  std::int64_t start_unix_us = 0;
  /// Engine counters attached by the owning operation (all-zero otherwise).
  LawaStats stats;
  bool has_stats = false;
  /// Free-form key=value annotations (out=5, windows=8, relation=a, ...).
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::unique_ptr<Span>> children;

  /// Appends a child span. The returned pointer is stable (children are
  /// heap-allocated) for the profile's lifetime.
  Span* AddChild(std::string child_name);

  /// First child with `child_name`, or nullptr.
  const Span* FindChild(std::string_view child_name) const;

  /// Attribute value by key, or "".
  std::string Attr(std::string_view key) const;

  void SetAttr(std::string key, std::string value);
  void SetAttr(std::string key, std::size_t value);
  void SetAttr(std::string key, double value);

  void AttachStats(const LawaStats& s) {
    stats = s;
    has_stats = true;
  }
};

/// Fills a span's wall/CPU times over its lifetime (RAII). Null-safe: a
/// null span makes every operation a no-op, so call sites stay branch-free.
class SpanTimer {
 public:
  explicit SpanTimer(Span* span);
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { Stop(); }

  /// Stops the clock early (idempotent).
  void Stop();

 private:
  Span* span_;
  std::chrono::steady_clock::time_point wall0_;
  double cpu0_ms_ = 0.0;
};

/// This thread's CPU time in milliseconds (0 where unsupported).
double ThreadCpuMs();

/// Microseconds since the Unix epoch.
std::int64_t NowUnixUs();

/// A per-execution profile: one root span plus bookkeeping. The root span
/// is created on construction with the admission timestamp already stamped.
class QueryProfile {
 public:
  explicit QueryProfile(std::string root_name = "query");

  Span& root() { return *root_; }
  const Span& root() const { return *root_; }

  /// Admission time (microseconds since the Unix epoch): when this profile
  /// — and therefore the execution it records — was created.
  std::int64_t admitted_unix_us() const { return root_->start_unix_us; }

  /// Resets to a fresh root (for reusable per-epoch profiles).
  void Reset(std::string root_name);

  /// Indented span tree:
  ///   query  [wall=1.23ms cpu=1.10ms]
  ///     node union  [wall=0.80ms out=6 windows=8]
  ///       advance  [wall=0.70ms]
  std::string Render() const;

  /// The span tree as one JSON object (spans nested under "children").
  std::string ToJson() const;

 private:
  std::unique_ptr<Span> root_;
};

}  // namespace tpset::obs

#endif  // TPSET_OBS_PROFILE_H_
