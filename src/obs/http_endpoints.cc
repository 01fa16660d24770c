#include "obs/http_endpoints.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "query/executor.h"

namespace tpset::obs {

namespace {

using net::HttpRequest;
using net::HttpResponse;

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  AppendEscaped(s, &out);
  out += '"';
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Parses `text` as a positive integer in [1, max]; returns fallback when
/// empty, 0 on garbage or out-of-range (callers answer 400).
long ParsePositive(const std::string& text, long fallback, long max) {
  if (text.empty()) return fallback;
  if (text.find_first_not_of("0123456789") != std::string::npos) return 0;
  errno = 0;
  const long v = std::strtol(text.c_str(), nullptr, 10);
  if (errno != 0 || v < 1 || v > max) return 0;
  return v;
}

HttpResponse Metrics(const HttpRequest& request) {
  // One shard-aggregation pass serves either rendering (the ScrapeSnapshot
  // fix: formats differ, the scrape does not).
  const ScrapeSnapshot scrape = TakeScrape();
  const std::string format = request.QueryParam("format");
  if (format == "json") return HttpResponse::Json(200, JsonLines(scrape));
  if (!format.empty() && format != "prometheus") {
    return HttpResponse::Text(
        400, "unknown format '" + format + "' (prometheus | json)\n");
  }
  HttpResponse response = HttpResponse::Text(200, PrometheusText(scrape));
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  return response;
}

HttpResponse Events(const HttpRequest& request) {
  const long n = ParsePositive(request.QueryParam("n"), 50, 100000);
  if (n == 0) {
    return HttpResponse::Text(
        400, "bad n='" + request.QueryParam("n") + "' (want 1..100000)\n");
  }
  const std::vector<Event> events =
      EventLog::Global().Snapshot(static_cast<std::size_t>(n));
  std::string body = "{\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) body += ',';
    body += "{\"seq\":" + std::to_string(e.seq) +
            ",\"ts_unix_us\":" + std::to_string(e.ts_unix_us) +
            ",\"severity\":" + Quoted(SeverityName(e.severity)) +
            ",\"subsystem\":" + Quoted(e.subsystem) +
            ",\"message\":" + Quoted(e.message) + "}";
  }
  body += "],\"emitted\":" + std::to_string(EventLog::Global().emitted()) +
          "}\n";
  return HttpResponse::Json(200, body);
}

HttpResponse Slow(const HttpRequest&) {
  const std::vector<SlowExemplar> slow = Recorder::Global().SlowQueries();
  std::string body = "{\"slow_queries\":[";
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const SlowExemplar& s = slow[i];
    if (i > 0) body += ',';
    body += "{\"seq\":" + std::to_string(s.seq) +
            ",\"ts_unix_us\":" + std::to_string(s.ts_unix_us) +
            ",\"wall_ms\":" + FormatDouble(s.wall_ms) +
            ",\"threshold_ms\":" + FormatDouble(s.threshold_ms) +
            ",\"kind\":" + Quoted(s.kind) + ",\"label\":" + Quoted(s.label) +
            // Already JSON (a span tree or the literal null) — embed raw.
            ",\"profile\":" + (s.profile_json.empty() ? "null" : s.profile_json) +
            "}";
  }
  body += "],\"recorded\":" + std::to_string(Recorder::Global().slow_recorded()) +
          "}\n";
  return HttpResponse::Json(200, body);
}

HttpResponse Top(const HttpRequest& request) {
  const long window_sec =
      ParsePositive(request.QueryParam("window"), 10, 24 * 3600);
  if (window_sec == 0) {
    return HttpResponse::Text(
        400, "bad window='" + request.QueryParam("window") +
                 "' (want seconds, 1..86400)\n");
  }
  const std::chrono::milliseconds window(window_sec * 1000);
  Recorder& recorder = Recorder::Global();
  std::string body = "{\"window_sec\":" + std::to_string(window_sec) +
                     ",\"ticks\":" + std::to_string(recorder.ticks()) +
                     ",\"metrics\":[";
  bool first = true;
  for (const std::string& name : recorder.TrackedMetrics()) {
    const Result<HistoryStats> stats = recorder.History(name, window);
    if (!stats.ok()) continue;  // sampled once, then never again — skip
    if (!first) body += ',';
    first = false;
    const HistoryStats& h = *stats;
    const char* kind = h.kind == MetricSnapshot::Kind::kCounter   ? "counter"
                       : h.kind == MetricSnapshot::Kind::kGauge   ? "gauge"
                                                                  : "histogram";
    body += "{\"name\":" + Quoted(name) + ",\"kind\":\"" + kind +
            "\",\"samples\":" + std::to_string(h.samples) +
            ",\"window_sec\":" + FormatDouble(h.window_sec) +
            ",\"first\":" + std::to_string(h.first) +
            ",\"last\":" + std::to_string(h.last) +
            ",\"min\":" + std::to_string(h.min) +
            ",\"max\":" + std::to_string(h.max) +
            ",\"avg\":" + FormatDouble(h.avg) +
            ",\"rate_per_sec\":" + FormatDouble(h.rate_per_sec);
    if (h.kind == MetricSnapshot::Kind::kHistogram) {
      body += ",\"p99\":" + FormatDouble(h.p99) +
              ",\"avg_value\":" + FormatDouble(h.avg_value);
    }
    body += "}";
  }
  body += "]}\n";
  return HttpResponse::Json(200, body);
}

// An introspection copy, or none when refused. HTTP workers never hold an
// executor's write fence, so the copy is not refused in practice.
template <typename T>
std::vector<T> OrEmpty(Result<std::vector<T>> copy) {
  return copy.ok() ? std::move(copy).value() : std::vector<T>();
}

std::string QueriesJson(const QueryExecutor* executor) {
  std::string body = "{\"relations\":[";
  if (executor != nullptr) {
    const std::vector<RelationIntrospection> relations =
        OrEmpty(executor->IntrospectRelations());
    for (std::size_t i = 0; i < relations.size(); ++i) {
      const RelationIntrospection& r = relations[i];
      if (i > 0) body += ',';
      body += "{\"name\":" + Quoted(r.name) +
              ",\"tuples\":" + std::to_string(r.tuples) +
              ",\"runs\":" + std::to_string(r.runs) + ",\"watermark\":" +
              (r.has_watermark ? std::to_string(r.watermark) : "null") +
              ",\"generation\":" + std::to_string(r.generation) +
              ",\"compaction_debt\":" + std::to_string(r.compaction_debt) +
              "}";
    }
  }
  body += "],\"continuous\":[";
  if (executor != nullptr) {
    const std::vector<ContinuousIntrospection> queries =
        OrEmpty(executor->IntrospectContinuous());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ContinuousIntrospection& q = queries[i];
      if (i > 0) body += ',';
      body += "{\"name\":" + Quoted(q.name) + ",\"query\":" + Quoted(q.text) +
              ",\"last_epoch\":" + std::to_string(q.last_epoch) +
              ",\"log_epoch\":" + std::to_string(q.log_epoch) +
              ",\"epochs_applied\":" + std::to_string(q.epochs_applied) +
              ",\"result_tuples\":" + std::to_string(q.result_tuples) +
              ",\"low_watermark\":" +
              (q.has_low_watermark ? std::to_string(q.low_watermark) : "null") +
              ",\"effective_watermark\":" +
              (q.has_effective_watermark ? std::to_string(q.effective_watermark)
                                         : "null") +
              ",\"subscribers\":[";
      for (std::size_t j = 0; j < q.subscribers.size(); ++j) {
        const auto& s = q.subscribers[j];
        if (j > 0) body += ',';
        body += "{\"id\":" + std::to_string(s.id) +
                ",\"last_delivered\":" + std::to_string(s.last_delivered) +
                ",\"lag\":" + std::to_string(s.lag) + "}";
      }
      body += "]}";
    }
  }
  body += "],\"last_epoch\":" +
          std::to_string(executor != nullptr
                             ? static_cast<std::uint64_t>(executor->last_epoch())
                             : 0) +
          "}\n";
  return body;
}

void AppendEscapedHtml(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '&': *out += "&amp;"; break;
      default: *out += c;
    }
  }
}

HttpResponse Statusz(const QueryExecutor* executor) {
  Recorder& recorder = Recorder::Global();
  std::string body =
      "<!DOCTYPE html><html><head><title>tpset /statusz</title>"
      "<style>body{font-family:monospace;margin:2em}table{border-collapse:"
      "collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
      "h2{margin-top:1.2em}</style></head><body><h1>tpset introspection</h1>";

  body += "<h2>Recorder</h2><table><tr><th>running</th><th>ticks</th>"
          "<th>tick_ms</th><th>ring_capacity</th><th>slow_recorded</th></tr>";
  body += "<tr><td>" + std::string(recorder.running() ? "yes" : "no") +
          "</td><td>" + std::to_string(recorder.ticks()) + "</td><td>" +
          std::to_string(recorder.options().tick.count()) + "</td><td>" +
          std::to_string(recorder.options().ring_capacity) + "</td><td>" +
          std::to_string(recorder.slow_recorded()) + "</td></tr></table>";

  if (executor == nullptr) {
    body += "<h2>Engine</h2><p>no executor wired</p>";
  } else {
    body += "<h2>Relations</h2><table><tr><th>name</th><th>tuples</th>"
            "<th>runs</th><th>watermark</th><th>generation</th>"
            "<th>debt</th></tr>";
    for (const RelationIntrospection& r :
         OrEmpty(executor->IntrospectRelations())) {
      body += "<tr><td>";
      AppendEscapedHtml(r.name, &body);
      body += "</td><td>" + std::to_string(r.tuples) + "</td><td>" +
              std::to_string(r.runs) + "</td><td>" +
              (r.has_watermark ? std::to_string(r.watermark)
                               : std::string("-")) +
              "</td><td>" + std::to_string(r.generation) + "</td><td>" +
              std::to_string(r.compaction_debt) + "</td></tr>";
    }
    body += "</table><h2>Continuous queries (last_epoch=" +
            std::to_string(static_cast<std::uint64_t>(executor->last_epoch())) +
            ")</h2><table><tr><th>name</th><th>query</th><th>last_epoch</th>"
            "<th>epochs_applied</th><th>tuples</th><th>low_wm</th>"
            "<th>subscribers (id:lag)</th></tr>";
    for (const ContinuousIntrospection& q :
         OrEmpty(executor->IntrospectContinuous())) {
      body += "<tr><td>";
      AppendEscapedHtml(q.name, &body);
      body += "</td><td>";
      AppendEscapedHtml(q.text, &body);
      body += "</td><td>" + std::to_string(q.last_epoch) + "</td><td>" +
              std::to_string(q.epochs_applied) + "</td><td>" +
              std::to_string(q.result_tuples) + "</td><td>" +
              (q.has_low_watermark ? std::to_string(q.low_watermark)
                                   : std::string("-")) +
              "</td><td>";
      for (std::size_t j = 0; j < q.subscribers.size(); ++j) {
        if (j > 0) body += ", ";
        body += std::to_string(q.subscribers[j].id) + ":" +
                std::to_string(q.subscribers[j].lag);
      }
      body += "</td></tr>";
    }
    body += "</table>";
  }

  const std::vector<Event> events = EventLog::Global().Snapshot(10);
  body += "<h2>Recent events</h2><table><tr><th>seq</th><th>severity</th>"
          "<th>subsystem</th><th>message</th></tr>";
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    body += "<tr><td>" + std::to_string(it->seq) + "</td><td>" +
            SeverityName(it->severity) + "</td><td>";
    AppendEscapedHtml(it->subsystem, &body);
    body += "</td><td>";
    AppendEscapedHtml(it->message, &body);
    body += "</td></tr>";
  }
  body += "</table><p>endpoints: <a href=\"/metrics\">/metrics</a> "
          "<a href=\"/flight\">/flight</a> <a href=\"/events\">/events</a> "
          "<a href=\"/slow\">/slow</a> <a href=\"/top\">/top</a> "
          "<a href=\"/queries\">/queries</a> <a href=\"/healthz\">/healthz</a> "
          "<a href=\"/readyz\">/readyz</a></p></body></html>\n";
  return HttpResponse::Html(200, body);
}

}  // namespace

void RegisterIntrospectionEndpoints(net::HttpServer* server,
                                    const QueryExecutor* executor) {
  server->Route("/metrics", Metrics);
  server->Route("/healthz", [](const HttpRequest&) {
    return HttpResponse::Text(200, "ok\n");
  });
  server->Route("/readyz", [executor](const HttpRequest&) {
    // Liveness vs readiness: /healthz answers "the serving thread is up";
    // this answers "the engine behind it is" — an executor is wired and the
    // flight-recorder collector is sampling.
    if (executor == nullptr) {
      return HttpResponse::Text(503, "not ready: no executor wired\n");
    }
    if (!Recorder::Global().running()) {
      return HttpResponse::Text(503, "not ready: recorder not running\n");
    }
    return HttpResponse::Text(200, "ready\n");
  });
  server->Route("/flight", [](const HttpRequest&) {
    // FlightRecordJson serializes dumps on its own mutex; concurrent /flight
    // requests queue there, appends never do.
    return HttpResponse::Json(200, Recorder::Global().FlightRecordJson());
  });
  server->Route("/events", Events);
  server->Route("/slow", Slow);
  server->Route("/top", Top);
  server->Route("/queries", [executor](const HttpRequest&) {
    return HttpResponse::Json(200, QueriesJson(executor));
  });
  server->Route("/statusz", [executor](const HttpRequest&) {
    return Statusz(executor);
  });
  server->Route("/", [](const HttpRequest&) {
    HttpResponse r = HttpResponse::Text(
        200,
        "tpset introspection server\n"
        "endpoints: /metrics /healthz /readyz /flight /events?n= /slow "
        "/top?window= /queries /statusz\n");
    return r;
  });
}

}  // namespace tpset::obs
