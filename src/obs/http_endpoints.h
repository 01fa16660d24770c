// Introspection endpoints: the observability plane over HTTP.
//
// Wires the engine's existing read-side surfaces — metric scrapes, flight
// records, event/slow-query rings, executor introspection — onto a
// net::HttpServer. Every handler reads through a path that is already safe
// concurrent with the engine (registry Scrape, StampedRing reads, the
// executor's write fence); no handler takes a lock an Append hot path holds
// beyond the fence itself, and none mutate engine state.
//
// Endpoint catalog (DESIGN.md "Introspection server" is the operator-facing
// version):
//   GET /metrics            Prometheus text (one registry scrape);
//                           ?format=json renders the same scrape as the
//                           JSON-lines export CI validates
//   GET /healthz            liveness: 200 while the server thread is up
//   GET /readyz             readiness: 200 once an executor is wired AND the
//                           flight-recorder collector is running; 503 else
//   GET /flight             JSON flight record (schema: \dump /
//                           scripts/flight_record_schema.json)
//   GET /events?n=N         last N structured events (default 50) as JSON
//   GET /slow               retained slow-execution exemplars as JSON
//   GET /top?window=SEC     windowed rates/p99 per tracked metric from the
//                           recorder rings (default 10s)
//   GET /queries            stored relations + continuous queries with
//                           per-subscription lag, low watermark, epochs
//   GET /statusz            human-readable HTML summary of all of the above
//
// Handlers run on HTTP worker threads, which never hold an executor's write
// fence, so the executor's Introspect* copies are never refused there. The
// server owns no engine state; the engine owns no server state: the caller
// keeps `executor` alive while the server runs.
#ifndef TPSET_OBS_HTTP_ENDPOINTS_H_
#define TPSET_OBS_HTTP_ENDPOINTS_H_

#include "net/http_server.h"

namespace tpset {
class QueryExecutor;
}  // namespace tpset

namespace tpset::obs {

/// Registers every introspection route on `server` (call before Start).
/// `executor` may be null: metrics/flight/events/slow/top still serve, while
/// /readyz reports 503 and /queries serves empty catalogs. When non-null it
/// must outlive the server's serving lifetime.
void RegisterIntrospectionEndpoints(net::HttpServer* server,
                                    const QueryExecutor* executor);

}  // namespace tpset::obs

#endif  // TPSET_OBS_HTTP_ENDPOINTS_H_
