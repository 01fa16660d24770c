#include "obs/events.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace tpset::obs {

namespace {

obs::Counter& EventsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_obs_events_total", "structured events emitted into the ring");
  return c;
}

obs::Counter& EventsDroppedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_obs_events_dropped_total",
      "events dropped: ring slot contended past the bounded claim retries");
  return c;
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "info";
}

static_assert(sizeof(Event) % 8 == 0, "an Event is whole ring words");

EventLog::EventLog(std::size_t capacity)
    : ring_(RoundUpPow2(capacity), sizeof(Event) / 8) {}

EventLog& EventLog::Global() {
  // Leaked like MetricsRegistry::Global: subsystems may emit during static
  // destruction, and the crash handler reads it at arbitrary points.
  static EventLog* global = new EventLog(1024);
  return *global;
}

void EventLog::Emit(Severity severity, const char* subsystem, const char* fmt,
                    ...) {
  va_list args;
  va_start(args, fmt);
  EmitV(severity, subsystem, fmt, args);
  va_end(args);
}

void EventLog::EmitV(Severity severity, const char* subsystem, const char* fmt,
                     va_list args) {
  if (!internal::RecordingEnabled()) return;
  Event e;
  e.ts_unix_us = NowUnixUs();
  e.severity = severity;
  std::snprintf(e.subsystem, sizeof(e.subsystem), "%s", subsystem);
  std::vsnprintf(e.message, sizeof(e.message), fmt, args);
  // The ring assigns the seq; readers stamp it back into their copy. A
  // dropped event is diagnostics lost, not a failure: the ring is not a
  // transaction log.
  if (ring_.Publish(&e)) {
    EventsCounter().Increment();
  } else {
    EventsDroppedCounter().Increment();
  }
}

std::size_t EventLog::SnapshotInto(Event* out, std::size_t max_events) const {
  Event copy;
  std::size_t n = 0;
  ring_.Read(max_events, &copy, [&](std::uint64_t seq) {
    out[n] = copy;
    out[n++].seq = seq;
  });
  return n;
}

std::vector<Event> EventLog::Snapshot(std::size_t max_events) const {
  const std::size_t cap = std::min(max_events, capacity());
  std::vector<Event> out(cap);
  out.resize(SnapshotInto(out.data(), cap));
  return out;
}

void EmitEvent(Severity severity, const char* subsystem, const char* fmt,
               ...) {
  va_list args;
  va_start(args, fmt);
  EventLog::Global().EmitV(severity, subsystem, fmt, args);
  va_end(args);
}

}  // namespace tpset::obs
