// Bounded structured event log: the flight recorder's second data source.
//
// Metrics answer "how much / how fast"; events answer "what happened and
// when" — the state transitions a counter cannot express: an epoch was
// applied, a compaction ran, retention rebased a DAG, the morsel pool
// saturated, an append was rejected. Each event is one fixed-size record
// (timestamp, severity, subsystem, preformatted message) in a process-wide
// StampedRing (obs/ring.h):
//
//  * Emit formats into the record's fixed char buffers (no allocation) and
//    publishes it with one lock-free claim.
//  * Readers (Snapshot, the crash-dump path) get only records whose stamp
//    held across the copy; a torn or lapped record is skipped, never
//    retried, so reads stay usable from a signal handler even if a writer
//    died mid-record (fork, crash).
//  * The ring overwrites oldest-first. Only an abandoned claim — a lapping
//    writer still held the slot — counts into
//    tpset_obs_events_dropped_total; an overwritten event counts nowhere.
//
// One format + one claim per call: cheap enough for per-epoch emission, not
// meant for per-tuple loops. Emit honors the runtime kill switch
// (MetricsRegistry::set_enabled), like every other record path.
#ifndef TPSET_OBS_EVENTS_H_
#define TPSET_OBS_EVENTS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace tpset::obs {

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// "info" / "warn" / "error".
const char* SeverityName(Severity s);

/// One logged state transition. Plain copyable data; char buffers are always
/// NUL-terminated.
struct Event {
  std::int64_t ts_unix_us = 0;  ///< microseconds since the Unix epoch
  std::uint64_t seq = 0;        ///< global emission order (1-based)
  Severity severity = Severity::kInfo;
  char subsystem[16] = {0};  ///< metric-subsystem spelling: incr, storage, ...
  char message[104] = {0};   ///< preformatted "key=value ..." payload
};

/// Fixed-capacity multi-writer event ring. See the file comment.
class EventLog {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit EventLog(std::size_t capacity = 1024);

  /// The process-wide log every subsystem emits into.
  static EventLog& Global();

  /// Appends one event; printf-style message formatting, truncated to the
  /// slot buffer. No-op when recording is disabled.
  void Emit(Severity severity, const char* subsystem, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));
  void EmitV(Severity severity, const char* subsystem, const char* fmt,
             va_list args);

  /// Events emitted since construction (including overwritten and
  /// dropped ones).
  std::uint64_t emitted() const { return ring_.claimed(); }

  std::size_t capacity() const { return ring_.capacity(); }

  /// The most recent `max_events` events in emission order (oldest first).
  /// Safe to call concurrently with Emit: torn slots are skipped.
  std::vector<Event> Snapshot(std::size_t max_events = SIZE_MAX) const;

  /// Copies the most recent events into a caller-provided array without
  /// allocating — the async-signal-safe read path behind Recorder's crash
  /// dump. Returns the number of events written (oldest first).
  std::size_t SnapshotInto(Event* out, std::size_t max_events) const;

 private:
  StampedRing ring_;
};

/// Shorthand: EventLog::Global().Emit(...).
void EmitEvent(Severity severity, const char* subsystem, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace tpset::obs

#endif  // TPSET_OBS_EVENTS_H_
