#pragma once
// RAII span tracer. A Span marks one timed region of one thread:
// construction stamps the start, destruction stamps the duration and
// appends a finished event to the calling thread's buffer. Parent links
// come from a thread-local stack of open spans, so nesting is captured
// without any caller plumbing. Attributes are bounded and allocation
// free: up to four numeric and two string attrs per span, keys and
// string values must be string literals (or otherwise outlive the trace
// buffer) — exactly what the instrumentation sites need (fragment and
// decider names come from constexpr to_string tables).
//
// Collection is gated on obs::tracing_enabled(): a disabled Span is one
// relaxed load and a few stores to its own frame. Finished events go to
// per-thread buffers owned by the global trace log (they survive thread
// exit, e.g. the service's pool workers); each buffer is capped —
// events past the cap are dropped, counted, and reported via
// vermem_obs_dropped_total{kind="span"}, so a long-running service
// cannot grow without bound and cannot truncate silently.
// write_chrome_trace() emits the whole log in Chrome trace-event JSON
// ("X" complete events, ts/dur in microseconds), loadable in Perfetto /
// chrome://tracing.
//
// Spans are additionally collected — independent of the global tracing
// switch — while the calling thread is inside an active
// obs::FlightScope: the finished span is copied into that request's
// flight-recorder scratch so a captured slow/wrong request carries
// its own span tree (see obs/flight.hpp).

#include <cstdint>
#include <iosfwd>

#include "obs/obs.hpp"

namespace vermem::obs {

inline constexpr std::size_t kMaxNumericAttrs = 4;
inline constexpr std::size_t kMaxStringAttrs = 2;
/// Per-thread finished-span cap (~24 MB of events at sizeof(SpanEvent)).
inline constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 18;

/// One finished span, in original (per-thread, start-ordered at export)
/// recording order.
struct SpanEvent {
  const char* name = nullptr;
  std::int64_t start_ns = 0;  ///< since the process trace epoch
  std::int64_t dur_ns = 0;
  std::uint64_t id = 0;         ///< unique per process
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::uint32_t tid = 0;        ///< dense thread number, not the OS tid
  std::uint8_t num_numeric = 0;
  std::uint8_t num_strings = 0;
  const char* numeric_keys[kMaxNumericAttrs] = {};
  std::uint64_t numeric_values[kMaxNumericAttrs] = {};
  const char* string_keys[kMaxStringAttrs] = {};
  const char* string_values[kMaxStringAttrs] = {};
};

class Span {
 public:
  /// Not noexcept: the calling thread's buffer is allocated lazily on
  /// its first span.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric attribute; silently dropped past the cap or on
  /// an inactive span. `key` must outlive the trace buffer.
  void attr(const char* key, std::uint64_t value) noexcept {
    if (!active_ || event_.num_numeric >= kMaxNumericAttrs) return;
    event_.numeric_keys[event_.num_numeric] = key;
    event_.numeric_values[event_.num_numeric] = value;
    ++event_.num_numeric;
  }
  /// String attribute; both pointers must outlive the trace buffer.
  void attr(const char* key, const char* value) noexcept {
    if (!active_ || event_.num_strings >= kMaxStringAttrs) return;
    event_.string_keys[event_.num_strings] = key;
    event_.string_values[event_.num_strings] = value;
    ++event_.num_strings;
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  SpanEvent event_;
  Span* prev_open_ = nullptr;
  bool active_ = false;
};

/// Nanoseconds since the process trace epoch (a steady clock anchored
/// at first use). Every obs timestamp — spans, log events, flight
/// events, SLO windows — shares this epoch so they correlate directly.
[[nodiscard]] std::int64_t trace_now_ns() noexcept;

/// Writes every collected span as Chrome trace-event JSON. Within each
/// thread, events are emitted in start-time order (monotonic ts).
void write_chrome_trace(std::ostream& out);

/// Total finished spans currently held across all thread buffers.
[[nodiscard]] std::size_t trace_event_count();

/// Spans dropped because a thread buffer hit kMaxEventsPerThread.
[[nodiscard]] std::uint64_t trace_dropped_count();

/// Clears all thread buffers (capacity retained). Bench/test helper.
void reset_trace();

}  // namespace vermem::obs
