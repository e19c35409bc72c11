#pragma once
// Structured, leveled, alloc-bounded JSONL logger.
//
// Every emission site registers a named LogSite once (function-local
// static, like obs::Counter handles) and asks `site.should(level)`
// before formatting anything. A refusal is one relaxed atomic load
// (level gate) plus at most one CAS (the site's token bucket), so log
// statements can sit on hot paths. Rate limiting is per site via GCRA —
// a single atomic "theoretical arrival time" per site, no token
// counters, no background refill thread — so a misbehaving site
// (e.g. a storm of unknown verdicts) degrades to a bounded trickle plus
// a suppression count instead of an unbounded log flood.
//
// Accepted events are fixed-size frames (static-string message and
// keys, bounded numeric fields, two bounded inline string copies)
// appended to one global ring capped at kLogRingEvents; the ring
// overwrites oldest-first and counts every overwrite into
// vermem_obs_dropped_total{kind="log"}. Nothing in the recording path
// allocates after the ring's one-time reservation.
//
// The process level comes from VERMEM_LOG (off|warn|info|debug; default
// warn), changeable at runtime with set_log_level(). write_log_jsonl()
// renders the ring oldest-first as one JSON object per line — the
// normative field table lives in docs/OBSERVABILITY.md and is checked
// by tools/check_log.py.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace vermem::obs {

enum class LogLevel : std::uint8_t { kOff = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

[[nodiscard]] const char* to_string(LogLevel level) noexcept;

/// Parses off|0|false -> kOff, warn -> kWarn, info -> kInfo,
/// debug -> kDebug; anything else (including null) -> fallback.
[[nodiscard]] LogLevel parse_log_level(const char* text,
                                       LogLevel fallback) noexcept;

namespace detail {
extern std::atomic<std::uint8_t> g_log_level;  // see accessors below
}  // namespace detail

inline constexpr std::size_t kMaxLogFields = 6;
inline constexpr std::size_t kMaxLogStringFields = 2;
inline constexpr std::size_t kLogStringValueBytes = 48;
/// Global retained-event cap (~1 MB at sizeof(detail::LogFrame)).
inline constexpr std::size_t kLogRingEvents = 4096;

namespace detail {
/// One committed log event. Fixed-size: static-string message/keys,
/// bounded inline copies for the two string values.
struct LogFrame {
  std::int64_t ts_ns = 0;
  const char* msg = nullptr;
  std::uint64_t suppressed = 0;
  std::uint32_t site = 0;
  std::uint32_t tid = 0;
  LogLevel level = LogLevel::kOff;
  std::uint8_t num_fields = 0;
  std::uint8_t num_strings = 0;
  const char* field_keys[kMaxLogFields] = {};
  std::uint64_t field_values[kMaxLogFields] = {};
  const char* string_keys[kMaxLogStringFields] = {};
  char string_values[kMaxLogStringFields][kLogStringValueBytes] = {};
};
}  // namespace detail

/// Current process log level. Relaxed load: a sampling switch.
[[nodiscard]] inline LogLevel log_level() noexcept {
  return static_cast<LogLevel>(
      detail::g_log_level.load(std::memory_order_relaxed));
}
inline void set_log_level(LogLevel level) noexcept {
  detail::g_log_level.store(static_cast<std::uint8_t>(level),
                            std::memory_order_relaxed);
}

/// Handle to a registered, token-bucket-limited emission site.
class LogSite {
 public:
  LogSite() = default;

  /// True when a message at `level` should be emitted now: passes the
  /// process level gate and consumes one token from this site's bucket.
  /// A level-gated refusal is free; a rate-limited refusal is counted
  /// and reported as `suppressed` on the site's next accepted event.
  [[nodiscard]] bool should(LogLevel level) const;

 private:
  friend class LogLine;
  friend LogSite log_site(std::string_view, double, double);
  explicit LogSite(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Registers (or finds) a site by name. `events_per_sec` is the
/// sustained rate the bucket refills at; `burst` is how many events may
/// pass back-to-back from a full bucket. Rate parameters are fixed by
/// the first registration of a name.
[[nodiscard]] LogSite log_site(std::string_view name,
                               double events_per_sec = 16.0,
                               double burst = 32.0);

/// One accepted log event under construction; commits to the global
/// ring on destruction. Construct only after site.should(level) said
/// yes — LogLine itself never rejects. `msg` and every field key must
/// be static strings; string field *values* are copied (truncated to
/// kLogStringValueBytes - 1).
class LogLine {
 public:
  LogLine(LogSite site, LogLevel level, const char* msg) noexcept;
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  LogLine& field(const char* key, std::uint64_t value) noexcept;
  LogLine& field(const char* key, std::string_view value) noexcept;

 private:
  detail::LogFrame frame_;
};

/// Renders the retained ring oldest-first, one JSON object per line.
void write_log_jsonl(std::ostream& out);

/// Events currently retained in the ring.
[[nodiscard]] std::size_t log_event_count();
/// Events overwritten because the ring was full (also counted into
/// vermem_obs_dropped_total{kind="log"}).
[[nodiscard]] std::uint64_t log_dropped_count();
/// Emissions refused by site token buckets (level-gated refusals are
/// not counted; they are policy, not loss).
[[nodiscard]] std::uint64_t log_suppressed_count();
/// Clears the ring and the drop/suppression tallies (sites and their
/// rate parameters stay registered). Bench/test helper.
void reset_log();

}  // namespace vermem::obs
