#pragma once
// Flight recorder: always-on, bounded capture of *why a specific
// request was slow, cancelled, or wrong* — the post-hoc
// complement to the aggregate metrics registry.
//
// Three layers:
//
// 1. **Per-thread event rings.** flight_event() appends a fixed-size
//    structured event (tier transition, deadline, solver restart,
//    arena high-water, ...) to the calling thread's lock-free ring —
//    a plain array plus one release-stored head counter, written only
//    by the owning thread, overwriting oldest-first. Cost when enabled:
//    one clock read and a handful of stores; when disabled: one relaxed
//    load. The rings are the crash-dump substrate (below).
//
// 2. **Request capture.** An RAII FlightScope brackets one request on
//    its worker thread: it assigns the process-unique request id that
//    events and spans attach to, and finish(summary) evaluates the
//    global FlightPolicy — latency over threshold, verdict unknown or
//    incoherent, cancelled, timed out. A triggered request's
//    full context (span tree via obs::Span, its window of ring events,
//    effort/arena/saturation tallies) is copied into a FlightRecord
//    and retained in a fixed-size slow-request log (oldest evicted),
//    dumpable via write_flight_json() / `vermemd --flight-out`.
//    Everything is bounded: kMaxRecordEvents/kMaxRecordSpans per
//    record, kFlightLogRecords records; truncation is counted into
//    vermem_obs_dropped_total{kind="event"}, never silent.
//
// 3. **Crash dump.** install_crash_handler(path) hooks SIGSEGV/SIGABRT
//    with a best-effort async-signal-safe dump (open/write only,
//    hand-rolled formatting, no locks, no allocation) of the last
//    ring events on every thread plus a counter snapshot — the black
//    box survives the crash that would otherwise eat the explanation.
//
// Thread-safety contract (TSan-clean by construction): each ring is
// written and — during capture — read only by its owning thread; the
// retained-record log is mutex-guarded and cold; the crash handler
// alone reads rings cross-thread, best-effort by design.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace vermem::obs {

enum class FlightEventKind : std::uint8_t {
  kRequestBegin = 0,
  kRequestEnd,
  kTierEnter,      ///< router dispatched an address to a tier/decider
  kTierVerdict,    ///< that tier's outcome (detail = decider name)
  kCancelled,
  kDeadline,       ///< deadline expired before a definite verdict
  kSolverRestart,  ///< CDCL restart
  kArenaHighWater, ///< exact-search arena peak (a = high water bytes)
};

[[nodiscard]] const char* to_string(FlightEventKind kind) noexcept;

/// One structured flight event. `detail` must be a static string.
struct FlightEvent {
  std::int64_t ts_ns = 0;  ///< process trace epoch (obs::trace_now_ns)
  std::uint64_t request_id = 0;  ///< 0 = outside any FlightScope
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const char* detail = nullptr;
  FlightEventKind kind = FlightEventKind::kRequestBegin;
};

/// Per-thread ring capacity (power of two; ~40 KB per thread).
inline constexpr std::size_t kFlightRingEvents = std::size_t{1} << 10;
/// Bounded per-record captures.
inline constexpr std::size_t kMaxRecordEvents = 48;
inline constexpr std::size_t kMaxRecordSpans = 96;
inline constexpr std::size_t kFlightTagBytes = 64;
/// Retained slow-request log size (oldest evicted).
inline constexpr std::size_t kFlightLogRecords = 64;

namespace detail {
extern std::atomic<bool> g_flight_enabled;

/// True while the calling thread is inside an active FlightScope —
/// obs::Span uses this to collect span trees with tracing off.
[[nodiscard]] bool flight_spans_wanted() noexcept;
/// Copies one finished span into the calling thread's active scope.
void flight_capture_span(const char* name, std::int64_t start_ns,
                         std::int64_t dur_ns, std::uint64_t id,
                         std::uint64_t parent_id) noexcept;
}  // namespace detail

/// Master switch; off by default (vermemd --flight-out, tests, and
/// bench_obs turn it on). Relaxed load, same contract as obs::enabled().
[[nodiscard]] inline bool flight_enabled() noexcept {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}
void set_flight_enabled(bool on) noexcept;

/// Capture policy evaluated at FlightScope::finish(). A request is
/// retained when it hit its deadline, was cancelled, got an
/// incoherent or unknown verdict, or was slow.
struct FlightPolicy {
  /// Retain requests at or over this end-to-end latency; 0 disarms.
  std::uint64_t latency_threshold_nanos = 50'000'000;
};

void set_flight_policy(const FlightPolicy& policy);
[[nodiscard]] FlightPolicy flight_policy();

/// Effort tallies copied into a retained record. Plain mirror of the
/// solver/arena/saturation counters the upper layers track — obs/ is
/// the bottom layer and cannot see their types. CDCL effort counts as
/// states (decisions) and transitions (propagations), as in SearchStats.
struct FlightEffort {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_frontier = 0;
  std::uint64_t prunes = 0;
  std::uint64_t oracle_prunes = 0;
  std::uint64_t arena_reserved = 0;
  std::uint64_t arena_high_water = 0;
  std::uint64_t arena_allocations = 0;
  std::uint64_t saturate_ran = 0;
  std::uint64_t saturate_decided = 0;
  std::uint64_t saturate_edges = 0;
  /// Exact-tier portfolio races behind this request, and the cancelled
  /// losers' effort. The states/transitions fields above stay
  /// winner-only; the race overhead is kept separate so a flight record
  /// explains latency honestly (the per-race winner is in the
  /// tier_verdict events).
  std::uint64_t portfolio_races = 0;
  std::uint64_t portfolio_wasted_states = 0;
  std::uint64_t portfolio_wasted_transitions = 0;
};

/// One span captured into a record (parents unresolvable within the
/// record are remapped to 0, so the per-record tree is self-contained).
struct CapturedSpan {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
};

/// One retained request: identity, trigger, verdict, effort, and the
/// bounded event window + span tree that explain it.
struct FlightRecord {
  std::uint64_t id = 0;  ///< the request id (stable across dumps)
  char tag[kFlightTagBytes] = {};
  const char* kind = "";     ///< request kind (coherence/vscc/...)
  const char* verdict = "";
  const char* trigger = "";  ///< which policy trigger retained it
  std::int64_t start_ns = 0;
  std::uint64_t latency_nanos = 0;
  bool timed_out = false;
  bool cancelled = false;
  FlightEffort effort{};
  std::uint32_t num_events = 0;
  std::uint32_t num_spans = 0;
  std::uint64_t dropped_events = 0;  ///< events lost to ring/record caps
  std::uint64_t dropped_spans = 0;   ///< spans lost to the record cap
  FlightEvent events[kMaxRecordEvents] = {};
  CapturedSpan spans[kMaxRecordSpans] = {};
};

/// Appends one event to the calling thread's ring (no-op when the
/// recorder is disabled). `detail` must be a static string.
void flight_event(FlightEventKind kind, const char* detail,
                  std::uint64_t a = 0, std::uint64_t b = 0);

/// RAII bracket for one request on its worker thread. Non-reentrant
/// per thread (a nested scope deactivates itself). Construct *before*
/// the request's top-level obs::Span so the span tree lands inside the
/// capture window.
class FlightScope {
 public:
  /// `kind` must be a static string; `tag` is copied (truncated).
  FlightScope(const char* kind, std::string_view tag);
  ~FlightScope();
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  /// Process-unique id events/spans attach to; 0 when inactive.
  [[nodiscard]] std::uint64_t request_id() const noexcept {
    return record_.id;
  }

  struct Summary {
    const char* verdict = "";  ///< static string
    bool unknown = false;      ///< verdict is kUnknown
    bool incoherent = false;
    bool timed_out = false;
    bool cancelled = false;
    std::uint64_t latency_nanos = 0;
    FlightEffort effort{};
  };

  /// Stamps kRequestEnd, evaluates the policy, and — when triggered —
  /// retains the record. Returns the retained record id (== the
  /// request id) or 0. Idempotent; the destructor finishes with an
  /// empty summary if never called (nothing retained unless a trigger
  /// matches vacuously).
  std::uint64_t finish(const Summary& summary);

 private:
  friend bool detail::flight_spans_wanted() noexcept;
  friend void detail::flight_capture_span(const char*, std::int64_t,
                                          std::int64_t, std::uint64_t,
                                          std::uint64_t) noexcept;
  FlightRecord record_;
  std::uint64_t begin_head_ = 0;  ///< own ring head at scope entry
  bool active_ = false;
  bool finished_ = false;
};

/// Dumps policy + retained records as one JSON object (schema in
/// docs/OBSERVABILITY.md, validated by tools/check_log.py --flight).
void write_flight_json(std::ostream& out);

/// Records currently retained / retained over the process lifetime.
[[nodiscard]] std::size_t flight_retained_count();
[[nodiscard]] std::uint64_t flight_retained_total();
/// Copies the retained record with this id, if still resident.
[[nodiscard]] bool flight_record_for(std::uint64_t id, FlightRecord* out);
/// Clears retained records and ring contents (ids keep advancing).
void reset_flight();

/// Installs the SIGSEGV/SIGABRT black-box dump writing to `path`
/// (truncated to an internal bound; the file is created at crash time).
/// Best-effort and async-signal-safe: last ring events per thread plus
/// a counter snapshot, then the default handler re-raises. Idempotent;
/// later calls replace the path.
void install_crash_handler(const char* path);

}  // namespace vermem::obs
