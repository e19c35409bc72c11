#include "obs/flight.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace vermem::obs {

namespace detail {
std::atomic<bool> g_flight_enabled{false};
}  // namespace detail

namespace {

/// One thread's event ring. Written only by the owning thread; the
/// head counter is release-stored so the crash handler's cross-thread
/// acquire-load sees fully written events (best-effort by design).
struct FlightRing {
  FlightEvent events[kFlightRingEvents];
  std::atomic<std::uint64_t> head{0};  ///< total events ever appended
};

/// Fixed registration table so the crash handler can walk every ring
/// without taking a lock or touching reallocatable storage.
constexpr std::size_t kMaxFlightRings = 256;
FlightRing* g_rings[kMaxFlightRings] = {};
std::atomic<std::uint32_t> g_num_rings{0};
std::mutex g_ring_register_mutex;

FlightRing* local_ring() {
  thread_local FlightRing* ring = []() -> FlightRing* {
    auto* fresh = new FlightRing;  // leaked: crash handler reads any time
    std::lock_guard<std::mutex> lock(g_ring_register_mutex);
    const std::uint32_t n = g_num_rings.load(std::memory_order_relaxed);
    if (n >= kMaxFlightRings) {
      delete fresh;
      return nullptr;  // past the cap this thread records nothing
    }
    g_rings[n] = fresh;
    g_num_rings.store(n + 1, std::memory_order_release);
    return fresh;
  }();
  return ring;
}

thread_local FlightScope* t_scope = nullptr;

std::atomic<std::uint64_t> g_next_request_id{0};

std::mutex g_policy_mutex;
FlightPolicy g_policy;  // guarded by g_policy_mutex

/// Retained slow-request log: bounded ring of records, oldest evicted.
struct FlightLog {
  std::mutex mutex;
  std::vector<FlightRecord> records;  // ring once at kFlightLogRecords
  std::size_t start = 0;              // oldest record's index
  std::uint64_t retained_total = 0;
};

FlightLog& flight_log() {
  static FlightLog* log = new FlightLog;  // leaked: dumps may happen late
  return *log;
}

// Registered eagerly so zero drops export as an explicit 0.
const Counter kDroppedEvents =
    counter("vermem_obs_dropped_total{kind=\"event\"}");

void count_capture_drops(std::uint64_t n) {
  if (n == 0 || !enabled()) return;
  kDroppedEvents.add(n);
}

void append_event_json(std::ostream& out, const FlightEvent& event) {
  out << "{\"ts_ns\":" << event.ts_ns << ",\"request_id\":" << event.request_id
      << ",\"kind\":\"" << to_string(event.kind) << "\",\"detail\":\""
      << json_escape(event.detail != nullptr ? event.detail : "")
      << "\",\"a\":" << event.a << ",\"b\":" << event.b << '}';
}

void append_record_json(std::ostream& out, const FlightRecord& record) {
  out << "{\"id\":" << record.id << ",\"tag\":\"" << json_escape(record.tag)
      << "\",\"kind\":\"" << json_escape(record.kind) << "\",\"trigger\":\""
      << json_escape(record.trigger) << "\",\"verdict\":\""
      << json_escape(record.verdict) << "\",\"start_ns\":" << record.start_ns
      << ",\"latency_nanos\":" << record.latency_nanos
      << ",\"timed_out\":" << (record.timed_out ? "true" : "false")
      << ",\"cancelled\":" << (record.cancelled ? "true" : "false");
  const FlightEffort& e = record.effort;
  out << ",\"effort\":{\"states\":" << e.states
      << ",\"transitions\":" << e.transitions
      << ",\"max_frontier\":" << e.max_frontier << ",\"prunes\":" << e.prunes
      << ",\"oracle_prunes\":" << e.oracle_prunes
      << ",\"arena_reserved\":" << e.arena_reserved
      << ",\"arena_high_water\":" << e.arena_high_water
      << ",\"arena_allocations\":" << e.arena_allocations
      << ",\"saturate_ran\":" << e.saturate_ran
      << ",\"saturate_decided\":" << e.saturate_decided
      << ",\"saturate_edges\":" << e.saturate_edges
      << ",\"portfolio_races\":" << e.portfolio_races
      << ",\"portfolio_wasted_states\":" << e.portfolio_wasted_states
      << ",\"portfolio_wasted_transitions\":" << e.portfolio_wasted_transitions
      << '}';
  out << ",\"events\":[";
  for (std::uint32_t i = 0; i < record.num_events; ++i) {
    if (i != 0) out << ',';
    append_event_json(out, record.events[i]);
  }
  out << "],\"spans\":[";
  for (std::uint32_t i = 0; i < record.num_spans; ++i) {
    const CapturedSpan& span = record.spans[i];
    if (i != 0) out << ',';
    out << "{\"name\":\"" << json_escape(span.name != nullptr ? span.name : "")
        << "\",\"start_ns\":" << span.start_ns << ",\"dur_ns\":" << span.dur_ns
        << ",\"id\":" << span.id << ",\"parent\":" << span.parent_id << '}';
  }
  out << "],\"dropped_events\":" << record.dropped_events
      << ",\"dropped_spans\":" << record.dropped_spans << '}';
}

}  // namespace

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kRequestBegin:
      return "request_begin";
    case FlightEventKind::kRequestEnd:
      return "request_end";
    case FlightEventKind::kTierEnter:
      return "tier_enter";
    case FlightEventKind::kTierVerdict:
      return "tier_verdict";
    case FlightEventKind::kCancelled:
      return "cancelled";
    case FlightEventKind::kDeadline:
      return "deadline";
    case FlightEventKind::kSolverRestart:
      return "solver_restart";
    case FlightEventKind::kArenaHighWater:
      return "arena_high_water";
  }
  return "unknown";
}

void set_flight_enabled(bool on) noexcept {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

void set_flight_policy(const FlightPolicy& policy) {
  std::lock_guard<std::mutex> lock(g_policy_mutex);
  g_policy = policy;
}

FlightPolicy flight_policy() {
  std::lock_guard<std::mutex> lock(g_policy_mutex);
  return g_policy;
}

void flight_event(FlightEventKind kind, const char* detail, std::uint64_t a,
                  std::uint64_t b) {
  if (!flight_enabled()) return;
  FlightRing* ring = local_ring();
  if (ring == nullptr) return;
  FlightScope* scope = t_scope;
  FlightEvent event;
  event.ts_ns = trace_now_ns();
  event.request_id = scope != nullptr && scope->active() ? scope->request_id() : 0;
  event.a = a;
  event.b = b;
  event.detail = detail;
  event.kind = kind;
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  ring->events[head % kFlightRingEvents] = event;
  ring->head.store(head + 1, std::memory_order_release);
}

FlightScope::FlightScope(const char* kind, std::string_view tag) {
  if (!flight_enabled() || t_scope != nullptr) return;
  if (local_ring() == nullptr) return;
  active_ = true;
  record_.id = g_next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
  record_.kind = kind;
  const std::size_t n = std::min(tag.size(), kFlightTagBytes - 1);
  std::memcpy(record_.tag, tag.data(), n);
  record_.tag[n] = '\0';
  record_.start_ns = trace_now_ns();
  begin_head_ = local_ring()->head.load(std::memory_order_relaxed);
  t_scope = this;
  flight_event(FlightEventKind::kRequestBegin, kind);
}

FlightScope::~FlightScope() {
  if (active_ && !finished_) finish(Summary{});
}

std::uint64_t FlightScope::finish(const Summary& summary) {
  if (!active_ || finished_) return 0;
  flight_event(FlightEventKind::kRequestEnd, summary.verdict,
               summary.latency_nanos);
  finished_ = true;
  t_scope = nullptr;  // stop span/event attribution before copying
  const FlightPolicy policy = flight_policy();
  const char* trigger = nullptr;
  if (summary.timed_out) {
    trigger = "deadline";
  } else if (summary.cancelled) {
    trigger = "cancelled";
  } else if (summary.incoherent) {
    trigger = "incoherent";
  } else if (policy.latency_threshold_nanos != 0 &&
             summary.latency_nanos >= policy.latency_threshold_nanos) {
    trigger = "slow";
  } else if (summary.unknown) {
    trigger = "unknown";
  }
  if (trigger == nullptr) return 0;

  record_.verdict = summary.verdict;
  record_.trigger = trigger;
  record_.latency_nanos = summary.latency_nanos;
  record_.timed_out = summary.timed_out;
  record_.cancelled = summary.cancelled;
  record_.effort = summary.effort;

  // This thread wrote every event in [begin_head_, head) — copy the
  // most recent kMaxRecordEvents of the window (the tail holds the
  // verdict-explaining tiers, restarts, and the kRequestEnd stamp).
  FlightRing& ring = *local_ring();
  const std::uint64_t end = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t window = end - begin_head_;
  std::uint64_t avail = std::min<std::uint64_t>(window, kFlightRingEvents);
  record_.dropped_events = window - avail;
  if (avail > kMaxRecordEvents) {
    record_.dropped_events += avail - kMaxRecordEvents;
    avail = kMaxRecordEvents;
  }
  for (std::uint64_t seq = end - avail; seq != end; ++seq)
    record_.events[record_.num_events++] = ring.events[seq % kFlightRingEvents];

  // Make the span tree self-contained: a parent that was not captured
  // (still open, or lost to the cap) becomes a root within the record.
  for (std::uint32_t i = 0; i < record_.num_spans; ++i) {
    const std::uint64_t parent = record_.spans[i].parent_id;
    if (parent == 0) continue;
    bool resolved = false;
    for (std::uint32_t j = 0; j < record_.num_spans && !resolved; ++j)
      resolved = record_.spans[j].id == parent;
    if (!resolved) record_.spans[i].parent_id = 0;
  }

  count_capture_drops(record_.dropped_events + record_.dropped_spans);

  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (log.records.size() < kFlightLogRecords) {
    log.records.push_back(record_);
  } else {
    log.records[log.start] = record_;
    log.start = (log.start + 1) % kFlightLogRecords;
  }
  ++log.retained_total;
  return record_.id;
}

namespace detail {

bool flight_spans_wanted() noexcept {
  const FlightScope* scope = t_scope;
  return scope != nullptr && scope->active_ && !scope->finished_;
}

void flight_capture_span(const char* name, std::int64_t start_ns,
                         std::int64_t dur_ns, std::uint64_t id,
                         std::uint64_t parent_id) noexcept {
  FlightScope* scope = t_scope;
  if (scope == nullptr || !scope->active_ || scope->finished_) return;
  FlightRecord& record = scope->record_;
  if (record.num_spans >= kMaxRecordSpans) {
    ++record.dropped_spans;
    return;
  }
  record.spans[record.num_spans++] =
      CapturedSpan{name, start_ns, dur_ns, id, parent_id};
}

}  // namespace detail

void write_flight_json(std::ostream& out) {
  const FlightPolicy policy = flight_policy();
  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  out << "{\"policy\":{\"latency_threshold_nanos\":"
      << policy.latency_threshold_nanos
      << "},\"retained_total\":" << log.retained_total << ",\"records\":[";
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    if (i != 0) out << ',';
    out << '\n';
    append_record_json(out,
                       log.records[(log.start + i) % log.records.size()]);
  }
  out << "\n]}\n";
}

std::size_t flight_retained_count() {
  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  return log.records.size();
}

std::uint64_t flight_retained_total() {
  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  return log.retained_total;
}

bool flight_record_for(std::uint64_t id, FlightRecord* out) {
  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  for (const FlightRecord& record : log.records) {
    if (record.id != id) continue;
    if (out != nullptr) *out = record;
    return true;
  }
  return false;
}

void reset_flight() {
  FlightLog& log = flight_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.records.clear();
  log.start = 0;
  log.retained_total = 0;
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

char g_crash_path[512] = {};

// Hand-rolled async-signal-safe output: write(2) only, no locks, no
// allocation, no stdio.
void crash_text(int fd, const char* text) {
  std::size_t len = 0;
  while (text[len] != '\0') ++len;
  std::size_t off = 0;
  while (off < len) {
    const ::ssize_t n = ::write(fd, text + off, len - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void crash_u64(int fd, unsigned long long value) {
  char buf[24];
  std::size_t i = sizeof buf;
  do {
    buf[--i] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  std::size_t off = i;
  while (off < sizeof buf) {
    const ::ssize_t n = ::write(fd, buf + off, sizeof buf - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void crash_i64(int fd, long long value) {
  if (value < 0) {
    crash_text(fd, "-");
    crash_u64(fd, static_cast<unsigned long long>(-(value + 1)) + 1);
  } else {
    crash_u64(fd, static_cast<unsigned long long>(value));
  }
}

void crash_json_string(int fd, const char* text) {
  crash_text(fd, "\"");
  char buf[2] = {};
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') crash_text(fd, "\\");
    if (static_cast<unsigned char>(*p) < 0x20) continue;  // skip control
    buf[0] = *p;
    crash_text(fd, buf);
  }
  crash_text(fd, "\"");
}

extern "C" void vermem_crash_handler(int sig) {
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    crash_text(fd, "{\"crash\":true,\"signal\":");
    crash_i64(fd, sig);
    crash_text(fd, ",\"events\":[");
    bool first = true;
    const std::uint32_t rings = g_num_rings.load(std::memory_order_acquire);
    for (std::uint32_t r = 0; r < rings && r < kMaxFlightRings; ++r) {
      const FlightRing* ring = g_rings[r];
      if (ring == nullptr) continue;
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t avail =
          head < kFlightRingEvents ? head : kFlightRingEvents;
      for (std::uint64_t seq = head - avail; seq != head; ++seq) {
        const FlightEvent& event = ring->events[seq % kFlightRingEvents];
        if (!first) crash_text(fd, ",");
        first = false;
        crash_text(fd, "{\"ring\":");
        crash_u64(fd, r);
        crash_text(fd, ",\"ts_ns\":");
        crash_i64(fd, event.ts_ns);
        crash_text(fd, ",\"request_id\":");
        crash_u64(fd, event.request_id);
        crash_text(fd, ",\"kind\":");
        crash_json_string(fd, to_string(event.kind));
        crash_text(fd, ",\"detail\":");
        crash_json_string(fd, event.detail != nullptr ? event.detail : "");
        crash_text(fd, ",\"a\":");
        crash_u64(fd, event.a);
        crash_text(fd, ",\"b\":");
        crash_u64(fd, event.b);
        crash_text(fd, "}");
      }
    }
    crash_text(fd, "],\"counters\":{");
    detail::write_counters_crash(fd);
    crash_text(fd, "}}\n");
    ::close(fd);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_crash_handler(const char* path) {
  std::size_t n = 0;
  while (path[n] != '\0' && n < sizeof g_crash_path - 1) {
    g_crash_path[n] = path[n];
    ++n;
  }
  g_crash_path[n] = '\0';
  struct sigaction action {};
  action.sa_handler = vermem_crash_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
}

#else

void install_crash_handler(const char*) {}

#endif

}  // namespace vermem::obs
