#include "obs/log.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/json.hpp"

namespace vermem::obs {

namespace detail {
std::atomic<std::uint8_t> g_log_level{static_cast<std::uint8_t>(
    parse_log_level(std::getenv("VERMEM_LOG"), LogLevel::kWarn))};
}  // namespace detail

namespace {

/// One site's GCRA token bucket: a single atomic "theoretical arrival
/// time". An emission is conforming when its would-be TAT stays within
/// tau of now; a refusal leaves the TAT untouched (non-conforming
/// arrivals don't consume capacity).
struct SiteState {
  std::string name;
  std::int64_t interval_ns = 0;  ///< 1e9 / events_per_sec (0 = unlimited)
  std::int64_t tau_ns = 0;       ///< burst * interval
  std::atomic<std::int64_t> tat{0};
  std::atomic<std::uint64_t> suppressed{0};
};

constexpr std::size_t kMaxLogSites = 128;

struct LogRegistry {
  std::mutex mutex;  ///< guards registration and the ring below
  std::unordered_map<std::string, std::uint32_t> site_ids;
  std::deque<SiteState> sites;  // deque: stable addresses for lock-free use
  std::vector<detail::LogFrame> ring;
  std::size_t start = 0;  ///< oldest frame's index once the ring is full
  std::uint64_t dropped = 0;
  std::atomic<std::uint64_t> total_suppressed{0};
};

LogRegistry& log_registry() {
  static LogRegistry* registry = new LogRegistry;  // leaked: late flushes
  return *registry;
}

SiteState& site_state(std::uint32_t id) {
  // Sites are never removed and deque never invalidates references, so
  // reading by id after registration needs no lock.
  return log_registry().sites[id];
}

std::uint32_t local_log_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Registered eagerly so zero drops export as an explicit 0.
const Counter kDroppedLogs = counter("vermem_obs_dropped_total{kind=\"log\"}");

}  // namespace

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kOff:
      return "off";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "off";
}

LogLevel parse_log_level(const char* text, LogLevel fallback) noexcept {
  if (text == nullptr) return fallback;
  const std::string_view v = text;
  if (v == "off" || v == "0" || v == "false") return LogLevel::kOff;
  if (v == "warn") return LogLevel::kWarn;
  if (v == "info") return LogLevel::kInfo;
  if (v == "debug") return LogLevel::kDebug;
  return fallback;
}

LogSite log_site(std::string_view name, double events_per_sec, double burst) {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.site_ids.find(std::string(name));
  if (it != registry.site_ids.end()) return LogSite{it->second};
  if (registry.sites.size() >= kMaxLogSites)
    return LogSite{0};  // alias the first site rather than fail
  const auto id = static_cast<std::uint32_t>(registry.sites.size());
  registry.sites.emplace_back();
  SiteState& site = registry.sites.back();
  site.name.assign(name);
  if (events_per_sec > 0) {
    site.interval_ns = static_cast<std::int64_t>(1e9 / events_per_sec);
    site.tau_ns =
        static_cast<std::int64_t>(burst * static_cast<double>(site.interval_ns));
  }
  registry.site_ids.emplace(std::string(name), id);
  return LogSite{id};
}

bool LogSite::should(LogLevel level) const {
  const LogLevel current = log_level();
  if (level == LogLevel::kOff || current == LogLevel::kOff) return false;
  if (static_cast<std::uint8_t>(level) > static_cast<std::uint8_t>(current))
    return false;
  SiteState& site = site_state(id_);
  if (site.interval_ns == 0) return true;  // unlimited site
  const std::int64_t now = trace_now_ns();
  std::int64_t tat = site.tat.load(std::memory_order_relaxed);
  for (;;) {
    const std::int64_t base = tat > now ? tat : now;
    const std::int64_t fresh = base + site.interval_ns;
    if (fresh - now > site.tau_ns) {
      site.suppressed.fetch_add(1, std::memory_order_relaxed);
      log_registry().total_suppressed.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (site.tat.compare_exchange_weak(tat, fresh, std::memory_order_relaxed))
      return true;
  }
}

LogLine::LogLine(LogSite site, LogLevel level, const char* msg) noexcept {
  frame_.ts_ns = trace_now_ns();
  frame_.msg = msg;
  frame_.site = site.id_;
  frame_.tid = local_log_tid();
  frame_.level = level;
  frame_.suppressed =
      site_state(site.id_).suppressed.exchange(0, std::memory_order_relaxed);
}

LogLine::~LogLine() {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (registry.ring.size() < kLogRingEvents) {
    registry.ring.push_back(frame_);
    return;
  }
  registry.ring[registry.start] = frame_;
  registry.start = (registry.start + 1) % kLogRingEvents;
  ++registry.dropped;
  if (enabled()) kDroppedLogs.add();
}

LogLine& LogLine::field(const char* key, std::uint64_t value) noexcept {
  if (frame_.num_fields >= kMaxLogFields) return *this;
  frame_.field_keys[frame_.num_fields] = key;
  frame_.field_values[frame_.num_fields] = value;
  ++frame_.num_fields;
  return *this;
}

LogLine& LogLine::field(const char* key, std::string_view value) noexcept {
  if (frame_.num_strings >= kMaxLogStringFields) return *this;
  frame_.string_keys[frame_.num_strings] = key;
  const std::size_t n = std::min(value.size(), kLogStringValueBytes - 1);
  std::memcpy(frame_.string_values[frame_.num_strings], value.data(), n);
  frame_.string_values[frame_.num_strings][n] = '\0';
  ++frame_.num_strings;
  return *this;
}

void write_log_jsonl(std::ostream& out) {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const std::size_t count = registry.ring.size();
  for (std::size_t i = 0; i < count; ++i) {
    const detail::LogFrame& frame =
        registry.ring[(registry.start + i) % count];
    out << "{\"ts_ns\":" << frame.ts_ns << ",\"level\":\""
        << to_string(frame.level) << "\",\"site\":\""
        << json_escape(frame.site < registry.sites.size()
                           ? registry.sites[frame.site].name
                           : std::string())
        << "\",\"tid\":" << frame.tid << ",\"msg\":\""
        << json_escape(frame.msg != nullptr ? frame.msg : "")
        << "\",\"suppressed\":" << frame.suppressed << ",\"fields\":{";
    bool first = true;
    for (std::uint8_t f = 0; f < frame.num_fields; ++f) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(frame.field_keys[f]) << "\":"
          << frame.field_values[f];
    }
    for (std::uint8_t s = 0; s < frame.num_strings; ++s) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(frame.string_keys[s]) << "\":\""
          << json_escape(frame.string_values[s]) << '"';
    }
    out << "}}\n";
  }
}

std::size_t log_event_count() {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.ring.size();
}

std::uint64_t log_dropped_count() {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.dropped;
}

std::uint64_t log_suppressed_count() {
  return log_registry().total_suppressed.load(std::memory_order_relaxed);
}

void reset_log() {
  LogRegistry& registry = log_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.ring.clear();
  registry.start = 0;
  registry.dropped = 0;
  registry.total_suppressed.store(0, std::memory_order_relaxed);
  for (SiteState& site : registry.sites) {
    site.tat.store(0, std::memory_order_relaxed);
    site.suppressed.store(0, std::memory_order_relaxed);
  }
}

}  // namespace vermem::obs
