#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "support/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace vermem::obs {

namespace detail {

namespace {
[[nodiscard]] bool env_initial(const char* value, bool metrics) {
  if (value == nullptr) return metrics;  // default: metrics on, tracing off
  const std::string_view v = value;
  if (v == "off" || v == "0" || v == "false") return false;
  if (v == "trace") return true;
  return metrics;
}
}  // namespace

std::atomic<bool> g_metrics_enabled{
    env_initial(std::getenv("VERMEM_OBS"), /*metrics=*/true)};
std::atomic<bool> g_tracing_enabled{
    env_initial(std::getenv("VERMEM_OBS"), /*metrics=*/false)};

}  // namespace detail

namespace {
/// Threads past this many share one overflow shard (atomics, so merely
/// slower, never wrong).
constexpr std::size_t kMaxShards = 256;
}  // namespace

struct Registry::Impl {
  mutable std::mutex mutex;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::unordered_map<std::string, std::uint32_t> histogram_ids;
  // Names and shards sit in fixed tables (count published with a
  // release store after the slot is written) so the async-signal-safe
  // crash dump can walk them without locks or reallocation hazards.
  std::array<std::string, kMaxCounters> counter_names;
  std::atomic<std::uint32_t> num_counters{0};
  std::array<std::string, kMaxHistograms> histogram_names;
  std::atomic<std::uint32_t> num_histograms{0};
  std::array<detail::Shard*, kMaxShards> shard_slots{};
  std::atomic<std::uint32_t> num_shards{0};
  detail::Shard overflow_shard;

  /// Applies `fn` to every registered shard, overflow included.
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    const std::uint32_t n = num_shards.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) fn(*shard_slots[i]);
    fn(overflow_shard);
  }
};

Registry::Registry() : impl_(new Impl) {
  // Slot 0 is the sink for registrations past kMaxCounters.
  impl_->counter_ids.emplace("vermem_obs_overflow_total", 0);
  impl_->counter_names[0] = "vermem_obs_overflow_total";
  impl_->num_counters.store(1, std::memory_order_release);
}

Registry& Registry::instance() {
  static Registry* registry = new Registry;  // leaked: see header
  return *registry;
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->counter_ids.find(std::string(name));
  if (it != impl_->counter_ids.end()) return Counter{it->second};
  const std::uint32_t id = impl_->num_counters.load(std::memory_order_relaxed);
  if (id >= kMaxCounters) return Counter{0};
  impl_->counter_ids.emplace(std::string(name), id);
  impl_->counter_names[id] = std::string(name);
  impl_->num_counters.store(id + 1, std::memory_order_release);
  return Counter{id};
}

Histogram Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->histogram_ids.find(std::string(name));
  if (it != impl_->histogram_ids.end()) return Histogram{it->second};
  const std::uint32_t id = impl_->num_histograms.load(std::memory_order_relaxed);
  if (id >= kMaxHistograms) return Histogram{kMaxHistograms - 1};
  impl_->histogram_ids.emplace(std::string(name), id);
  impl_->histogram_names[id] = std::string(name);
  impl_->num_histograms.store(id + 1, std::memory_order_release);
  return Histogram{id};
}

detail::Shard& Registry::register_thread_shard() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::uint32_t n = impl_->num_shards.load(std::memory_order_relaxed);
  if (n >= kMaxShards) return impl_->overflow_shard;
  auto* shard = new detail::Shard;  // leaked with the registry (reachable)
  impl_->shard_slots[n] = shard;
  impl_->num_shards.store(n + 1, std::memory_order_release);
  return *shard;
}

namespace detail {
Shard& local_shard() {
  thread_local Shard* shard = &Registry::instance().register_thread_shard();
  return *shard;
}
}  // namespace detail

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::uint32_t num_counters =
      impl_->num_counters.load(std::memory_order_relaxed);
  out.counters.reserve(num_counters);
  for (std::uint32_t id = 0; id < num_counters; ++id) {
    std::uint64_t total = 0;
    impl_->for_each_shard([&](const detail::Shard& shard) {
      total += shard.counters[id].load(std::memory_order_relaxed);
    });
    out.counters.emplace_back(impl_->counter_names[id], total);
  }
  const std::uint32_t num_histograms =
      impl_->num_histograms.load(std::memory_order_relaxed);
  out.histograms.reserve(num_histograms);
  for (std::uint32_t id = 0; id < num_histograms; ++id) {
    HistogramSnapshot hist;
    hist.name = impl_->histogram_names[id];
    impl_->for_each_shard([&](const detail::Shard& shard) {
      const detail::HistShard& hs = shard.histograms[id];
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t n = hs.buckets[b].load(std::memory_order_relaxed);
        hist.data.buckets[b] += n;
        hist.data.count += n;
      }
      hist.data.sum += hs.sum.load(std::memory_order_relaxed);
    });
    out.histograms.push_back(std::move(hist));
  }
  std::sort(out.counters.begin(), out.counters.end());
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->for_each_shard([](detail::Shard& shard) {
    for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard.histograms) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
    }
  });
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

// write(2)-only helpers for the async-signal-safe crash dump.
void crash_write_text(int fd, const char* text) noexcept {
  std::size_t len = 0;
  while (text[len] != '\0') ++len;
  std::size_t off = 0;
  while (off < len) {
    const ::ssize_t n = ::write(fd, text + off, len - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void crash_write_u64(int fd, unsigned long long value) noexcept {
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

}  // namespace

void Registry::crash_dump_counters(int fd) const noexcept {
  // Lock-free walk: counts were release-published after their slots
  // were written, and std::string contents are stable once assigned.
  const std::uint32_t num_counters =
      impl_->num_counters.load(std::memory_order_acquire);
  const std::uint32_t num_shards =
      impl_->num_shards.load(std::memory_order_acquire);
  for (std::uint32_t id = 0; id < num_counters; ++id) {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < num_shards; ++s)
      total += impl_->shard_slots[s]->counters[id].load(
          std::memory_order_relaxed);
    total +=
        impl_->overflow_shard.counters[id].load(std::memory_order_relaxed);
    if (id != 0) crash_write_text(fd, ",");
    crash_write_text(fd, "\"");
    for (const char* p = impl_->counter_names[id].c_str(); *p != '\0'; ++p) {
      const char pair[2] = {*p, '\0'};
      if (*p == '"' || *p == '\\') crash_write_text(fd, "\\");
      crash_write_text(fd, pair);
    }
    crash_write_text(fd, "\":");
    crash_write_u64(fd, total);
  }
}

#else

void Registry::crash_dump_counters(int) const noexcept {}

#endif

namespace detail {
void write_counters_crash(int fd) noexcept {
  Registry::instance().crash_dump_counters(fd);
}
}  // namespace detail

double HistogramData::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) <= rank) continue;
    if (b == 0) return 0.0;
    // Geometric interpolation across the bucket [2^(b-1), 2^b).
    const double lower = std::ldexp(1.0, static_cast<int>(b) - 1);
    const double frac = buckets[b] == 1
                            ? 0.5
                            : (rank - lo_rank) / static_cast<double>(buckets[b]);
    return lower * std::exp2(std::min(1.0, std::max(0.0, frac)));
  }
  return 0.0;
}

namespace {

/// Metric name without its {label} suffix, for # TYPE lines.
[[nodiscard]] std::string_view base_name(std::string_view name) {
  const std::size_t brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string_view last_type;
  for (const auto& [name, value] : counters) {
    const std::string_view base = base_name(name);
    if (base != last_type) {
      out += "# TYPE ";
      out += base;
      out += " counter\n";
      last_type = base;
    }
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const HistogramSnapshot& hist : histograms) {
    out += "# TYPE " + hist.name + " histogram\n";
    append_histogram_prometheus(out, hist.name, {}, hist.data);
  }
  return out;
}

void append_histogram_prometheus(
    std::string& out, std::string_view name, std::string_view labels,
    const HistogramData& data,
    const std::array<std::uint64_t, kHistogramBuckets>* exemplar_id,
    const std::array<std::uint64_t, kHistogramBuckets>* exemplar_nanos) {
  char buf[64];
  const std::string prefix = std::string(name) + "_bucket{" +
                             std::string(labels) +
                             (labels.empty() ? "le=\"" : ",le=\"");
  std::uint64_t cumulative = 0;
  std::size_t top = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b)
    if (data.buckets[b] != 0) top = b;
  for (std::size_t b = 0; b <= top; ++b) {
    cumulative += data.buckets[b];
    std::snprintf(buf, sizeof buf, "%.0f", std::ldexp(1.0, static_cast<int>(b)));
    out += prefix + buf + "\"} " + std::to_string(cumulative);
    if (exemplar_id != nullptr && (*exemplar_id)[b] != 0) {
      out += " # {flight_id=\"" + std::to_string((*exemplar_id)[b]) + "\"} " +
             std::to_string(exemplar_nanos != nullptr ? (*exemplar_nanos)[b]
                                                      : std::uint64_t{0});
    }
    out += '\n';
  }
  out += prefix + "+Inf\"} " + std::to_string(data.count) + '\n';
  const std::string tail_labels =
      labels.empty() ? std::string() : '{' + std::string(labels) + '}';
  out += std::string(name) + "_sum" + tail_labels + ' ' +
         std::to_string(data.sum) + '\n';
  out += std::string(name) + "_count" + tail_labels + ' ' +
         std::to_string(data.count) + '\n';
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  char buf[64];
  first = true;
  for (const HistogramSnapshot& hist : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(hist.name) +
           "\":{\"count\":" + std::to_string(hist.data.count) +
           ",\"sum\":" + std::to_string(hist.data.sum);
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.50},
          {"p90", 0.90},
          {"p99", 0.99}}) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.3f", label,
                    hist.data.quantile(q));
      out += buf;
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace vermem::obs
