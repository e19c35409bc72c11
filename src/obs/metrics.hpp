#pragma once
// Low-overhead metrics registry: named monotonic counters and
// log2-bucketed histograms, recorded into per-thread shards of relaxed
// atomics and aggregated only on scrape.
//
// Hot path: Counter::add / Histogram::observe is one relaxed fetch_add
// into the calling thread's shard (two for a histogram: bucket + sum) —
// no locks, no false sharing across threads, and a single relaxed load
// when observability is off. Registration (name -> slot) takes a mutex
// but happens once per metric per process; call sites hold the returned
// handle (typically in a function-local static).
//
// Counter names follow the Prometheus convention (vermem_*_total) and
// may carry a label set in braces — `vermem_fragments_total{fragment="x"}`
// — which the text exporter passes through verbatim. Histograms bucket
// by bit width: bucket i holds values v with bit_width(v) == i, i.e.
// [2^(i-1), 2^i). Quantiles are estimated by geometric interpolation
// inside the crossing bucket, so any quantile is exact to within a
// factor of 2 (and much closer in practice); this replaces the exact
// sorted-window percentiles ServiceStats used to hand-roll, trading
// bounded error for O(1) memory and wait-free recording.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace vermem::obs {

inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxHistograms = 64;
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

struct HistShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
};

/// One thread's slice of every registered metric. Owned by the registry
/// (so it survives thread exit and is visible to scrapes); written only
/// by its thread, read by anyone via the atomics.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistShard, kMaxHistograms> histograms{};
};

[[nodiscard]] Shard& local_shard();

/// Forwards to Registry::instance().crash_dump_counters(fd); kept in
/// detail so the crash handler (obs/flight.cpp) has one obvious entry.
void write_counters_crash(int fd) noexcept;

/// Log2 bucket index: 0 for value 0, otherwise bit_width clamped to the
/// last bucket (which therefore holds [2^62, inf)).
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
  std::size_t width = 0;
  while (value != 0) {
    value >>= 1;
    ++width;
  }
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

}  // namespace detail

/// Handle to a registered counter; copyable, trivially destructible, and
/// valid for the life of the process.
class Counter {
 public:
  Counter() = default;
  /// Not noexcept: the calling thread's shard is allocated lazily on its
  /// first recording.
  void add(std::uint64_t n = 1) const {
    if (!enabled()) return;
    detail::local_shard().counters[id_].fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Handle to a registered histogram.
class Histogram {
 public:
  Histogram() = default;
  /// Not noexcept: the calling thread's shard is allocated lazily on its
  /// first recording.
  void observe(std::uint64_t value) const {
    if (!enabled()) return;
    detail::HistShard& shard = detail::local_shard().histograms[id_];
    shard.buckets[detail::bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }
  /// Convenience for durations: clamps negatives to zero and rounds.
  void observe_nanos(double nanos) const {
    observe(nanos <= 0 ? 0 : static_cast<std::uint64_t>(nanos + 0.5));
  }

 private:
  friend class Registry;
  explicit Histogram(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Aggregated histogram contents. Also usable standalone (it is what
/// ServiceStats records its latency distribution into): record() is NOT
/// thread-safe — standalone users serialize externally, the registry
/// never calls it.
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void record(std::uint64_t value) noexcept {
    ++buckets[detail::bucket_of(value)];
    ++count;
    sum += value;
  }
  void merge(const HistogramData& other) noexcept {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Quantile estimate (q in [0,1]): geometric interpolation within the
  /// bucket where the cumulative count crosses rank q*(count-1).
  [[nodiscard]] double quantile(double q) const noexcept;
};

struct HistogramSnapshot {
  std::string name;
  HistogramData data;
};

/// Appends one Prometheus histogram (cumulative le buckets, then
/// _sum/_count) with `labels` on every series line
/// (`name_bucket{<labels>,le="..."}`; empty labels give
/// `name_bucket{le="..."}` and bare _sum/_count), optionally decorated
/// with per-bucket exemplars. The caller emits the `# TYPE` line once
/// per family. The one histogram writer: the registry's exposition, the
/// SLO exposition and the per-kind service latency export all use it.
void append_histogram_prometheus(
    std::string& out, std::string_view name, std::string_view labels,
    const HistogramData& data,
    const std::array<std::uint64_t, kHistogramBuckets>* exemplar_id = nullptr,
    const std::array<std::uint64_t, kHistogramBuckets>* exemplar_nanos =
        nullptr);

/// Point-in-time aggregate of every registered metric (counters summed
/// across shards, sorted by name).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Prometheus text exposition format (one # TYPE line per metric base
  /// name, cumulative le buckets + _sum/_count for histograms).
  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;
};

class Registry {
 public:
  static Registry& instance();

  /// Registers (or finds) a counter by name. Once the slot table is full
  /// every further name aliases the reserved overflow counter
  /// vermem_obs_overflow_total rather than failing.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every shard (names stay registered). Test/bench helper;
  /// concurrent recording during a reset may survive it.
  void reset();

  /// Async-signal-safe best-effort counter dump for the flight
  /// recorder's crash handler: comma-separated `"name":value` JSON
  /// members via write(2) only — no locks, no allocation. Names and
  /// shards live in fixed tables published with release stores, so
  /// the walk never touches reallocating storage.
  void crash_dump_counters(int fd) const noexcept;

 private:
  Registry();
  friend detail::Shard& detail::local_shard();
  detail::Shard& register_thread_shard();

  struct Impl;
  Impl* impl_;  // leaked singleton: usable during static destruction
};

/// Convenience wrappers over the singleton registry.
[[nodiscard]] inline Counter counter(std::string_view name) {
  return Registry::instance().counter(name);
}
[[nodiscard]] inline Histogram histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
[[nodiscard]] inline MetricsSnapshot snapshot_metrics() {
  return Registry::instance().snapshot();
}

}  // namespace vermem::obs
