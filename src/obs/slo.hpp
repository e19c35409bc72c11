#pragma once
// Rolling-window SLO accounting per request kind, with histogram
// exemplars that link latency buckets to captured flight records.
//
// The tracker keeps num_windows fixed-duration windows per request
// kind (a ring keyed by absolute window index, stale slots cleared
// lazily), so a snapshot reflects roughly the last
// window_seconds * num_windows of traffic instead of process lifetime —
// that is what an error budget means operationally. Each recorded
// request contributes: total, error (verdict unknown), latency-SLO
// breach, and a log2-bucketed latency sample. When the request was
// captured by the flight recorder, its record id is kept as the
// *exemplar* for the latency bucket it landed in — the OpenMetrics
// `# {flight_id="N"}` suffix on the exported histogram — so "p99
// spiked" resolves to a concrete replayable request.
//
// Error budget: with objective o over the live window set, the budget
// is (1-o) * total requests; errors and breaches both burn it.
// error_budget_remaining = 1 - burned/budget (1.0 when the window is
// empty; negative = budget blown, clamped at -1).
//
// record() takes one short mutex-guarded critical section; it is meant
// to be called once per *request* (the service response choke point),
// not per operation, so contention is bounded by request rate.

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace vermem::obs {

enum class RequestKind : std::uint8_t {
  kCoherence = 0,
  kVscc,
  kConsistency,
  kStream,
};
inline constexpr std::size_t kNumRequestKinds = 4;

[[nodiscard]] const char* to_string(RequestKind kind) noexcept;

struct SloOptions {
  std::uint32_t window_seconds = 60;
  std::uint32_t num_windows = 15;      ///< live horizon = 15 min default
  double objective = 0.999;            ///< success-rate objective
  std::uint64_t latency_slo_nanos = 100'000'000;  ///< 100 ms per request
};

/// One kind's aggregated rolling-window state in a snapshot.
struct KindSlo {
  std::uint64_t total = 0;
  std::uint64_t errors = 0;    ///< verdict unknown
  std::uint64_t breaches = 0;  ///< latency over latency_slo_nanos
  double p50_nanos = 0.0;
  double p99_nanos = 0.0;
  double error_budget_remaining = 1.0;
  HistogramData latency;
  /// Latest flight-record id seen per latency bucket (0 = none) and
  /// the latency value that carried it.
  std::array<std::uint64_t, kHistogramBuckets> exemplar_id{};
  std::array<std::uint64_t, kHistogramBuckets> exemplar_nanos{};
};

struct SloSnapshot {
  std::array<KindSlo, kNumRequestKinds> kinds{};
  SloOptions options{};

  /// OpenMetrics-compatible text: vermem_slo_* gauges per kind plus a
  /// vermem_slo_latency_nanos histogram per kind whose bucket lines
  /// carry `# {flight_id="N"} latency` exemplars.
  [[nodiscard]] std::string to_prometheus() const;
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions options = {});

  /// Accounts one finished request. `flight_id` is the retained flight
  /// record id (0 = not captured); it becomes the exemplar for the
  /// latency bucket this request lands in.
  void record(RequestKind kind, std::uint64_t latency_nanos, bool error,
              std::uint64_t flight_id);

  [[nodiscard]] SloSnapshot snapshot() const;
  void reset();

 private:
  struct WindowCell {
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    std::uint64_t breaches = 0;
    HistogramData latency;
  };
  struct Window {
    std::int64_t epoch = -1;  ///< absolute window index, -1 = empty
    std::array<WindowCell, kNumRequestKinds> cells{};
  };

  [[nodiscard]] std::int64_t window_index_now() const noexcept;

  SloOptions options_;
  mutable std::mutex mutex_;
  std::vector<Window> windows_;  // size num_windows, keyed epoch % size
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumRequestKinds>
      exemplar_id_{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumRequestKinds>
      exemplar_nanos_{};
};

}  // namespace vermem::obs
