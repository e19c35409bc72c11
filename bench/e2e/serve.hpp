#pragma once
// The serving path as a client drives it: request bytes -> text parse ->
// VerificationService::submit, or VMTB bytes -> verify_stream -> verdict
// JSON line. One driver thread runs a closed loop over a workload's
// request schedule; the untraced run reports the end-to-end metrics from
// it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "service/service.hpp"

namespace vermem::bench_e2e {

/// Service configuration every workload runs with.
[[nodiscard]] service::ServiceOptions service_options();

/// Builds a request from text bytes exactly as vermemd does: "wo" lines
/// form the write-order log, the rest the execution. Returns the parse
/// error, or an empty string on success.
[[nodiscard]] std::string parse_text_request(const std::string& bytes,
                                             service::VerificationRequest& out);

/// Per-request detail of a closed loop (kept when LoopPlan::keep_detail).
struct Served {
  double latency_ns = 0;    ///< bytes handled -> verdict line serialized
  double parse_ns = 0;      ///< text parse on the driver thread
  double serialize_ns = 0;  ///< verdict line
  double queue_us = 0;      ///< response fields
  double run_us = 0;
  bool cache_hit = false;
};

struct LoopTally {
  /// Per completed request. A deque grows in fixed blocks, so the bench's
  /// own records add to peak RSS in proportion to the requests served,
  /// without the reallocation spikes of a doubling vector.
  std::deque<float> latency_ms;
  std::vector<Served> detail;
  std::uint64_t attempted = 0;
  /// Requests without a definite verdict: unknown, timed out,
  /// cancelled, or rejected by the parser.
  std::uint64_t failed = 0;
  /// Definite verdicts that contradict the expected answer.
  std::uint64_t wrong = 0;
  std::uint64_t ops = 0;  ///< operations in completed requests
  std::uint64_t duplicates = 0;
  std::uint64_t duplicate_hits = 0;
  std::uint64_t cache_hits = 0;
  double wall_s = 0;
  /// Driver-thread time in parse, serialize, and verdict checks.
  double busy_s = 0;
};

/// Stops issuing at whichever limit comes first (0 = no limit), then
/// collects every outstanding response.
struct LoopPlan {
  std::uint64_t max_requests = 0;
  double max_seconds = 0;
  bool keep_detail = false;
};

/// Closed loop: keeps spec.window requests outstanding and collects
/// responses oldest first, emitting verdict lines in request order as
/// vermemd does.
[[nodiscard]] LoopTally serve(service::VerificationService& svc,
                              const WorkloadSpec& spec,
                              const std::vector<Request>& corpus,
                              RequestSchedule& schedule, const LoopPlan& plan);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload run, untraced (end-to-end metrics) or traced (per-layer).
struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_verdicts = 0;
  std::uint64_t certify_rejected = 0;
  /// False when a benchmark validity check failed (driver saturated,
  /// trace coverage too low); such a run measures the bench, not vermem.
  bool valid = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
template <typename Container>
[[nodiscard]] double percentile(Container values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return static_cast<double>(values[index]);
}

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Above this share of wall time in its own work, the driver thread is
/// the bottleneck and the run is invalid.
inline constexpr double kMaxDriverBusyShare = 0.8;

[[nodiscard]] RunResult run_untraced(const WorkloadSpec& spec,
                                     std::uint64_t seed, double seconds);

}  // namespace vermem::bench_e2e
