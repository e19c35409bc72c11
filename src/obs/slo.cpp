#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"

namespace vermem::obs {

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kCoherence:
      return "coherence";
    case RequestKind::kVscc:
      return "vscc";
    case RequestKind::kConsistency:
      return "consistency";
    case RequestKind::kStream:
      return "stream";
  }
  return "unknown";
}

SloTracker::SloTracker(SloOptions options) : options_(options) {
  if (options_.window_seconds == 0) options_.window_seconds = 1;
  if (options_.num_windows == 0) options_.num_windows = 1;
  options_.objective = std::min(1.0, std::max(0.0, options_.objective));
  windows_.resize(options_.num_windows);
}

std::int64_t SloTracker::window_index_now() const noexcept {
  // Windows ride the shared trace epoch so they correlate with every
  // other obs timestamp; absolute wall alignment is irrelevant here.
  return trace_now_ns() /
         (static_cast<std::int64_t>(options_.window_seconds) * 1'000'000'000);
}

void SloTracker::record(RequestKind kind, std::uint64_t latency_nanos,
                        bool error, std::uint64_t flight_id) {
  const std::int64_t epoch = window_index_now();
  const auto k = static_cast<std::size_t>(kind);
  std::lock_guard<std::mutex> lock(mutex_);
  Window& window = windows_[static_cast<std::size_t>(epoch) % windows_.size()];
  if (window.epoch != epoch) {
    window = Window{};
    window.epoch = epoch;
  }
  WindowCell& cell = window.cells[k];
  ++cell.total;
  if (error) ++cell.errors;
  if (latency_nanos > options_.latency_slo_nanos) ++cell.breaches;
  cell.latency.record(latency_nanos);
  if (flight_id != 0) {
    const std::size_t bucket = detail::bucket_of(latency_nanos);
    exemplar_id_[k][bucket] = flight_id;
    exemplar_nanos_[k][bucket] = latency_nanos;
  }
}

SloSnapshot SloTracker::snapshot() const {
  SloSnapshot out;
  out.options = options_;
  const std::int64_t now_epoch = window_index_now();
  const auto horizon = static_cast<std::int64_t>(windows_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Window& window : windows_) {
    if (window.epoch < 0 || window.epoch <= now_epoch - horizon) continue;
    for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
      const WindowCell& cell = window.cells[k];
      KindSlo& kind = out.kinds[k];
      kind.total += cell.total;
      kind.errors += cell.errors;
      kind.breaches += cell.breaches;
      kind.latency.merge(cell.latency);
    }
  }
  for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
    KindSlo& kind = out.kinds[k];
    kind.p50_nanos = kind.latency.quantile(0.50);
    kind.p99_nanos = kind.latency.quantile(0.99);
    kind.exemplar_id = exemplar_id_[k];
    kind.exemplar_nanos = exemplar_nanos_[k];
    const double budget =
        static_cast<double>(kind.total) * (1.0 - options_.objective);
    const double burned = static_cast<double>(kind.errors + kind.breaches);
    if (kind.total == 0) {
      kind.error_budget_remaining = 1.0;
    } else if (budget <= 0.0) {
      kind.error_budget_remaining = burned > 0.0 ? -1.0 : 1.0;
    } else {
      kind.error_budget_remaining =
          std::max(-1.0, 1.0 - burned / budget);
    }
  }
  return out;
}

void SloTracker::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Window& window : windows_) window = Window{};
  for (auto& per_kind : exemplar_id_) per_kind.fill(0);
  for (auto& per_kind : exemplar_nanos_) per_kind.fill(0);
}

std::string SloSnapshot::to_prometheus() const {
  std::string out;
  char buf[64];
  const auto gauge = [&](const char* name, const char* help_type,
                         const auto& value_of) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += help_type;
    out += '\n';
    for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
      out += name;
      out += "{kind=\"";
      out += to_string(static_cast<RequestKind>(k));
      out += "\"} ";
      out += value_of(kinds[k]);
      out += '\n';
    }
  };
  gauge("vermem_slo_window_requests", "gauge", [](const KindSlo& kind) {
    return std::to_string(kind.total);
  });
  gauge("vermem_slo_window_errors", "gauge", [](const KindSlo& kind) {
    return std::to_string(kind.errors);
  });
  gauge("vermem_slo_window_latency_breaches", "gauge",
        [](const KindSlo& kind) { return std::to_string(kind.breaches); });
  gauge("vermem_slo_error_budget_remaining", "gauge",
        [&buf](const KindSlo& kind) {
          std::snprintf(buf, sizeof buf, "%.6f", kind.error_budget_remaining);
          return std::string(buf);
        });
  out += "# TYPE vermem_slo_latency_nanos histogram\n";
  for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
    const KindSlo& kind = kinds[k];
    if (kind.total == 0) continue;
    const std::string labels =
        std::string("kind=\"") + to_string(static_cast<RequestKind>(k)) + '"';
    append_histogram_prometheus(out, "vermem_slo_latency_nanos", labels,
                                kind.latency, &kind.exemplar_id,
                                &kind.exemplar_nanos);
  }
  return out;
}

}  // namespace vermem::obs
