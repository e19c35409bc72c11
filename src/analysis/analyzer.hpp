#pragma once
// Whole-trace static analysis: fragment classification plus the lint
// rule set over every per-address projection, reusing one AddressIndex
// pass (no rescans). This is the entry point vermemd --analyze, the
// vermemlint CLI, and the service's analyze flag all share. Analysis is
// static — it never runs a search or SAT solve. Classification and the
// value-shape lints are O(n); addresses bound for the exact search (and
// addresses carrying a write-order log) additionally run the polynomial
// coherence-order saturation pass, whose constraint graph powers the
// graph-derived lints W005/W006.

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "analysis/fragment.hpp"
#include "analysis/lint.hpp"
#include "analysis/router.hpp"
#include "vmc/checker.hpp"

namespace vermem::analysis {

/// Classification + diagnostics for one address.
struct AddressAnalysis {
  FragmentProfile profile;
  std::vector<Diagnostic> diagnostics;  ///< rule-ID order, I001 last
  /// Log-free saturation result; engaged iff the pass ran (exact-bound
  /// fragments and logged addresses with at least two writes).
  std::optional<saturate::Result> saturation;
};

struct AnalysisReport {
  /// Per-address results, address-sorted (same order as AddressIndex).
  std::vector<AddressAnalysis> addresses;
  std::array<std::uint64_t, kNumFragments> fragment_counts{};
  std::size_t warning_count = 0;
  std::size_t info_count = 0;

  [[nodiscard]] bool has_warnings() const noexcept {
    return warning_count > 0;
  }
};

/// Analyzes every address of an indexed execution. `write_orders`, when
/// non-null, enables the write-order fragment and rule W004 for the
/// addresses it covers. `routed`, when not empty, is a routing pass's
/// RoutedReport::facts over the same index and logs (parallel to its
/// addresses): an address routing decided takes its profile from there,
/// and its saturation result (moved out) wherever routing ran the pass,
/// instead of computing them again.
[[nodiscard]] AnalysisReport analyze(
    const AddressIndex& index, const vmc::WriteOrderMap* write_orders = nullptr,
    std::span<std::optional<RouteFacts>> routed = {});

/// Convenience overload building the index internally.
[[nodiscard]] AnalysisReport analyze(
    const Execution& exec, const vmc::WriteOrderMap* write_orders = nullptr);

}  // namespace vermem::analysis
