#pragma once
// Whole-trace coherence report types.
//
// Coherence is a per-location property: a trace is coherent iff every
// address's projection is. The dispatcher that decides each address
// (analysis::verify_coherence_routed, the Figure 5.3 cascade) lives in
// the analysis layer; this header holds the vocabulary it and every
// other whole-trace path (streaming ingest, VSCC's coherence stage)
// report in, and the one fold that aggregates per-address verdicts.

#include <unordered_map>
#include <vector>

#include "vmc/result.hpp"

namespace vermem::vmc {

struct AddressReport {
  Addr addr = 0;
  CheckResult result;
};

struct CoherenceReport {
  static constexpr std::size_t kNoViolation = static_cast<std::size_t>(-1);

  /// kCoherent iff every address verified; kIncoherent if any address has
  /// no coherent schedule; kUnknown if undecided addresses remain (budget)
  /// and none is definitely incoherent.
  Verdict verdict = Verdict::kCoherent;
  std::vector<AddressReport> addresses;
  /// Index into `addresses` of the lowest-address incoherent report,
  /// recorded at aggregation time (kNoViolation when every address
  /// verified). Reports are address-sorted, so this is deterministic even
  /// when the stream's shards finish in any order.
  std::size_t first_violation_index = kNoViolation;
  /// Whole-trace solver effort: per-address SearchStats merged (counters
  /// summed, peaks maxed) at aggregation time, for the router's sweep and
  /// the stream's shards alike — per-shard stats are never dropped.
  SearchStats effort;
  /// Peak provenance: which address report owned each maxed peak in
  /// `effort` (kNoViolation when no address did any search work). Lets
  /// operators find the one hot address behind a fat aggregate instead
  /// of guessing.
  std::size_t peak_frontier_index = kNoViolation;   ///< max max_frontier
  std::size_t peak_visited_index = kNoViolation;    ///< most states_visited
  std::size_t peak_arena_index = kNoViolation;      ///< max arena_high_water

  [[nodiscard]] bool coherent() const noexcept {
    return verdict == Verdict::kCoherent;
  }
  /// First (lowest) address that failed, O(1) (meaningful when verdict ==
  /// kIncoherent).
  [[nodiscard]] const AddressReport* first_violation() const noexcept {
    return first_violation_index == kNoViolation
               ? nullptr
               : &addresses[first_violation_index];
  }
  /// First (lowest) undecided address, or null: its reason (a spent
  /// budget, the deadline, a cancellation) speaks for a kUnknown verdict.
  [[nodiscard]] const AddressReport* first_undecided() const noexcept {
    for (const AddressReport& address : addresses)
      if (address.result.verdict == Verdict::kUnknown) return &address;
    return nullptr;
  }
};

/// Folds per-address reports into a CoherenceReport: first incoherent
/// address decides the verdict (otherwise any undecided address makes it
/// kUnknown), per-address SearchStats merge into `effort`, and the peak
/// provenance indices record which address owned each maxed peak. Every
/// whole-trace path aggregates through it, so they all agree.
[[nodiscard]] CoherenceReport aggregate_reports(std::vector<AddressReport> reports);

/// Per-address write-orders in *original execution* coordinates, e.g. as
/// recorded by the simulator's bus.
using WriteOrderMap = std::unordered_map<Addr, std::vector<OpRef>>;

}  // namespace vermem::vmc
