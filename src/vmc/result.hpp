#pragma once
// Common result type for coherence / consistency checkers.

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "certify/evidence.hpp"
#include "trace/schedule.hpp"

namespace vermem::vmc {

enum class Verdict : std::uint8_t {
  kCoherent,    ///< a valid schedule exists (witness included)
  kIncoherent,  ///< no valid schedule exists
  kUnknown,     ///< gave up (budget exceeded / precondition unmet)
};

[[nodiscard]] constexpr const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kCoherent: return "coherent";
    case Verdict::kIncoherent: return "incoherent";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

struct SearchStats {
  std::uint64_t states_visited = 0;   ///< distinct memoized search states
  std::uint64_t transitions = 0;      ///< operations tried during search
  std::uint64_t max_frontier = 0;     ///< peak stack depth / queue size
  std::uint64_t prunes = 0;           ///< branches cut by a memo-table hit
  std::uint64_t oracle_prunes = 0;    ///< branches cut by a must-precede oracle
  /// Arena accounting for the search's key/node storage (all zero when a
  /// polynomial route decided the instance without a frontier search).
  std::uint64_t arena_reserved = 0;     ///< bytes reserved from the system
  std::uint64_t arena_high_water = 0;   ///< peak bytes in use by one search
  std::uint64_t arena_allocations = 0;  ///< bump allocations served

  /// Folds another search's effort in (counters add, peaks max) — used
  /// to aggregate per-address searches into one per-trace effort record.
  /// Which address owned the maxed peaks is recorded at aggregation time
  /// (CoherenceReport::peak_*_index); a bare merge keeps only the values.
  void merge(const SearchStats& other) noexcept {
    states_visited += other.states_visited;
    transitions += other.transitions;
    prunes += other.prunes;
    oracle_prunes += other.oracle_prunes;
    if (other.max_frontier > max_frontier) max_frontier = other.max_frontier;
    arena_reserved += other.arena_reserved;
    arena_allocations += other.arena_allocations;
    if (other.arena_high_water > arena_high_water)
      arena_high_water = other.arena_high_water;
  }

  friend bool operator==(const SearchStats&, const SearchStats&) = default;
};

/// A verdict plus its evidence. kCoherent carries a witness schedule;
/// kIncoherent carries a typed certify::Incoherence refutation;
/// kUnknown carries a typed certify::Unknown reason. There is no
/// free-text note: `reason()` renders the evidence on demand.
struct CheckResult {
  Verdict verdict = Verdict::kUnknown;
  Schedule witness;             ///< valid schedule when verdict == kCoherent
  certify::Evidence evidence;   ///< refutation / give-up reason otherwise
  SearchStats stats;

  [[nodiscard]] bool coherent() const noexcept {
    return verdict == Verdict::kCoherent;
  }

  /// Human-readable rendering of the evidence (empty for kCoherent).
  [[nodiscard]] std::string reason() const { return certify::to_string(evidence); }

  /// The structured refutation, or nullptr when not kIncoherent.
  [[nodiscard]] const certify::Incoherence* incoherence() const noexcept {
    return std::get_if<certify::Incoherence>(&evidence);
  }

  /// The structured give-up reason, or nullptr when not kUnknown.
  [[nodiscard]] const certify::Unknown* unknown_reason() const noexcept {
    return std::get_if<certify::Unknown>(&evidence);
  }

  static CheckResult yes(Schedule schedule, SearchStats stats = {}) {
    return {Verdict::kCoherent, std::move(schedule), {}, stats};
  }
  static CheckResult no(certify::Incoherence why, SearchStats stats = {}) {
    return {Verdict::kIncoherent, {}, std::move(why), stats};
  }
  static CheckResult unknown(certify::Unknown why, SearchStats stats = {}) {
    return {Verdict::kUnknown, {}, std::move(why), stats};
  }
  static CheckResult unknown(certify::UnknownReason reason, std::string detail = {},
                             SearchStats stats = {}) {
    return unknown(certify::Unknown{reason, std::move(detail)}, stats);
  }
};

}  // namespace vermem::vmc
