#pragma once
// Shape-directed routing: classify each per-address projection into its
// Figure 5.3 fragment and dispatch it to the cheapest dedicated decider.
//
// This is the library's one coherence dispatcher: every whole-trace
// entry point (the service, the streaming ingester, VSCC's coherence
// stage, the model checker's coherence-only mode) goes through it. The
// router classifies once from the ProjectedView (a single arena scan,
// reusing AddressIndex stats) and jumps straight to the fragment's
// polynomial decider; only kBoundedProcesses/kGeneral instances — and
// the rare branching RMW chain — reach the saturation tier and then the
// exact frontier search. Every polynomial decider is sound, and any
// kUnknown from a structural decider falls back through saturation to
// exact, so routing never loses completeness; the differential suite in
// tests/analysis_test.cpp checks it against unpruned vmc::check_exact.

#include <array>
#include <cstdint>
#include <optional>

#include "analysis/fragment.hpp"
#include "analysis/saturate/core.hpp"
#include "search/limits.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"

namespace vermem::analysis {

/// Which decision procedure produced the verdict.
enum class Decider : std::uint8_t {
  kTrivial,     ///< empty projection, vacuous verdict
  kOneOp,       ///< one op per process: matching / Eulerian trail
  kWriteOnce,   ///< each value written once: read map
  kWriteOrder,  ///< poly/write_order (Section 5.2)
  kRmwChain,    ///< poly/rmw_chain forced walk
  kSaturate,    ///< coherence-order saturation (analysis/saturate)
  kExact,       ///< exact frontier search (incl. fallbacks)
};

inline constexpr std::size_t kNumDeciders =
    static_cast<std::size_t>(Decider::kExact) + 1;

[[nodiscard]] constexpr const char* to_string(Decider d) noexcept {
  switch (d) {
    case Decider::kTrivial: return "trivial";
    case Decider::kOneOp: return "one-op";
    case Decider::kWriteOnce: return "write-once";
    case Decider::kWriteOrder: return "write-order";
    case Decider::kRmwChain: return "rmw-chain";
    case Decider::kSaturate: return "saturate";
    case Decider::kExact: return "exact";
  }
  return "?";
}

/// Engines the portfolio races on the exact tier. Every engine decides
/// the same instance independently; the first *definite* verdict
/// (coherent/incoherent) wins and cancels the rest cooperatively.
enum class Engine : std::uint8_t {
  kExactSearch,  ///< memoized frontier search (vmc::check_exact)
  kCdcl,         ///< CNF encoding + CDCL (encode::check_via_sat)
  kBoundedK,     ///< level-synchronous BFS (vmc::check_bounded_k)
};

inline constexpr std::size_t kNumEngines =
    static_cast<std::size_t>(Engine::kBoundedK) + 1;

[[nodiscard]] constexpr const char* to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kExactSearch: return "exact-search";
    case Engine::kCdcl: return "cdcl";
    case Engine::kBoundedK: return "bounded-k";
  }
  return "?";
}

/// Portfolio configuration for the exact tier, which then runs in two
/// stages. Stage 1 runs the frontier search alone on the calling thread
/// under a state budget of kSoloStates (or the caller's max_states, when
/// smaller); its definite verdict is final and bit-identical to the
/// unraced route's, and no thread is created. Only when that budget runs
/// out does stage 2 race the frontier search, CDCL and bounded-k, one
/// thread each beyond the caller's, which pays off only where no single
/// engine dominates. Disabled by default. Every arm runs under the
/// caller's search::Limits, the race's token standing in for its cancel:
/// the two searches under every cap, CDCL under the deadline only (its
/// budget is sat::SolverOptions::max_conflicts, left at its default).
/// Every arm polls the
/// token and the deadline in every phase (CDCL: encoding, clause
/// loading, search), so once one arm decides, the losers stop within
/// one poll period.
/// Stage 1's state budget (defined, with the reason for its value, in
/// router.cpp).
extern const std::uint64_t kSoloStates;

struct PortfolioOptions {
  bool enabled = false;
  /// When set, the exact tier runs ONLY this engine, with no stage 1 —
  /// the vermemd `--solver=cdcl` escape hatch. The winner is still
  /// recorded (trivially, as the forced engine).
  std::optional<Engine> only;
};

/// Verdict plus routing provenance for one address.
struct RouteOutcome {
  vmc::CheckResult result;
  /// The address's classification; profile.fragment is what it routed on.
  FragmentProfile profile;
  Decider decider = Decider::kExact;
  /// True when a polynomial decider bailed (kUnknown) and the exact
  /// search produced the verdict instead.
  bool fell_back = false;
  /// The saturation tier ran the pass (kBoundedProcesses/kGeneral routes
  /// and structural fallbacks); `saturation` holds its result.
  bool saturation_ran = false;
  /// The address reached the tier but was inert (saturate::inert), so
  /// the pass was skipped and the exact search ran without a pruner.
  bool saturation_skipped = false;
  std::optional<saturate::Result> saturation;
  /// Portfolio provenance. `result.stats` carries ONLY the winning
  /// engine's effort; the losers' effort, and stage 1's when it
  /// escalated, lands in `wasted_effort` so aggregate effort accounting
  /// stays honest (a race that burned three engines is not reported as
  /// one engine's work).
  bool portfolio_ran = false;
  /// Stage 1 spent its state budget and the engines raced.
  bool portfolio_escalated = false;
  Engine portfolio_winner = Engine::kExactSearch;
  vmc::SearchStats wasted_effort;  ///< losing runs' merged effort
};

/// Classifies and decides one projection. `write_order`, when non-null,
/// is this address's serialization log in original-execution
/// coordinates; the witness in the outcome is likewise translated back
/// to original coordinates. `portfolio`, when enabled, runs the exact
/// tier as the staged portfolio (see PortfolioOptions).
[[nodiscard]] RouteOutcome check_routed(
    const ProjectedView& view, const std::vector<OpRef>* write_order,
    const search::Limits& limits = {}, const PortfolioOptions& portfolio = {});

/// Routing provenance summed over addresses. The one rule that counts
/// routing: RoutedReport, stream::StreamResult, vsc::VsccReport,
/// service::ServiceStats, flight records and the metrics registry all
/// read it, so a counter added here reaches every consumer at once.
struct RouteTally {
  std::array<std::uint64_t, kNumFragments> fragment_counts{};
  std::array<std::uint64_t, kNumDeciders> decider_counts{};
  std::uint64_t poly_routed = 0;   ///< addresses decided polynomially
  std::uint64_t exact_routed = 0;  ///< addresses that reached exact search
  std::uint64_t fallbacks = 0;     ///< structural deciders that bailed
  // Saturation tier tallies (subset of the addresses above); the four
  // outcome counts sum to saturate_ran.
  std::uint64_t saturate_ran = 0;      ///< addresses the tier analyzed
  std::uint64_t saturate_decided = 0;  ///< decided by it (no search needed)
  std::uint64_t saturate_cycles = 0;   ///< cycle refutations
  std::uint64_t saturate_forced = 0;   ///< forced-total orders found
  std::uint64_t saturate_partial = 0;  ///< partial orders handed on
  std::uint64_t saturate_contradictions = 0;  ///< contradiction refutations
  std::uint64_t saturate_edges = 0;    ///< must-edges derived by the runs
  /// Addresses that reached the tier inert and skipped it (not in
  /// saturate_ran).
  std::uint64_t saturate_skipped = 0;
  // Portfolio tallies (meaningful when a PortfolioOptions was enabled).
  std::uint64_t portfolio_races = 0;   ///< addresses that reached the tier
  std::uint64_t portfolio_escalations = 0;  ///< of those, raced in stage 2
  std::array<std::uint64_t, kNumEngines> engine_wins{};
  /// Losing runs' merged effort across all races. Deliberately kept
  /// out of the winner-only effort totals (CoherenceReport::effort).
  vmc::SearchStats wasted_effort;

  /// Counts one decided address.
  void add(const RouteOutcome& outcome);
  void merge(const RouteTally& other);
  /// Adds this tally to the registry's routing series (see
  /// docs/OBSERVABILITY.md), skipping zero fields; check_routed
  /// publishes every outcome through it.
  void publish() const;

  friend bool operator==(const RouteTally&, const RouteTally&) = default;
};

/// What routing computed for one address besides its verdict.
/// analysis::analyze takes these instead of classifying the address, and
/// saturating it, a second time.
struct RouteFacts {
  FragmentProfile profile;
  /// The log-free saturation result, when the tier ran the pass.
  std::optional<saturate::Result> saturation;
};

/// Whole-trace coherence with routing provenance: per-address verdicts
/// in sorted address order, aggregated by vmc::aggregate_reports, plus
/// per-address fragments/deciders and the summed RouteTally.
struct RoutedReport {
  vmc::CoherenceReport report;
  /// Parallel to report.addresses.
  std::vector<Fragment> fragments;
  std::vector<Decider> deciders;
  /// Parallel to report.addresses; nullopt for a skipped address.
  std::vector<std::optional<RouteFacts>> facts;
  /// Decided addresses only; skipped ones carry no routing information.
  RouteTally routing;
};

/// Verifies coherence of a whole trace, one address at a time through
/// check_routed. `write_orders` supplies per-address serialization logs
/// (original coordinates); addresses without one are classified as usual.
///
/// The sweep runs on the calling thread in address order and never stops
/// early on an incoherent address, so every address gets a verdict (the
/// service's per-address certificates rely on it). Once the caller's
/// deadline or cancel token fires, the remaining addresses report
/// kSkipped. Independent traces run in parallel as independent requests
/// on the service's pool.
[[nodiscard]] RoutedReport verify_coherence_routed(
    const AddressIndex& index,
    const vmc::WriteOrderMap* write_orders = nullptr,
    const search::Limits& limits = {}, const PortfolioOptions& portfolio = {});

}  // namespace vermem::analysis
