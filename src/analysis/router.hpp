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
#include "sat/solver.hpp"
#include "vmc/bounded.hpp"
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
/// engine dominates. Disabled by default. Every arm polls the race's
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
  /// CDCL budget/flags; deadline and cancel are overridden per race.
  sat::SolverOptions solver;
  /// Bounded-k arm ceiling; its deadline/cancel are overridden per race.
  vmc::BoundedKOptions bounded;
};

/// Verdict plus routing provenance for one address.
struct RouteOutcome {
  vmc::CheckResult result;
  Fragment fragment = Fragment::kGeneral;
  Decider decider = Decider::kExact;
  /// True when a polynomial decider bailed (kUnknown) and the exact
  /// search produced the verdict instead.
  bool fell_back = false;
  /// Saturation provenance, populated when the saturation tier ran
  /// (kBoundedProcesses/kGeneral routes and structural fallbacks).
  bool saturation_ran = false;
  saturate::Status saturation_status = saturate::Status::kPartial;
  std::uint64_t saturation_edges = 0;         ///< must-edges derived
  std::uint64_t saturation_branch_points = 0; ///< unordered Kahn steps
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
    const vmc::ExactOptions& exact_options = {},
    const PortfolioOptions& portfolio = {});

/// Routing provenance summed over addresses. The one fold shared by
/// RoutedReport, stream::StreamResult, and service::ServiceStats, so a
/// counter added here reaches every served path at once.
struct RouteTally {
  std::array<std::uint64_t, kNumFragments> fragment_counts{};
  std::array<std::uint64_t, kNumDeciders> decider_counts{};
  std::uint64_t poly_routed = 0;   ///< addresses decided polynomially
  std::uint64_t exact_routed = 0;  ///< addresses that reached exact search
  // Saturation tier tallies (subset of the addresses above).
  std::uint64_t saturate_ran = 0;      ///< addresses the tier analyzed
  std::uint64_t saturate_decided = 0;  ///< decided by it (no search needed)
  std::uint64_t saturate_cycles = 0;   ///< cycle refutations
  std::uint64_t saturate_forced = 0;   ///< forced-total orders found
  std::uint64_t saturate_edges = 0;    ///< must-edges exported to exact/SAT
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
};

/// Whole-trace coherence with routing provenance: per-address verdicts
/// in sorted address order, aggregated by vmc::aggregate_reports, plus
/// per-address fragments/deciders and the summed RouteTally.
struct RoutedReport {
  vmc::CoherenceReport report;
  /// Parallel to report.addresses.
  std::vector<Fragment> fragments;
  std::vector<Decider> deciders;
  /// Decided addresses only; skipped ones carry no routing information.
  RouteTally routing;
};

/// Verifies coherence of a whole trace, one address at a time through
/// check_routed. `write_orders` supplies per-address serialization logs
/// (original coordinates); addresses without one are classified as usual.
///
/// `workers` fans the addresses out over that many threads (0 = hardware
/// concurrency). With more than one worker the largest address is
/// dispatched first, so one fat address cannot become the tail, and the
/// sweep stops scheduling once any address proves incoherent; addresses
/// that never started report kSkipped, which never changes the aggregate
/// verdict. Completed verdicts are identical to the sequential sweep.
/// `workers == 1` is that sequential sweep: no early cancel, so every
/// address gets a verdict (the service's per-address certificates rely
/// on it). Either way, once the caller's deadline or cancel token fires
/// the remaining addresses report kSkipped.
[[nodiscard]] RoutedReport verify_coherence_routed(
    const AddressIndex& index,
    const vmc::WriteOrderMap* write_orders = nullptr,
    const vmc::ExactOptions& exact_options = {},
    const PortfolioOptions& portfolio = {}, std::size_t workers = 1);

}  // namespace vermem::analysis
