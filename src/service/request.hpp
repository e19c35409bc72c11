#pragma once
// Request/response vocabulary of the verification service.
//
// A VerificationRequest is one trace plus policy: which property to
// decide (per-address coherence, VSCC, or an operational consistency
// model), optional Section 5.2 write-order side information, an effort
// budget for the exponential search stages, and an optional relative
// deadline. A VerificationResponse is the verdict plus structured
// failure information (timed out / cancelled / budget), provenance
// (cache hit, fingerprint), and timing, so a front-end can emit one
// self-contained record per trace.

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/router.hpp"
#include "certify/certificate.hpp"
#include "models/model.hpp"
#include "trace/execution.hpp"

namespace vermem::service {

enum class CheckMode : std::uint8_t {
  /// Per-address memory coherence (the coherence router; polynomial Section
  /// 5.2 path when write orders accompany the trace).
  kCoherence,
  /// Sequential consistency via the VSCC pipeline: per-address coherence,
  /// witness merge, exact-SC fallback.
  kVscc,
  /// Admissibility under an operational consistency model (request.model:
  /// SC, TSO, PSO, or coherence-only).
  kConsistency,
};

[[nodiscard]] constexpr const char* to_string(CheckMode mode) noexcept {
  switch (mode) {
    case CheckMode::kCoherence: return "coherence";
    case CheckMode::kVscc: return "vscc";
    case CheckMode::kConsistency: return "consistency";
  }
  return "?";
}

/// Caps on the exponential search stages; 0 = unlimited. With the
/// deadline and the request's cancel token they form the request's one
/// search::Limits, which every mode (coherence, vscc, and each model of
/// kConsistency) and every exact engine honours, both caps included.
struct EffortBudget {
  std::uint64_t max_states = 0;
  std::uint64_t max_transitions = 0;
};

/// How the exact tier decides instances that survive the polynomial
/// routes. Verdicts are identical across choices by construction (the
/// differential suites enforce it); the choice trades latency profiles.
enum class SolverChoice : std::uint8_t {
  /// Routed cascade with the memoized frontier search on the exact tier
  /// (the default, single-engine path).
  kAuto,
  /// Race exact search / CDCL / bounded-k on every exact-tier instance;
  /// first definite verdict wins, losers are cancelled cooperatively.
  kPortfolio,
  /// Force the CDCL arm alone on the exact tier.
  kCdcl,
};

[[nodiscard]] constexpr const char* to_string(SolverChoice choice) noexcept {
  switch (choice) {
    case SolverChoice::kAuto: return "auto";
    case SolverChoice::kPortfolio: return "portfolio";
    case SolverChoice::kCdcl: return "cdcl";
  }
  return "?";
}

struct VerificationRequest {
  Execution execution;
  /// Per-address write serialization orders in original-execution
  /// coordinates (e.g. recorded by a bus). Enables the polynomial
  /// coherence path.
  std::optional<vmc::WriteOrderMap> write_orders;
  CheckMode mode = CheckMode::kCoherence;
  /// Which model to decide when mode == kConsistency.
  models::Model model = models::Model::kSc;
  EffortBudget budget;
  /// Exact-tier engine policy (portfolio race / forced engine). Applies
  /// to coherence-bearing modes; kConsistency ignores it.
  SolverChoice solver = SolverChoice::kAuto;
  /// Wall-clock budget measured from submission; a request that cannot
  /// finish in time resolves to kUnknown with timed_out set. nullopt =
  /// unbounded.
  std::optional<std::chrono::milliseconds> deadline;
  /// Skip cache lookup and insertion for this request.
  bool bypass_cache = false;
  /// Also run the static trace analyzer (fragment classification + lint
  /// rules) and attach its report to the response. Analyze requests
  /// bypass the result cache: a cached verdict carries no analysis, and
  /// the analysis itself is a cheap O(n) pass.
  bool analyze = false;
  /// Attach a checkable certify::Certificate for every verdict this
  /// request produces (one per address for coherence-bearing modes, plus
  /// one execution-scope SC certificate for kVscc), so an independent
  /// checker (certify::check / vermemcert) can re-validate the response
  /// without trusting the service. Certified requests bypass the result
  /// cache: a cached verdict carries no certificates.
  bool certify = false;
  /// Strip witness schedules from the per-address coherence report in
  /// the response. Witnesses are O(n) per address and most callers only
  /// want verdicts; set to false to keep them, or set `certify` — the
  /// certificates always retain their witnesses (a coherent certificate
  /// is uncheckable without one).
  bool drop_witnesses = true;
  /// Opaque caller label (e.g. a file name); echoed in the response.
  std::string tag;
};

struct VerificationResponse {
  vmc::Verdict verdict = vmc::Verdict::kUnknown;
  /// Human-readable reason for kIncoherent/kUnknown verdicts.
  std::string reason;
  bool timed_out = false;  ///< deadline fired before a definite verdict
  bool cancelled = false;  ///< request withdrawn / service shut down
  bool cache_hit = false;  ///< verdict served from the result cache
  /// Stable trace fingerprint (execution + write orders); the cache key
  /// additionally folds in the check mode.
  std::uint64_t fingerprint = 0;
  std::string tag;
  std::size_t num_operations = 0;
  std::size_t num_addresses = 0;
  /// Submission -> a pool worker picks the request up: the whole wait
  /// in the pool's queue.
  double queue_micros = 0;
  double run_micros = 0;  ///< worker pickup -> verdict
  /// Solver effort behind this verdict: per-address exact-search
  /// states/transitions/prunes summed, peak frontier maxed. All zero
  /// when every address routed polynomially (the cheap-path signature)
  /// and for cache hits.
  vmc::SearchStats effort;
  /// Portfolio provenance (kCoherence or kVscc with solver != kAuto):
  /// how many addresses were decided by a race, which engine won each,
  /// and the cancelled losers' merged effort. `effort` above stays
  /// winner-only; the waste is surfaced here so latency-explaining
  /// tallies stay honest.
  std::uint64_t portfolio_races = 0;
  std::array<std::uint64_t, analysis::kNumEngines> engine_wins{};
  vmc::SearchStats wasted_effort;
  /// No service path sets these: every kVscc request runs the routed
  /// pipeline of vsc::check_vscc. They remain for bench/e2e, whose
  /// traced replay still runs the warm SAT sweep and reports whether it
  /// carried state over from a trace this one extends by a suffix.
  bool warm_sweep = false;
  bool suffix_extension = false;
  /// Per-address detail for coherence-bearing modes; empty for cache hits
  /// and consistency-mode requests.
  vmc::CoherenceReport coherence;
  /// Static analysis report; populated iff request.analyze was set.
  bool analyzed = false;
  analysis::AnalysisReport analysis;
  /// Checkable certificates; populated iff request.certify was set.
  /// Empty for cache hits, cancelled/expired requests, and
  /// consistency-mode requests (model admissibility has no certificate
  /// form yet).
  std::vector<certify::Certificate> certificates;
  /// Flight-recorder record id when this request tripped the capture
  /// policy (slow / unknown / incoherent / cancelled / deadline); 0 when not
  /// captured. The record is retrievable via obs::flight_record_for and
  /// `vermemd --flight-out` while it stays resident.
  std::uint64_t flight_id = 0;
};

}  // namespace vermem::service
