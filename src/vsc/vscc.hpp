#pragma once
// VSCC (Definition 6.2): verifying sequential consistency for executions
// promised (or verified) to be coherent.
//
// Pipeline: (1) verify coherence per address, collecting witness
// schedules; (2) attempt the O(n log n) VSC-Conflict merge of those
// witnesses; (3) optionally fall back to the exact SC search when the
// merge fails — because, as Section 6.3 stresses, a failed merge only
// proves that *this* set of coherent schedules is wrong, not that the
// execution is not SC. The report keeps all three stages visible so the
// gap between the merge heuristic and the exact answer is measurable
// (bench_fig62_vscc).

#include "analysis/router.hpp"
#include "encode/sweep.hpp"
#include "vmc/checker.hpp"
#include "vsc/conflict.hpp"
#include "vsc/exact.hpp"

namespace vermem::vsc {

struct VsccOptions {
  search::Limits coherence;  ///< budget for per-address coherence checks
  search::Limits sc;         ///< budget for the exact SC fallback
  bool fallback_to_exact_sc = true;
  /// Per-address write-orders (original coordinates). When supplied,
  /// coherence is verified with the polynomial Section 5.2 algorithm —
  /// the "information that makes verifying coherence tractable" setting
  /// in which VSCC is *still* NP-complete.
  const vmc::WriteOrderMap* write_orders = nullptr;
  /// Run stage 1's per-address queries and the stage-3 SC fallback on
  /// ONE warm incremental SAT solver (encode::VscSweep): the O(n^3)
  /// trace skeleton is encoded once and every query reuses the learned
  /// clauses of the previous ones, instead of m+n+1 cold solver runs.
  /// Warm answers keep the certification discipline: SAT witnesses are
  /// schedule-validated, and UNSAT answers re-derive typed (per-address)
  /// or RUP-certified (whole-trace) evidence through the cold paths.
  bool use_sat_sweep = false;
  /// Budget knobs (deadline / cancel / max_conflicts) for sweep solves.
  sat::SolverOptions solver;
  /// Optional caller-retained sweep, e.g. one kept across a client's
  /// requests: suffix extensions of the previous trace then
  /// re-solve from retained clauses instead of re-encoding. When null
  /// (and use_sat_sweep is set) a call-local sweep is built.
  encode::VscSweep* sweep = nullptr;
};

struct VsccReport {
  /// Stage 1: per-address coherence (the promise check).
  vmc::CoherenceReport coherence;
  /// Routing provenance of the addresses stage 1 routed: all of them on
  /// the cold path, the ones the sweep refuted on the warm path.
  analysis::RouteTally routing;
  /// Stage 2: merge of the coherence witnesses (meaningful when stage 1
  /// verified).
  vmc::CheckResult conflict;
  /// Final answer on "is the execution sequentially consistent".
  vmc::CheckResult sc;
  bool used_exact_fallback = false;
  /// Stages ran on the warm incremental solver (options.use_sat_sweep).
  bool used_sat_sweep = false;
  /// What the sweep did with the trace (meaningful when used_sat_sweep):
  /// kFresh = encoded from scratch, kExtended = suffix extension reused
  /// the previous skeleton, kReused = identical trace, nothing re-emitted.
  encode::VscSweep::Prepare sweep_prepare = encode::VscSweep::Prepare::kFresh;
};

[[nodiscard]] VsccReport check_vscc(const Execution& exec,
                                    const VsccOptions& options = {});
/// Same pipeline over a caller-supplied index, amortizing the indexing
/// pass across calls (the verification service builds one per request at
/// batch-scheduling time and reuses it here).
[[nodiscard]] VsccReport check_vscc(const AddressIndex& index,
                                    const VsccOptions& options = {});

}  // namespace vermem::vsc
