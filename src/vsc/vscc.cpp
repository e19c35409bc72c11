#include "vsc/vscc.hpp"

#include <unordered_map>
#include <utility>

#include "analysis/router.hpp"
#include "encode/vsc_to_cnf.hpp"

namespace vermem::vsc {

namespace {

/// Per-call solver effort in the shared SearchStats schema (decisions
/// play the role of visited states, propagations of transitions — same
/// convention as check_sc_via_sat).
vmc::SearchStats delta_stats(const sat::SolverStats& before,
                             const sat::SolverStats& after) {
  vmc::SearchStats stats;
  stats.states_visited = after.decisions - before.decisions;
  stats.transitions = after.propagations - before.propagations;
  return stats;
}

/// Stages 1 -> 2, shared by both pipelines once stage 1's coherence
/// report is in: an incoherent or undecided stage 1 settles the SC
/// verdict outright, otherwise the per-address witnesses are merged.
/// Returns true when the report is final; false means the merge failed
/// and only stage 3's exact SC query can tell whether a different set
/// of coherent schedules would have merged.
bool settle_before_fallback(const Execution& exec, const VsccOptions& options,
                            VsccReport& report) {
  if (report.coherence.verdict == vmc::Verdict::kIncoherent) {
    // Not coherent => certainly not sequentially consistent. The
    // address-level refutation is valid at execution scope, so the SC
    // verdict reuses it verbatim.
    const auto* violation = report.coherence.first_violation();
    certify::Incoherence evidence;
    if (violation) {
      if (const auto* inc = violation->result.incoherence()) evidence = *inc;
      evidence.addr = violation->addr;
    }
    report.sc = vmc::CheckResult::no(std::move(evidence));
    report.conflict = report.sc;
    return true;
  }
  if (report.coherence.verdict == vmc::Verdict::kUnknown) {
    // The first undecided address's reason is the trace's, so a deadline
    // or a cancellation is not reported as a spent budget.
    report.sc = vmc::CheckResult::unknown(
        certify::UnknownReason::kBudget,
        "coherence of some address could not be decided");
    if (const auto* undecided = report.coherence.first_undecided())
      if (const auto* why = undecided->result.unknown_reason())
        report.sc = vmc::CheckResult::unknown(
            why->reason,
            "address " + std::to_string(undecided->addr) + ": " + why->detail);
    report.conflict = report.sc;
    return true;
  }

  CoherentSchedules schedules;
  for (const auto& [addr, result] : report.coherence.addresses)
    schedules[addr] = result.witness;
  report.conflict = check_sc_conflict(exec, schedules);
  if (report.conflict.verdict == vmc::Verdict::kCoherent ||
      !options.fallback_to_exact_sc) {
    report.sc = report.conflict;
    return true;
  }
  report.used_exact_fallback = true;
  return false;
}

/// The warm pipeline: every per-address query of stage 1 and the full SC
/// query of stage 3 run on one incremental solver whose trace skeleton
/// was encoded once (and, with a caller-retained sweep, possibly in a
/// previous call). Stage 1's queries are equivalent to per-address
/// coherence of the projection: a coherent per-address schedule always
/// extends to a program-order-respecting total order of all operations,
/// and conversely the projection of a satisfying order is a coherent
/// per-address schedule.
VsccReport check_vscc_sweep(const AddressIndex& index,
                            const VsccOptions& options) {
  VsccReport report;
  report.used_sat_sweep = true;
  const Execution& exec = index.execution();

  encode::VscSweep local(options.solver);
  encode::VscSweep& sweep = options.sweep ? *options.sweep : local;
  sweep.solver_options().deadline = options.solver.deadline;
  sweep.solver_options().cancel = options.solver.cancel;
  sweep.solver_options().max_conflicts = options.solver.max_conflicts;
  report.sweep_prepare = sweep.prepare(exec);

  std::unordered_map<Addr, std::size_t> frame_of;
  for (std::size_t i = 0; i < sweep.num_addresses(); ++i)
    frame_of[sweep.address(i)] = i;

  // Stage 1: per-address queries under each frame's activation literal.
  std::vector<vmc::AddressReport> reports;
  reports.reserve(index.num_addresses());
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const Addr addr = index.entry(i).addr;
    const std::size_t frame = frame_of.at(addr);
    vmc::AddressReport address_report{addr, {}};
    if (sweep.address_trivially_unsat(frame)) {
      address_report.result =
          vmc::CheckResult::no(sweep.address_evidence(frame));
    } else {
      const sat::SolverStats before = sweep.cumulative_stats();
      const auto out = sweep.solve_address(frame);
      const vmc::SearchStats stats =
          delta_stats(before, sweep.cumulative_stats());
      switch (out.status) {
        case sat::Status::kSat: {
          Schedule witness;
          for (const OpRef ref : out.schedule) {
            const Operation& op = exec.op(ref);
            if (!op.is_sync() && op.addr == addr) witness.push_back(ref);
          }
          address_report.result =
              vmc::CheckResult::yes(std::move(witness), stats);
          break;
        }
        case sat::Status::kUnsat: {
          // Typed evidence comes from the cold router; the sweep's
          // variable numbering differs from the plain re-encode that
          // certify::check replays, so its refutation is not citable.
          analysis::RouteOutcome routed = analysis::check_routed(
              index.view_at(i), nullptr, options.coherence);
          report.routing.add(routed);
          address_report.result = std::move(routed.result);
          address_report.result.stats.merge(stats);
          break;
        }
        case sat::Status::kUnknown:
          address_report.result = vmc::CheckResult::unknown(
              certify::UnknownReason::kSolverGaveUp,
              "incremental SAT sweep gave up", stats);
          break;
      }
    }
    reports.push_back(std::move(address_report));
  }
  report.coherence = vmc::aggregate_reports(std::move(reports));
  if (settle_before_fallback(exec, options, report)) return report;

  // Stage 3: full SC under every activation literal at once — the same
  // warm solver, now reusing whatever stage 1 learned.
  const sat::SolverStats before = sweep.cumulative_stats();
  const auto out = sweep.solve_all();
  const vmc::SearchStats stats = delta_stats(before, sweep.cumulative_stats());
  switch (out.status) {
    case sat::Status::kSat: {
      const auto valid = check_sc_schedule(exec, out.schedule);
      if (valid.ok) {
        report.sc = vmc::CheckResult::yes(out.schedule, stats);
      } else {
        report.sc = vmc::CheckResult::unknown(
            certify::UnknownReason::kCertificationFailed,
            "internal: sweep SC model failed certification: " + valid.violation,
            stats);
      }
      break;
    }
    case sat::Status::kUnsat:
      // A certified refutation (RUP proof against the deterministically
      // re-buildable formula) requires the cold encoding path.
      report.sc = encode::check_sc_via_sat(exec, options.solver);
      report.sc.stats.merge(stats);
      break;
    case sat::Status::kUnknown:
      report.sc = vmc::CheckResult::unknown(
          certify::UnknownReason::kSolverGaveUp,
          "incremental SAT sweep gave up", stats);
      break;
  }
  return report;
}

}  // namespace

VsccReport check_vscc(const Execution& exec, const VsccOptions& options) {
  // One indexing pass serves the per-address coherence stage and (when
  // the merge fails) the exact SC search's dense address numbering.
  return check_vscc(AddressIndex(exec), options);
}

VsccReport check_vscc(const AddressIndex& index, const VsccOptions& options) {
  if (options.use_sat_sweep) return check_vscc_sweep(index, options);

  VsccReport report;
  const Execution& exec = index.execution();

  analysis::RoutedReport routed = analysis::verify_coherence_routed(
      index, options.write_orders, options.coherence);
  report.coherence = std::move(routed.report);
  report.routing = routed.routing;
  if (settle_before_fallback(exec, options, report)) return report;
  report.sc = check_sc_exact(index, options.sc);
  return report;
}

}  // namespace vermem::vsc
