#include "sat/solver.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sat/incremental.hpp"

namespace vermem::sat {

namespace {

// The sat.cdcl span attributes and the vermem_sat_* counters. CDCL has
// no explicit backtrack counter; conflicts is the analogous "undo" count.
void record_effort(obs::Span& span, const SolveResult& result) {
  const SolverStats& stats = result.stats;
  if (span.active()) {
    span.attr("decisions", stats.decisions);
    span.attr("propagations", stats.propagations);
    span.attr("backtracks", stats.conflicts);
    span.attr("restarts", stats.restarts);
    span.attr("status", to_string(result.status));
  }
  if (obs::enabled()) {
    static const obs::Counter solves = obs::counter("vermem_sat_solves_total");
    static const obs::Counter decision_count =
        obs::counter("vermem_sat_decisions_total");
    static const obs::Counter propagation_count =
        obs::counter("vermem_sat_propagations_total");
    static const obs::Counter backtrack_count =
        obs::counter("vermem_sat_backtracks_total");
    static const obs::Counter restart_count =
        obs::counter("vermem_sat_restarts_total");
    solves.add();
    decision_count.add(stats.decisions);
    propagation_count.add(stats.propagations);
    backtrack_count.add(stats.conflicts);
    restart_count.add(stats.restarts);
  }
}

}  // namespace

// One-shot façade over the persistent engine: fresh IncrementalSolver,
// load, single solve with no assumptions. certify::check()'s RUP replay
// path depends on this exact contract (per-call proof against the plain
// input formula), so it must stay a pure wrapper.
//
// Loading polls the deadline and the cancel token every 1024 clauses and
// gives up with kUnknown (no decisions made) when either fires. The poll
// lives here rather than in IncrementalSolver::add_cnf so that a partly
// loaded persistent solver can never be solved.
SolveResult solve(const Cnf& cnf, const SolverOptions& options) {
  obs::Span span("sat.cdcl");
  SolverOptions inner = options;
  inner.verify_models = false;  // verified below against the caller's Cnf
  IncrementalSolver solver(inner);
  solver.reserve_vars(cnf.num_vars);
  SolveResult result;
  bool loaded = true;
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    if ((i & 0x3ff) == 0 &&
        (options.deadline.expired() ||
         (options.cancel != nullptr && options.cancel->cancelled()))) {
      loaded = false;
      break;
    }
    if (!solver.add_clause(cnf.clauses[i])) break;
  }
  if (loaded) result = solver.solve();
  if (result.status == Status::kSat && !cnf.satisfied_by(result.model)) {
    // A model that does not satisfy the input is a solver bug; fail loudly
    // rather than report a wrong answer.
    std::abort();
  }
  record_effort(span, result);
  return result;
}

}  // namespace vermem::sat
