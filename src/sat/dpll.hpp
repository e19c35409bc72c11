#pragma once
// Classic DPLL (unit propagation + chronological backtracking, no clause
// learning). Serves as the "no learning" arm of the SAT ablation study
// and as an independent implementation for cross-checking the CDCL solver
// on small/medium instances.
//
// Role: a deliberately simple reference oracle, kept for the SAT
// ablation baseline (bench_ablation_sat) and differential cross-checks
// (sat_test). It is not a production engine and the exact-tier
// portfolio (analysis/router.cpp) does not race it: it has no
// incremental interface, no proof logging (its UNSAT answers are not
// checkable RUP certificates), and no cooperative-cancellation hook.

#include "sat/solver.hpp"

namespace vermem::sat {

struct DpllStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t backtracks = 0;
  /// Always 0: chronological DPLL never restarts. Present so effort
  /// records share one schema with the CDCL solver's SolverStats.
  std::uint64_t restarts = 0;
};

struct DpllResult {
  Status status = Status::kUnknown;
  std::vector<bool> model;
  DpllStats stats;
};

/// Solves by recursive DPLL. `deadline` bounds wall-clock time (result is
/// kUnknown when exceeded).
[[nodiscard]] DpllResult solve_dpll(const Cnf& cnf,
                                    Deadline deadline = Deadline::never());

}  // namespace vermem::sat
