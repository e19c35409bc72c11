#pragma once
// Conflict-driven clause learning (CDCL) SAT solver.
//
// This is the NP engine behind the practical VMC checker (module encode/
// turns a coherence-verification instance into CNF and solves it here) and
// the reference oracle for the reduction round-trip experiments.
//
// Feature set: two-watched-literal propagation, first-UIP conflict
// analysis with recursive clause minimization, VSIDS decision heuristic
// with phase saving, and Luby restarts. Every feature can be disabled
// individually through SolverOptions; the ablation benchmark
// (bench_ablation_sat) measures what each contributes. Learned clauses are
// kept for the lifetime of the solve — instance sizes in this repository
// do not warrant database reduction, and omitting it keeps the solver
// auditable.
//
// solve() below is a thin one-shot wrapper over sat::IncrementalSolver
// (incremental.hpp), which owns the CDCL engine and additionally offers
// solve-under-assumptions, learned-clause retention across calls, and
// push/pop constraint frames. The wrapper's contract is unchanged:
// fresh solver per call, model verified against the input, per-call RUP
// proof when log_proof is set.

#include <cstdint>
#include <vector>

#include "sat/cnf.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace vermem::sat {

enum class Status : std::uint8_t { kSat, kUnsat, kUnknown };

[[nodiscard]] constexpr const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kSat: return "SAT";
    case Status::kUnsat: return "UNSAT";
    case Status::kUnknown: return "UNKNOWN";
  }
  return "?";
}

struct SolverOptions {
  bool use_vsids = true;        ///< else: pick the lowest-index unassigned var
  bool use_restarts = true;     ///< Luby sequence, unit 128 conflicts
  bool use_phase_saving = true; ///< else: always decide false first
  bool minimize_learned = true; ///< recursive learned-clause minimization
  bool use_watched_literals = true;  ///< else: occurrence-list propagation
  std::uint64_t max_conflicts = 0;   ///< 0 = unlimited; else give up (kUnknown)
  Deadline deadline = Deadline::never();  ///< cooperative wall-clock budget
  /// External cooperative cancellation; checked alongside the deadline.
  const CancellationToken* cancel = nullptr;
  /// Log every learned clause so kUnsat results carry an RUP refutation
  /// (verify with sat::check_rup_proof). Costs memory, off by default.
  bool log_proof = false;
  /// Verify kSat models against the formula before returning (abort on
  /// mismatch). IncrementalSolver honors this per call; callers whose
  /// models are certified downstream anyway (e.g. decoded schedules that
  /// go through the schedule validator) may disable it on hot sweeps.
  bool verify_models = true;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t minimized_literals = 0;  ///< literals removed by minimization
};

struct SolveResult {
  Status status = Status::kUnknown;
  std::vector<bool> model;  ///< per-variable assignment; valid when kSat
  /// RUP refutation when kUnsat and log_proof was set (ends with the
  /// empty clause). For an incremental solve under assumptions, check it
  /// against IncrementalSolver::formula_with(assumptions).
  std::vector<Clause> proof;
  /// Failed-assumption core when an incremental solve was kUnsat under
  /// assumptions: the clause {~a : a in core}, empty when the formula is
  /// UNSAT regardless of assumptions. Always empty for one-shot solve().
  std::vector<Lit> conflict;
  SolverStats stats;
};

/// Solves a CNF formula. The returned model (when SAT) is always verified
/// against the input formula before being returned; a solver bug turns
/// into an assertion failure, never a wrong answer.
[[nodiscard]] SolveResult solve(const Cnf& cnf, const SolverOptions& options = {});

}  // namespace vermem::sat
