#pragma once
// Persistent incremental CDCL solver: the engine behind sat::solve(),
// exposed as a long-lived object so callers can keep solver state warm
// across related queries.
//
// Three incremental mechanisms, composable:
//
//  * solve-under-assumptions — MiniSat-style: assumptions are placed as
//    pseudo-decisions at the leading decision levels, so conflict
//    analysis never resolves them away and every learned clause remains
//    valid unconditionally. An UNSAT answer under assumptions reports
//    the subset of assumptions that was actually used (the failed
//    assumption core, returned as the clause {~a : a in core}).
//
//  * learned-clause retention — the clause database, variable
//    activities, and saved phases persist across solve() calls. A later
//    call on the same (or extended) formula starts from everything the
//    earlier calls derived.
//
//  * constraint frames — push()/pop() scope clauses to a frame by
//    guarding them with a fresh activation literal: a clause C added
//    inside a frame is stored as (C | ~act) and enforced only while
//    solve() assumes act. pop() never deletes clauses; it adds the unit
//    clause {~act}, permanently satisfying the frame's clauses. This is
//    what keeps retained learned clauses sound: a learned clause that
//    depended on a frame carries the ~act literal and is neutralized by
//    the same unit. The explicit new_activation()/add_guarded()/retire()
//    API exposes the same mechanism for non-stack-shaped frame sets
//    (e.g. the per-address frames of the kVscc sweep, where any subset
//    of frames may be activated per call).
//
// Proof logging stays sound across retention because learned clauses are
// resolvents of database clauses only (never of assumptions) and RUP is
// monotone under clause addition: each retained clause remains
// reverse-unit-propagation-derivable from the grown formula. A per-call
// refutation is therefore the cumulative learned-clause log in
// derivation order, ending with the empty clause; for a solve under
// assumptions it checks against formula_with(assumptions), i.e. the
// input clauses so far plus one unit clause per assumption
// (sat_incremental_test replays these through sat::check_rup_proof).

#include <cstdint>
#include <memory>
#include <vector>

#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace vermem::sat {

class IncrementalSolver {
 public:
  explicit IncrementalSolver(SolverOptions options = {});
  ~IncrementalSolver();
  IncrementalSolver(IncrementalSolver&&) noexcept;
  IncrementalSolver& operator=(IncrementalSolver&&) noexcept;
  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Per-call knobs (deadline, cancel, max_conflicts, verify_models) may
  /// be adjusted between solves. log_proof is latched at construction;
  /// changing it here has no effect.
  [[nodiscard]] SolverOptions& options() noexcept;

  [[nodiscard]] Var new_var();
  void reserve_vars(Var n);

  /// Adds a clause over existing variables (at the current frame depth:
  /// clauses added inside push() are guarded by that frame's activation
  /// literal). Returns false once the formula is unconditionally UNSAT
  /// at top level; further adds are ignored, matching one-shot load.
  bool add_clause(Clause clause);
  bool add_unit(Lit a) { return add_clause(Clause{a}); }
  bool add_binary(Lit a, Lit b) { return add_clause(Clause{a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

  /// Bulk-adds a whole formula (reserves its variable range first).
  bool add_cnf(const Cnf& cnf);

  /// Fresh activation (selector) variable for an explicit frame.
  [[nodiscard]] Var new_activation();
  /// Stores (clause | ~act): enforced only when solve() assumes act.
  bool add_guarded(Var act, Clause clause);
  /// Permanently disables a frame by adding the unit {~act}.
  void retire(Var act);

  /// Stack sugar over activation literals. Clauses added between push()
  /// and pop() are guarded by the frame's activation literal, and
  /// solve() implicitly assumes every open frame. Returns the frame's
  /// activation variable.
  Var push();
  void pop();
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Solves the current formula under the open frames plus the given
  /// assumptions. On kUnsat, result.conflict holds the failed
  /// assumption core as the clause {~a : a in core} (empty when the
  /// formula is UNSAT regardless of assumptions), and — when proof
  /// logging is on — result.proof is a refutation checkable against
  /// formula_with(assumptions). Stats are per-call deltas.
  [[nodiscard]] SolveResult solve(const std::vector<Lit>& assumptions = {});

  /// Every input clause accepted so far (after dedup; guarded clauses
  /// include their ~act literal, retired frames their {~act} unit).
  [[nodiscard]] const Cnf& formula() const noexcept;
  /// formula() plus one unit clause per assumption — the formula a
  /// per-call proof refutes.
  [[nodiscard]] Cnf formula_with(const std::vector<Lit>& assumptions) const;

  [[nodiscard]] const SolverStats& cumulative_stats() const noexcept;
  [[nodiscard]] Var num_vars() const noexcept;
  [[nodiscard]] bool ok() const noexcept;  ///< false once top-level UNSAT
  [[nodiscard]] std::uint64_t num_solves() const noexcept;
  [[nodiscard]] std::size_t num_retained() const noexcept;  ///< learned clauses

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vermem::sat
