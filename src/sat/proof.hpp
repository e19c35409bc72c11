#pragma once
// UNSAT certificates: RUP (reverse unit propagation) proofs.
//
// When asked, the CDCL solver logs every learned clause in derivation
// order, ending with the empty clause. Each logged clause is RUP with
// respect to the input formula plus the previously logged clauses:
// asserting its negation and unit-propagating must yield a conflict.
// check_rup_proof verifies exactly that with an independent watched-
// literal propagator (no search, no heuristics, nothing shared with the
// solver) — so an "incoherent" verdict produced through the SAT route
// can be certified without trusting the solver, mirroring how witness
// schedules certify "coherent" verdicts.

#include <vector>

#include "sat/cnf.hpp"

namespace vermem::sat {

/// A proof is the ordered list of derived clauses; a valid refutation
/// ends with (or contains) the empty clause.
using Proof = std::vector<Clause>;

/// Verifies that `proof` is a valid RUP refutation of `cnf`: every step
/// is RUP over the formula plus earlier steps, and the empty clause is
/// derived. Returns false on the first bad step, including a step that
/// names a variable >= cnf.num_vars.
[[nodiscard]] bool check_rup_proof(const Cnf& cnf, const Proof& proof);

}  // namespace vermem::sat
