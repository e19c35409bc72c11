#pragma once
// VMC -> CNF encoding: the practical NP engine.
//
// The paper proves VMC NP-complete; the constructive consequence is that
// a coherence check can be shipped to a SAT solver. This encoder emits a
// formula that is satisfiable iff the instance has a coherent schedule.
//
// Encoding (writes-centric; reads never get order variables):
//   - A strict total order over writing operations: one boolean per
//     unordered write pair, transitivity clauses over write triples,
//     unit clauses for program order between same-history writes.
//   - For every read r (or RMW read component), map variables m(r,w) over
//     candidate writes w storing the value r observed (plus a virtual
//     "initial value" candidate when applicable). Exactly-one is enforced
//     as at-least-one + the structural constraints (at-most-one is
//     implied and not needed for correctness).
//   - Interval constraints: if r observes w then no other write lands
//     between w and r; expressed purely over the write order plus the
//     anchor monotonicity of same-history reads.
//   - Final-value constraint via "is the last write" selector variables.
//
// Sizes: O(W^2 + R*W) variables and O(W^3 + R*W^2) clauses, where W is
// the number of writing operations and R the number of reads. Decoding a
// model recovers the write serialization order; the Section 5.2
// polynomial algorithm then reconstructs (and certifies) a full witness
// schedule, so a bug in this encoder can never produce a false
// "coherent" verdict.

#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/cancellation.hpp"
#include "support/stopwatch.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"
#include "vmc/write_order.hpp"

namespace vermem::encode {

/// The emitted formula plus everything needed to decode a model.
struct VmcEncoding {
  sat::Cnf cnf;
  /// Writing operations in the fixed indexing the encoder used.
  std::vector<OpRef> writes;
  /// order_var[i][j] for i < j: true iff writes[i] precedes writes[j].
  /// Stored flattened; see order_var().
  std::vector<sat::Var> order_vars;
  /// When true, the instance was resolved during encoding (refuted, or
  /// found malformed); cnf contains an empty clause and `evidence` holds
  /// the typed certificate payload.
  bool trivially_incoherent = false;
  certify::Evidence evidence;
  /// When true, the cancellation token or the deadline fired before the
  /// encoding was complete: cnf holds only a prefix of the clauses and
  /// must never be solved (a partial formula decides nothing).
  bool interrupted = false;

  [[nodiscard]] std::size_t num_writes() const noexcept { return writes.size(); }

  /// Order variable for write pair (i, j), i < j.
  [[nodiscard]] sat::Var order_var(std::size_t i, std::size_t j) const {
    // Triangular indexing: pairs (i,j), i<j, laid out row by row.
    const std::size_t w = writes.size();
    return order_vars[i * w - i * (i + 1) / 2 + (j - i - 1)];
  }

  /// Reconstructs the write serialization order from a model.
  [[nodiscard]] vmc::WriteOrder decode_write_order(
      const std::vector<bool>& model) const;
};

/// Must-precede ordering hints from the coherence-order saturation pass
/// (analysis/saturate). Each pair (before, after) is an edge implied by
/// the trace alone, so asserting it as a unit clause preserves the
/// satisfiable/unsatisfiable answer while handing the solver the
/// saturated skeleton of the write order for free.
struct OrderHints {
  std::vector<std::pair<OpRef, OpRef>> must;  ///< instance coordinates
};

/// Builds the CNF encoding of a VMC instance.
[[nodiscard]] VmcEncoding encode_vmc(const vmc::VmcInstance& instance);

/// Same encoding plus one unit clause per mappable hint edge. Hint pairs
/// that do not name writing operations of the instance are skipped. A
/// hinted formula must NOT back an RUP certificate: the proof checker
/// re-encodes the instance plainly, so log proofs only for the
/// hint-free encoding.
///
/// `cancel` (optional) and `deadline` are polled on entry, once per
/// outer row of the O(W^3) transitivity loop, and once per read item;
/// when either fires the encoder stops and returns an encoding marked
/// `interrupted`.
[[nodiscard]] VmcEncoding encode_vmc(
    const vmc::VmcInstance& instance, const OrderHints& hints,
    const CancellationToken* cancel = nullptr,
    Deadline deadline = Deadline::never());

/// End-to-end SAT-based coherence check: encode, solve with the CDCL
/// solver, decode the write order, and certify the witness with the
/// Section 5.2 polynomial checker. The options' deadline and cancel
/// token bound every phase (encoding, clause loading, search); an
/// interrupted run returns kUnknown, labelled by search::interruption
/// like every engine (kDeadline / kCancelled), and never a verdict from
/// a partial formula.
[[nodiscard]] vmc::CheckResult check_via_sat(
    const vmc::VmcInstance& instance,
    const sat::SolverOptions& solver_options = {});

}  // namespace vermem::encode
