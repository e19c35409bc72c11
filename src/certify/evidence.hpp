#pragma once
// Typed verdict evidence (Section 5.2).
//
// Deciding coherence is NP-complete, but *checking supplied evidence*
// is polynomial: a witness schedule certifies kCoherent in O(n), and
// each incoherence kind below names a small, independently re-checkable
// contradiction in the trace. Every kIncoherent / kUnknown verdict in
// the pipeline carries an Evidence value instead of a free-text note,
// so an untrusted checker (certify::check) can validate the verdict
// without re-running — or trusting — the decider that produced it.
//
// This header is intentionally dependency-light (trace types plus the
// sat clause storage for RUP refutations); it sits *below* vmc so that
// vmc::CheckResult can embed Evidence directly.

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sat/proof.hpp"
#include "trace/execution.hpp"
#include "trace/operation.hpp"

namespace vermem::certify {

/// Shapes of incoherence evidence. Each kind pins down a contradiction
/// that certify::check() re-validates against the raw trace; the
/// per-kind field conventions are documented on the factory helpers
/// below and in docs/CERTIFICATES.md.
enum class IncoherenceKind : std::uint8_t {
  kUnwrittenRead,        ///< a read returns a value no schedulable write stores
  kUnwritableFinal,      ///< the recorded final value cannot be produced
  kReadBeforeWrite,      ///< a read precedes the unique write of its value in program order
  kStaleInitialRead,     ///< a read of the initial value is forced after a write
  kClusterCycle,         ///< cyclic ordering constraints among write-once values
  kFinalNotLast,         ///< the final value's unique write cannot be scheduled last
  kValueImbalance,       ///< more RMWs consume a value than operations create it
  kUnreachableValue,     ///< an RMW-read value unreachable from the initial value
  kChainStall,           ///< the forced RMW chain stalls: nothing reads the current value
  kChainEndMismatch,     ///< no RMW chain can end at the recorded final value
  kOrderProgramConflict, ///< supplied write-order contradicts program order
  kOrderRmwMismatch,     ///< an RMW reads the wrong value under the supplied write-order
  kOrderReadWindow,      ///< a read has no satisfying write in its feasible window
  kOrderFinalMismatch,   ///< the supplied write-order ends at the wrong final value
  kRupRefutation,        ///< UNSAT of the coherence CNF, certified by a RUP proof
  kSearchExhaustion,     ///< exhaustive search found no schedule (re-check = re-decide)
  kMergeCycle,           ///< heuristic SC merge found a cycle (not independently checkable)
  kSaturationCycle,      ///< must-precede saturation derived a cycle among writes
  kForcedOrderRefutation,///< saturation forced a total write order that fails §5.2
};

/// The kOrder* kinds refute the trace under the write order embedded in
/// the evidence, which the supplied write-order log must match.
[[nodiscard]] constexpr bool is_order_kind(IncoherenceKind k) noexcept {
  return k == IncoherenceKind::kOrderProgramConflict ||
         k == IncoherenceKind::kOrderRmwMismatch ||
         k == IncoherenceKind::kOrderReadWindow ||
         k == IncoherenceKind::kOrderFinalMismatch;
}

[[nodiscard]] constexpr const char* to_string(IncoherenceKind k) noexcept {
  switch (k) {
    case IncoherenceKind::kUnwrittenRead: return "unwritten-read";
    case IncoherenceKind::kUnwritableFinal: return "unwritable-final";
    case IncoherenceKind::kReadBeforeWrite: return "read-before-write";
    case IncoherenceKind::kStaleInitialRead: return "stale-initial-read";
    case IncoherenceKind::kClusterCycle: return "cluster-cycle";
    case IncoherenceKind::kFinalNotLast: return "final-not-last";
    case IncoherenceKind::kValueImbalance: return "value-imbalance";
    case IncoherenceKind::kUnreachableValue: return "unreachable-value";
    case IncoherenceKind::kChainStall: return "chain-stall";
    case IncoherenceKind::kChainEndMismatch: return "chain-end-mismatch";
    case IncoherenceKind::kOrderProgramConflict: return "order-program-conflict";
    case IncoherenceKind::kOrderRmwMismatch: return "order-rmw-mismatch";
    case IncoherenceKind::kOrderReadWindow: return "order-read-window";
    case IncoherenceKind::kOrderFinalMismatch: return "order-final-mismatch";
    case IncoherenceKind::kRupRefutation: return "rup-refutation";
    case IncoherenceKind::kSearchExhaustion: return "search-exhaustion";
    case IncoherenceKind::kMergeCycle: return "merge-cycle";
    case IncoherenceKind::kSaturationCycle: return "saturation-cycle";
    case IncoherenceKind::kForcedOrderRefutation: return "forced-order-refutation";
  }
  return "?";
}

/// A program-order edge between two operations of the same process
/// (before.index < after.index), used by cycle evidence.
struct ProgramOrderEdge {
  OpRef before;
  OpRef after;

  friend bool operator==(const ProgramOrderEdge&, const ProgramOrderEdge&) = default;
};

/// Structured refutation attached to a kIncoherent verdict. Which
/// fields are meaningful depends on `kind`; unused fields stay empty.
/// All OpRefs are in the coordinates of the execution the certificate
/// is checked against (the checker layers translate projected refs
/// back to original coordinates at the same point they translate
/// witness schedules).
struct Incoherence {
  IncoherenceKind kind = IncoherenceKind::kSearchExhaustion;
  Addr addr = 0;                        ///< the offending address (address-scope kinds)
  std::vector<OpRef> ops;               ///< per-kind operation references
  std::vector<Value> values;            ///< per-kind value references
  std::vector<ProgramOrderEdge> edges;  ///< cycle edges (kClusterCycle)
  std::vector<OpRef> write_order;       ///< the supplied write order (kOrder* kinds)
  sat::Proof proof;                     ///< RUP refutation (kRupRefutation)
  std::uint64_t states = 0;             ///< search effort record (kSearchExhaustion, kChainStall step)
  std::uint64_t transitions = 0;        ///< search effort record (kSearchExhaustion)
};

/// Why a decider gave up, as a closed enum instead of a note string.
enum class UnknownReason : std::uint8_t {
  kMalformed,            ///< the instance violates basic shape invariants
  kNotApplicable,        ///< a specialized decider's precondition is unmet
  kBudget,               ///< state/transition budget exhausted
  kDeadline,             ///< request deadline expired
  kCancelled,            ///< request cooperatively cancelled
  kSkipped,              ///< address skipped (early-cancel / sibling violation)
  kInvalidWriteOrder,    ///< the supplied write-order does not describe the trace
  kSolverGaveUp,         ///< the SAT backend returned unknown
  kCertificationFailed,  ///< a produced witness failed internal re-validation
  kUnsupported,          ///< the procedure cannot certify this configuration
};

[[nodiscard]] constexpr const char* to_string(UnknownReason r) noexcept {
  switch (r) {
    case UnknownReason::kMalformed: return "malformed";
    case UnknownReason::kNotApplicable: return "not-applicable";
    case UnknownReason::kBudget: return "budget";
    case UnknownReason::kDeadline: return "deadline";
    case UnknownReason::kCancelled: return "cancelled";
    case UnknownReason::kSkipped: return "skipped";
    case UnknownReason::kInvalidWriteOrder: return "invalid-write-order";
    case UnknownReason::kSolverGaveUp: return "solver-gave-up";
    case UnknownReason::kCertificationFailed: return "certification-failed";
    case UnknownReason::kUnsupported: return "unsupported";
  }
  return "?";
}

/// Structured reason attached to a kUnknown verdict. `detail` is
/// display-only context (e.g. which precondition failed); checkers
/// never interpret it.
struct Unknown {
  UnknownReason reason = UnknownReason::kNotApplicable;
  std::string detail;
};

/// Evidence for a verdict: nothing (kCoherent — the witness schedule
/// lives alongside in CheckResult / Certificate), a structured
/// refutation, or a structured give-up reason.
using Evidence = std::variant<std::monostate, Incoherence, Unknown>;

// ---------------------------------------------------------------------------
// Factory helpers — one per incoherence kind, fixing the field layout.

/// `read` returns `v`, yet no write the read could observe stores `v`.
inline Incoherence unwritten_read(Addr addr, OpRef read, Value v) {
  Incoherence e;
  e.kind = IncoherenceKind::kUnwrittenRead;
  e.addr = addr;
  e.ops = {read};
  e.values = {v};
  return e;
}

/// The recorded final value `fin` is stored by no write (or, with no
/// writes at all, differs from the initial value).
inline Incoherence unwritable_final(Addr addr, Value fin) {
  Incoherence e;
  e.kind = IncoherenceKind::kUnwritableFinal;
  e.addr = addr;
  e.values = {fin};
  return e;
}

/// `read` observes `v`, whose unique write `write` follows it in the
/// same process's program order.
inline Incoherence read_before_write(Addr addr, OpRef read, OpRef write, Value v) {
  Incoherence e;
  e.kind = IncoherenceKind::kReadBeforeWrite;
  e.addr = addr;
  e.ops = {read, write};
  e.values = {v};
  return e;
}

/// `read` observes the initial value, but `earlier` (same process,
/// earlier in program order) already forces a non-initial value:
/// it is a write, or reads a written non-initial value.
inline Incoherence stale_initial_read(Addr addr, OpRef earlier, OpRef read) {
  Incoherence e;
  e.kind = IncoherenceKind::kStaleInitialRead;
  e.addr = addr;
  e.ops = {earlier, read};
  return e;
}

/// Program-order edges whose induced value-ordering constraints form a
/// cycle (write-once fragment).
inline Incoherence cluster_cycle(Addr addr, std::vector<ProgramOrderEdge> cycle) {
  Incoherence e;
  e.kind = IncoherenceKind::kClusterCycle;
  e.addr = addr;
  e.edges = std::move(cycle);
  return e;
}

/// `pinned` is (or reads the value of) the unique write of the final
/// value `fin`, yet `later` follows it in program order and touches a
/// different value — so the final write cannot be scheduled last.
inline Incoherence final_not_last(Addr addr, OpRef pinned, OpRef later, Value fin) {
  Incoherence e;
  e.kind = IncoherenceKind::kFinalNotLast;
  e.addr = addr;
  e.ops = {pinned, later};
  e.values = {fin};
  return e;
}

/// More RMWs consume value `v` than operations create it.
inline Incoherence value_imbalance(Addr addr, Value v) {
  Incoherence e;
  e.kind = IncoherenceKind::kValueImbalance;
  e.addr = addr;
  e.values = {v};
  return e;
}

/// In an all-RMW instance, value `v` is read by some RMW but
/// unreachable from the initial value in the value graph.
inline Incoherence unreachable_value(Addr addr, Value v) {
  Incoherence e;
  e.kind = IncoherenceKind::kUnreachableValue;
  e.addr = addr;
  e.values = {v};
  return e;
}

/// The forced all-RMW chain stalls after `step` operations: no
/// schedulable RMW reads the current value `v`.
inline Incoherence chain_stall(Addr addr, Value v, std::uint64_t step) {
  Incoherence e;
  e.kind = IncoherenceKind::kChainStall;
  e.addr = addr;
  e.values = {v};
  e.states = step;
  return e;
}

/// No all-RMW chain can end at the recorded final value `fin`
/// (value-interval counting: net supply of `fin` is non-positive).
inline Incoherence chain_end_mismatch(Addr addr, Value fin) {
  Incoherence e;
  e.kind = IncoherenceKind::kChainEndMismatch;
  e.addr = addr;
  e.values = {fin};
  return e;
}

/// The supplied write order places `prev` before `cur`, but program
/// order within their (shared) process requires the opposite.
inline Incoherence order_conflict(Addr addr, OpRef prev, OpRef cur,
                                  std::vector<OpRef> order) {
  Incoherence e;
  e.kind = IncoherenceKind::kOrderProgramConflict;
  e.addr = addr;
  e.ops = {prev, cur};
  e.write_order = std::move(order);
  return e;
}

/// Under the supplied write order, the RMW `rmw` reads a value other
/// than the one stored by its predecessor in the order.
inline Incoherence order_rmw_mismatch(Addr addr, OpRef rmw, std::vector<OpRef> order) {
  Incoherence e;
  e.kind = IncoherenceKind::kOrderRmwMismatch;
  e.addr = addr;
  e.ops = {rmw};
  e.write_order = std::move(order);
  return e;
}

/// Under the supplied write order, `failing` (a read, or the write
/// bounding its window) cannot be anchored: the §5.2 greedy
/// per-process placement fails at this operation.
inline Incoherence order_read_window(Addr addr, OpRef failing, std::vector<OpRef> order) {
  Incoherence e;
  e.kind = IncoherenceKind::kOrderReadWindow;
  e.addr = addr;
  e.ops = {failing};
  e.write_order = std::move(order);
  return e;
}

/// The last write of the supplied order stores `last`, but the trace
/// records final value `fin` (with an empty order, `last` is the
/// initial value).
inline Incoherence order_final_mismatch(Addr addr, Value last, Value fin,
                                        std::vector<OpRef> order) {
  Incoherence e;
  e.kind = IncoherenceKind::kOrderFinalMismatch;
  e.addr = addr;
  e.values = {last, fin};
  e.write_order = std::move(order);
  return e;
}

/// The coherence CNF for this instance is unsatisfiable; `proof` is a
/// RUP refutation replayable against the deterministic re-encoding.
inline Incoherence rup_refutation(Addr addr, sat::Proof proof) {
  Incoherence e;
  e.kind = IncoherenceKind::kRupRefutation;
  e.addr = addr;
  e.proof = std::move(proof);
  return e;
}

/// Exhaustive search visited `states` states / `transitions`
/// transitions and found no schedule. Checking this certificate means
/// re-deciding with an independent search — exponential, unlike every
/// other kind.
inline Incoherence search_exhaustion(Addr addr, std::uint64_t states,
                                     std::uint64_t transitions) {
  Incoherence e;
  e.kind = IncoherenceKind::kSearchExhaustion;
  e.addr = addr;
  e.states = states;
  e.transitions = transitions;
  return e;
}

/// The heuristic per-address merge found a cycle. Not independently
/// checkable (the cycle depends on the supplied schedules, not the
/// trace alone); certify::check() rejects it as unsupported.
inline Incoherence merge_cycle() {
  Incoherence e;
  e.kind = IncoherenceKind::kMergeCycle;
  return e;
}

/// Coherence-order saturation derived a must-precede cycle among the
/// writes of `addr`: `ops` = w0..wk-1 with every edge wi -> w(i+1 mod k)
/// individually necessary in any coherent schedule. The checker
/// re-derives the saturated constraint graph from the trace alone and
/// verifies each cycle edge is (still) derivable.
inline Incoherence saturation_cycle(Addr addr, std::vector<OpRef> cycle_ops) {
  Incoherence e;
  e.kind = IncoherenceKind::kSaturationCycle;
  e.addr = addr;
  e.ops = std::move(cycle_ops);
  return e;
}

/// Saturation forced a unique total order over the writes of `addr`
/// (`write_order` field), and the Section 5.2 re-run under that order
/// refutes the trace. The checker verifies both parts: that the order
/// is forced edge-by-edge by the re-derived graph, and that §5.2
/// rejects it.
inline Incoherence forced_order_refutation(Addr addr, std::vector<OpRef> order) {
  Incoherence e;
  e.kind = IncoherenceKind::kForcedOrderRefutation;
  e.addr = addr;
  e.write_order = std::move(order);
  return e;
}

// ---------------------------------------------------------------------------
// Rendering.

[[nodiscard]] inline std::string to_string(OpRef ref) {
  std::string out = "P";
  out += std::to_string(ref.process);
  out += '#';
  out += std::to_string(ref.index);
  return out;
}

[[nodiscard]] inline std::string to_string(const Incoherence& e) {
  std::string out = to_string(e.kind);
  out += " @a";
  out += std::to_string(e.addr);
  if (!e.ops.empty()) {
    out += " ops=[";
    for (std::size_t i = 0; i < e.ops.size(); ++i) {
      if (i != 0) out += ' ';
      out += to_string(e.ops[i]);
    }
    out += ']';
  }
  if (!e.values.empty()) {
    out += " values=[";
    for (std::size_t i = 0; i < e.values.size(); ++i) {
      if (i != 0) out += ' ';
      out += std::to_string(e.values[i]);
    }
    out += ']';
  }
  if (!e.edges.empty()) {
    out += " edges=[";
    for (std::size_t i = 0; i < e.edges.size(); ++i) {
      if (i != 0) out += ' ';
      out += to_string(e.edges[i].before);
      out += '>';
      out += to_string(e.edges[i].after);
    }
    out += ']';
  }
  if (!e.write_order.empty()) {
    out += " order=[";
    for (std::size_t i = 0; i < e.write_order.size(); ++i) {
      if (i != 0) out += ' ';
      out += to_string(e.write_order[i]);
    }
    out += ']';
  }
  if (!e.proof.empty()) {
    out += " proof=";
    out += std::to_string(e.proof.size());
    out += "-clauses";
  }
  if (e.states != 0 || e.transitions != 0) {
    out += " states=";
    out += std::to_string(e.states);
    out += " transitions=";
    out += std::to_string(e.transitions);
  }
  return out;
}

[[nodiscard]] inline std::string to_string(const Unknown& u) {
  std::string out = to_string(u.reason);
  if (!u.detail.empty()) {
    out += ": ";
    out += u.detail;
  }
  return out;
}

[[nodiscard]] inline std::string to_string(const Evidence& evidence) {
  if (const auto* inc = std::get_if<Incoherence>(&evidence)) return to_string(*inc);
  if (const auto* unk = std::get_if<Unknown>(&evidence)) return to_string(*unk);
  return {};
}

// ---------------------------------------------------------------------------
// Coordinate translation support: visit every OpRef embedded in a piece
// of evidence. The projection layers use this to map projected refs
// back to original-trace coordinates, exactly where they translate
// witness schedules.

template <typename Fn>
void for_each_ref(Incoherence& e, Fn&& fn) {
  for (OpRef& ref : e.ops) fn(ref);
  for (ProgramOrderEdge& edge : e.edges) {
    fn(edge.before);
    fn(edge.after);
  }
  for (OpRef& ref : e.write_order) fn(ref);
}

template <typename Fn>
void for_each_ref(Evidence& evidence, Fn&& fn) {
  if (auto* inc = std::get_if<Incoherence>(&evidence)) {
    for_each_ref(*inc, std::forward<Fn>(fn));
  }
}

}  // namespace vermem::certify
