#pragma once
// Coherence-order saturation (ISSUE 8 tentpole; Roy et al. style
// constraint closure, PAPERS.md).
//
// For one address, build a constraint graph whose nodes are the writing
// operations and whose directed edges mean "must precede in every
// coherent write serialization". Edges are seeded from program order,
// the recorded final value, and read-mapped value flow, then closed to
// fixpoint with two rules:
//
//   R1 (unique-source pin): if a read r has exactly one remaining
//      candidate write s, then in any coherent schedule r observes s,
//      which forces xm -> s (xm = last write program-order-before r),
//      s -> n (n = first write program-order-after r) and, for the
//      write half o of an RMW, s -> o.
//   R2 (candidate pruning): a candidate w is impossible for r if
//      w ->* xm with w != xm (w is strictly overwritten before r), or
//      n ->* w (w lands after r). Reachability is read off descendant
//      rows: one bit row of ceil(W/64) words per write node (W = the
//      address's write count), rebuilt from the direct edges on the
//      first query after an edge was added, so every query sees the
//      exact closure and costs one bit test per candidate. Row storage
//      and rebuild passes are charged to a budget; an address too large
//      for rows skips R2, which loses completeness only.
//
// Every emitted edge is *necessary* — implied by the trace alone — so
// the derivation is sound regardless of how early it stops
// (budget/round caps only lose completeness, never soundness).
//
// Outcomes: a cycle refutes the address; a forced total order reduces
// the decision to one Section 5.2 re-run; a partial order exports
// must-edges as a pruning oracle for the exact search and as unit
// clauses for the SAT encoding. Trace-level dead ends found while
// building candidates surface as typed Contradictions matching the
// existing certify kinds.
//
// This library depends on trace/ (and support/'s header-only arena and
// flat set) only: both the analysis router (which
// wraps outcomes into certify::Evidence) and the certificate checker
// (which re-derives the graph independently) link it without creating
// a layering cycle.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "trace/address_index.hpp"
#include "trace/operation.hpp"

namespace vermem::saturate {

enum class Status : std::uint8_t {
  kCycle,          ///< must-precede cycle: the address is incoherent
  kForcedTotal,    ///< a unique total write order remains; §5.2 decides
  kPartial,        ///< a genuine partial order: export edges, fall through
  kContradiction,  ///< a read/final dead end was found while seeding
};

[[nodiscard]] constexpr const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kCycle: return "cycle";
    case Status::kForcedTotal: return "forced";
    case Status::kPartial: return "partial";
    case Status::kContradiction: return "contradiction";
  }
  return "?";
}

/// Trace-level dead end; kinds mirror the certify evidence factories
/// the router wraps them into.
enum class ContradictionKind : std::uint8_t {
  kUnwrittenRead,     ///< read value never written (and not initial)
  kReadBeforeWrite,   ///< unique write of the value follows the read in po
  kStaleInitialRead,  ///< initial-value read after a same-process write
  kUnwritableFinal,   ///< recorded final value has no producing write
};

struct Contradiction {
  ContradictionKind kind = ContradictionKind::kUnwrittenRead;
  OpRef read{};   ///< the offending read (unused for kUnwritableFinal)
  OpRef other{};  ///< the conflicting write (kReadBeforeWrite: the later
                  ///< unique write; kStaleInitialRead: the earlier write)
  Value value = 0;  ///< the read value / recorded final value
};

struct Result {
  Status status = Status::kPartial;

  /// Node table: the address's writing operations sorted by
  /// (history, position). `writes[i]` is node i in original-execution
  /// coordinates; `writes_local[i]` is the same node as
  /// {process = projected history, index = position within history} —
  /// the coordinate system of ProjectedView::materialize().
  std::vector<OpRef> writes;
  std::vector<OpRef> writes_local;

  /// Direct must-precede edges (deduplicated, node ids).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  std::vector<std::uint32_t> cycle;   ///< node cycle w0 -> .. -> w0 (kCycle)
  std::vector<std::uint32_t> forced;  ///< unique topological order (kForcedTotal)
  std::optional<Contradiction> contradiction;  ///< set for kContradiction

  // Derivation stats.
  std::uint32_t rounds = 0;          ///< fixpoint rounds executed
  std::uint64_t reach_queries = 0;   ///< R2 queries (one per anchor xm / n)
  std::uint64_t branch_points = 0;   ///< Kahn steps with >= 2 ready writes
  std::uint32_t max_concurrent = 0;  ///< peak simultaneously-ready writes
  /// A concrete unordered concurrent pair (valid when branch_points > 0).
  std::pair<std::uint32_t, std::uint32_t> unordered_example{0, 0};
  bool budget_hit = false;        ///< R2 row budget or round cap exhausted
  bool pruned_empty_read = false; ///< R2 left some read with no source —
                                  ///< the address is incoherent but only
                                  ///< search/§5.2 can certify it

  [[nodiscard]] std::size_t num_writes() const noexcept { return writes.size(); }
};

/// Saturates the constraint graph of one projected address. Pure
/// function of the trace: no logs, no metrics, no global state — the
/// certificate checker calls it to re-derive evidence independently.
[[nodiscard]] Result saturate(const ProjectedView& view);

/// True only when saturate(view) would return kPartial with program-order
/// edges alone, which prune nothing the exact search does not already
/// obey; O(n) over a ValueTable of the view (docs/ALGORITHMS.md §13).
/// It holds when (a) at least two histories write, (b) no final value is
/// recorded or the recorded one has two or more writers, and (c) every
/// read of v in history h has t >= 2 candidates, or t = 1 whose single
/// candidate is xm (the last write of h before the read) or the initial
/// value, where t = (writes of v in other histories) + [xm writes v] +
/// [no xm and v = initial] is its candidate count after R2.
[[nodiscard]] bool inert(const ProjectedView& view, const ValueTable& values);
[[nodiscard]] bool inert(const ProjectedView& view);

/// True iff edge (a, b) is derivable from `result`'s direct edges by
/// transitivity (DFS over the direct graph; used by the checker).
[[nodiscard]] bool reaches(const Result& result, std::uint32_t a, std::uint32_t b);

}  // namespace vermem::saturate
