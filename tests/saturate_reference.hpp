#pragma once
// Test-only reference oracle: the coherence-order saturation pass as it
// stood before its reachability moved to descendant bit rows — hash-set
// edge dedup, value buckets in a hash map, a Tarjan SCC condensation
// rebuilt per R2 query batch, a budgeted DFS per query, and an ordered
// std::set for Kahn's ready set. Kept verbatim (namespace aside) so
// SaturateReference.MatchesParent can compare every Result field of the
// production pass against it; see saturate/core.hpp for the rules.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "trace/address_index.hpp"
#include "trace/operation.hpp"

namespace vermem::saturate_reference {

struct Options {
  /// Fixpoint round cap; each round is one pass over unresolved reads.
  std::uint32_t max_rounds = 32;
  /// Total node-visit budget across all R2 reachability DFS walks.
  std::uint64_t reach_budget = 1u << 22;
  /// Reads with more initial candidates than this are left unpinned
  /// (they are effectively unconstrained and tracking them costs
  /// O(reads * writes) memory in contended traces).
  std::uint32_t max_tracked_candidates = 64;
};

enum class Status : std::uint8_t {
  kCycle,          ///< must-precede cycle: the address is incoherent
  kForcedTotal,    ///< a unique total write order remains; §5.2 decides
  kPartial,        ///< a genuine partial order: export edges, fall through
  kContradiction,  ///< a read/final dead end was found while seeding
};

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
  std::uint64_t reach_queries = 0;   ///< R2 DFS walks issued
  std::uint64_t scc_builds = 0;      ///< condensation (re)builds for R2
  /// Components in the last condensation build; < num_writes means a
  /// nontrivial strongly connected cluster was collapsed (a transient
  /// cycle observed mid-round, before the cycle check refuted it).
  std::uint32_t scc_components = 0;
  std::uint64_t branch_points = 0;   ///< Kahn steps with >= 2 ready writes
  std::uint32_t max_concurrent = 0;  ///< peak simultaneously-ready writes
  /// A concrete unordered concurrent pair (valid when branch_points > 0).
  std::pair<std::uint32_t, std::uint32_t> unordered_example{0, 0};
  bool budget_hit = false;        ///< reach_budget or max_rounds exhausted
  bool pruned_empty_read = false; ///< R2 left some read with no source —
                                  ///< the address is incoherent but only
                                  ///< search/§5.2 can certify it

  [[nodiscard]] std::size_t num_writes() const noexcept { return writes.size(); }
};

/// Saturates the constraint graph of one projected address.
[[nodiscard]] Result saturate(const ProjectedView& view, const Options& options = {});

}  // namespace vermem::saturate_reference
