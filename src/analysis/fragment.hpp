#pragma once
// Fragment classification: the static half of the Figure 5.3 cascade.
//
// VMC is NP-complete in general (Theorem 4.2), but the paper's payoff
// table (Figure 5.3) lists several structural restrictions under which it
// is polynomial: one operation per process, a constant number of
// processes, every value written at most once, the write-order supplied
// by the memory system, and the all-RMW columns of each row. The
// classifier here computes, in one linear scan over a ProjectedView's
// arena refs (no materialization, no rescans), which lattice point a
// per-address instance occupies, so the router can dispatch it straight
// to a dedicated polynomial decider instead of the exact frontier
// search. The same scan gathers the value-usage statistics the lint
// rules (analysis/lint.hpp) report on, and over the same value table
// tells the router when the saturation tier would derive nothing.

#include <cstdint>
#include <string>

#include "trace/address_index.hpp"

namespace vermem::analysis {

/// One point of the Figure 5.3 fragment lattice, ordered roughly from
/// cheapest decision procedure to the general NP-hard case. A fragment
/// names the *routing bucket*: the most specific restriction the
/// instance satisfies among those we have a dedicated decider for.
enum class Fragment : std::uint8_t {
  kEmpty,            ///< no operations on the address; vacuously coherent
  kOneOp,            ///< <=1 op/process, simple reads/writes — O(n)
  kOneOpRmw,         ///< <=1 op/process, all RMW (Eulerian trail) — O(n)
  kWriteOnce,        ///< every value written once, read-map known — O(n)
  kWriteOnceRmw,     ///< all RMW, unique writes (forced chain) — O(n)
  kWriteOrder,       ///< write-order supplied (Section 5.2) — O(n^2)/O(n)
  kRmwChain,         ///< all RMW, duplicate values; forced-chain fast path
  kBoundedProcesses, ///< <=k processes: memoized search is O(n^k |D|)
  kGeneral,          ///< no exploitable structure; exact NP-hard path
};

inline constexpr std::size_t kNumFragments =
    static_cast<std::size_t>(Fragment::kGeneral) + 1;

/// Process-count threshold below which the memoized exact search is the
/// paper's own polynomial algorithm (Figure 5.3 "Constant Processes"
/// row, O(n^k |D|)); instances at or under it classify kBoundedProcesses
/// rather than kGeneral.
inline constexpr std::uint32_t kBoundedProcessLimit = 3;

[[nodiscard]] constexpr const char* to_string(Fragment f) noexcept {
  switch (f) {
    case Fragment::kEmpty: return "empty";
    case Fragment::kOneOp: return "one-op-per-process";
    case Fragment::kOneOpRmw: return "one-op-per-process-rmw";
    case Fragment::kWriteOnce: return "write-once";
    case Fragment::kWriteOnceRmw: return "write-once-rmw";
    case Fragment::kWriteOrder: return "write-order";
    case Fragment::kRmwChain: return "rmw-chain";
    case Fragment::kBoundedProcesses: return "bounded-processes";
    case Fragment::kGeneral: return "general";
  }
  return "?";
}

/// The complexity bound Figure 5.3 lists for the fragment's decider (the
/// bound of the routed procedure, not necessarily the paper's looser
/// published one — see docs/ANALYSIS.md for the mapping).
[[nodiscard]] constexpr const char* complexity_bound(Fragment f) noexcept {
  switch (f) {
    case Fragment::kEmpty: return "O(1)";
    case Fragment::kOneOp: return "O(n)";
    case Fragment::kOneOpRmw: return "O(n)";
    case Fragment::kWriteOnce: return "O(n)";
    case Fragment::kWriteOnceRmw: return "O(n)";
    case Fragment::kWriteOrder: return "O(n^2)";
    case Fragment::kRmwChain: return "O(n)";
    case Fragment::kBoundedProcesses: return "O(n^k |D|)";
    case Fragment::kGeneral: return "NP-hard";
  }
  return "?";
}

/// True when the fragment routes to a dedicated polynomial decider (as
/// opposed to the exact frontier search).
[[nodiscard]] constexpr bool is_polynomial(Fragment f) noexcept {
  return f != Fragment::kBoundedProcesses && f != Fragment::kGeneral;
}

/// Structural profile of one per-address instance, computed in a single
/// scan of the ProjectedView. Everything the router and the lint rules
/// need; nothing is rescanned downstream.
struct FragmentProfile {
  Addr addr = 0;
  Fragment fragment = Fragment::kGeneral;

  std::uint32_t num_ops = 0;
  std::uint32_t num_reads = 0;        ///< pure reads (R)
  std::uint32_t num_writes = 0;       ///< writing ops (W or RMW)
  std::uint32_t num_rmws = 0;
  std::uint32_t num_histories = 0;
  std::uint32_t max_ops_per_history = 0;
  std::uint32_t max_writes_per_value = 0;
  /// Distinct values written three or more times: each voids the <=2
  /// writes/value cap of the 3SAT-restricted reduction (Figure 5.1) and
  /// fires lint rule W001.
  std::uint32_t values_written_thrice = 0;
  /// Distinct written values never observed by any read on the address
  /// and not the recorded final value (lint rule W002).
  std::uint32_t unread_values = 0;
  /// Adjacent R(a,_) ; W(a,_) pairs inside one history (lint rule W003).
  std::uint32_t rmw_candidate_pairs = 0;
  bool rmw_only = false;
  /// Some write stores the initial value, making the read-map ambiguous
  /// (disqualifies the write-once fragment).
  bool writes_initial_value = false;
  /// Every value written at most once and no write of the initial value.
  bool write_once = false;
  /// An external write-order log covers this address.
  bool has_write_order = false;
  /// saturate::inert(view): the saturation pass would derive program-order
  /// edges only, so the router skips it. Computed for the fragments that
  /// route to saturation (kBoundedProcesses, kGeneral); false otherwise.
  bool saturation_inert = false;

  /// Human-readable one-liner used by the I001 diagnostic.
  [[nodiscard]] std::string summary() const;
};

/// Classifies one per-address projection. `has_write_order` says whether
/// the caller holds a Section 5.2 write-order log for this address (the
/// log's *validity* is checked separately; see lint rule W004).
[[nodiscard]] FragmentProfile classify(const ProjectedView& view,
                                       bool has_write_order = false);
/// Same, over a ValueTable of the view the caller already holds (the
/// router builds one per address and hands it on to the exact tier).
[[nodiscard]] FragmentProfile classify(const ProjectedView& view,
                                       const ValueTable& values,
                                       bool has_write_order = false);

}  // namespace vermem::analysis
