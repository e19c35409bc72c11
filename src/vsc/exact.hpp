#pragma once
// Exact Verifying-Sequential-Consistency (VSC) decision procedure
// (Definition 6.1): is there a single schedule of *all* operations, all
// addresses, in which every read returns the immediately preceding write
// to its address?
//
// The VSC policy of the memoized search engine (search/engine.hpp): the
// VMC state extended to one current value per address. Gibbons–Korach
// give the O(n^k k^c) bound for k processes and c addresses; this search
// meets it through memoization. Synchronization operations (Acq/Rel) participate
// in the order but carry no data; under plain SC they are scheduled
// eagerly like reads.

#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "trace/address_index.hpp"
#include "trace/execution.hpp"
#include "vmc/result.hpp"

namespace vermem::vsc {

using vmc::CheckResult;
using vmc::SearchStats;
using vmc::Verdict;

struct ScOptions {
  bool eager_reads = true;       ///< schedule enabled reads/sync ops eagerly
  bool memoize = true;           ///< memoize visited (positions, memory) states
  std::uint64_t max_states = 0;       ///< 0 = unlimited (fresh states)
  std::uint64_t max_transitions = 0;  ///< 0 = unlimited (bounds re-visits too)
  Deadline deadline = Deadline::never();
  /// External cooperative cancellation; checked alongside the deadline.
  const CancellationToken* cancel = nullptr;
};

/// Decides VSC exactly. kCoherent here means "a sequentially consistent
/// schedule exists"; the witness is that schedule. Builds a one-pass
/// AddressIndex for the dense address numbering; callers that already
/// hold one should pass it to the second overload.
[[nodiscard]] CheckResult check_sc_exact(const Execution& exec,
                                         const ScOptions& options = {});
[[nodiscard]] CheckResult check_sc_exact(const AddressIndex& index,
                                         const ScOptions& options = {});

}  // namespace vermem::vsc
