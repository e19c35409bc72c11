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

#include "search/limits.hpp"
#include "trace/address_index.hpp"
#include "trace/execution.hpp"
#include "vmc/result.hpp"

namespace vermem::vsc {

using vmc::CheckResult;
using vmc::SearchStats;
using vmc::Verdict;

/// Decides VSC exactly. kCoherent here means "a sequentially consistent
/// schedule exists"; the witness is that schedule. Builds a one-pass
/// AddressIndex for the dense address numbering; callers that already
/// hold one should pass it to the second overload. The search memoizes
/// visited (positions, memory) states and schedules enabled reads and
/// sync ops eagerly.
[[nodiscard]] CheckResult check_sc_exact(const Execution& exec,
                                         const search::Limits& limits = {});
[[nodiscard]] CheckResult check_sc_exact(const AddressIndex& index,
                                         const search::Limits& limits = {});

}  // namespace vermem::vsc
