#pragma once
// Frozen pre-arena reference implementation of the exact VSC search —
// the same role vmc/exact_legacy.hpp plays for the coherence search: a
// fixed differential oracle (identical verdicts and SearchStats) and the
// "old" side of bench_exact_hotpath. Do not optimize.

#include "vsc/exact.hpp"

namespace vermem::vsc {

/// Same contract, search order, and stats semantics as check_sc_exact,
/// minus the arena accounting (arena_* stats are always zero here).
[[nodiscard]] CheckResult check_sc_exact_legacy(
    const Execution& exec, const search::Limits& limits = {});
[[nodiscard]] CheckResult check_sc_exact_legacy(
    const AddressIndex& index, const search::Limits& limits = {});

}  // namespace vermem::vsc
