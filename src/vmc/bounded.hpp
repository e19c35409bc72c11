#pragma once
// The O(n^k) constant-process algorithm (Figure 5.3, "Constant
// Processes" row) as an explicit breadth-first dynamic program.
//
// This is deliberately an *independent implementation* of the same
// decision problem check_exact solves: it enumerates reachable frontier
// states level by level (one level per scheduled operation) instead of
// depth-first with backtracking. The per-state work and the state bound
// O(n^k * |D|) are identical; what differs is memory behavior (the BFS
// keeps whole levels alive) and code path — which is exactly what makes
// it valuable as a cross-check oracle in the property tests.

#include "search/limits.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"

namespace vermem::vmc {

/// Decides VMC by level-synchronous BFS over frontier states. kCoherent
/// results include a witness schedule reconstructed from parent links.
/// Runs under `limits` like every exact engine: a spent budget, an
/// expired deadline or a cancellation returns kUnknown with
/// search::Budget's reason.
[[nodiscard]] CheckResult check_bounded_k(const VmcInstance& instance,
                                          const search::Limits& limits = {});

}  // namespace vermem::vmc
