#pragma once
// The one effort budget every exact decision procedure takes: the VMC
// frontier search, the VSC search, the TSO/PSO model checkers, the
// constant-process BFS and the router's exact tier all run under a
// Limits value, which search::Budget (search/engine.hpp) enforces.

#include <cstdint>

#include "support/cancellation.hpp"
#include "support/stopwatch.hpp"

namespace vermem::search {

struct Limits {
  std::uint64_t max_states = 0;  ///< 0 = unlimited (fresh states)
  /// 0 = unlimited. Unlike max_states this also counts re-visits of
  /// memoized states, so it is the robust budget for adversarial inputs.
  std::uint64_t max_transitions = 0;
  Deadline deadline = Deadline::never();
  /// External cooperative cancellation, polled alongside the deadline.
  /// Not owned.
  const CancellationToken* cancel = nullptr;

  /// True once the deadline has expired or the token was cancelled.
  [[nodiscard]] bool interrupted() const noexcept {
    return deadline.expired() || (cancel != nullptr && cancel->cancelled());
  }
};

}  // namespace vermem::search
