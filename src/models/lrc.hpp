#pragma once
// Lazy Release Consistency for lock-wrapped executions (Section 6.2 /
// Figure 6.1).
//
// LRC relaxes coherence itself: ordinary accesses need not appear
// serialized per location. What it guarantees is that modifications are
// propagated at synchronization: critical sections of one lock are
// serialized, and a section observes everything earlier sections (in
// that serialization) produced. The paper's Figure 6.1 exploits exactly
// this: wrap every memory operation of a VMC instance in Acq/Rel of one
// lock, and the wrapped instance is LRC-admissible iff the original
// instance is coherent — so verifying LRC inherits VMC's NP-hardness.
//
// check_lrc_wrapped decides admissibility for the fully-wrapped shape
// (every data operation alone inside an Acq/Rel pair of a single lock —
// the shape the reduction produces, checked structurally first):
// under that shape, an LRC execution is admissible iff each location's
// operations have a coherent schedule, i.e. per-address VMC on the
// stripped execution.

#include "trace/execution.hpp"
#include "vmc/exact.hpp"

namespace vermem::models {

/// Structural test: every non-sync op of every history is immediately
/// bracketed as Acq(lock) op Rel(lock), and no other sync ops appear.
[[nodiscard]] bool is_fully_wrapped(const Execution& exec, Addr lock);

/// Decides LRC admissibility of a fully-wrapped execution (kUnknown when
/// the shape precondition fails). The verdict equals per-address
/// coherence of the stripped execution — the content of the Figure 6.1
/// argument, made executable.
[[nodiscard]] vmc::CheckResult check_lrc_wrapped(
    const Execution& exec, Addr lock,
    const vmc::ExactOptions& options = {});

}  // namespace vermem::models
