#pragma once
// Polynomial-time special cases of VMC (Section 5 / Figure 5.3).
//
// Each checker first tests that its structural precondition holds and
// returns kUnknown("not applicable: ...") when it does not, so callers can
// build a dispatch cascade (try the cheap checkers, fall back to
// check_exact). All kCoherent verdicts carry witness schedules.

#include "trace/address_index.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"

namespace vermem::vmc {

/// Figure 5.3 row "1 Operation/Process", simple reads/writes.
/// Precondition: every history has at most one operation, none RMW.
/// The paper lists O(n lg n); the hash-grouping implementation here runs
/// in expected O(n). With no program-order constraints the question
/// collapses to: every read's value is the initial value or some written
/// value, and the final value (when recorded) is writable last.
[[nodiscard]] CheckResult check_one_op_per_process(const VmcInstance& instance);

/// Figure 5.3 row "1 Operation/Process", read-modify-write column.
/// Precondition: every history has at most one operation, all RMW.
/// A coherent schedule is exactly an Eulerian trail from the initial
/// value in the multigraph whose edges are (value-read -> value-written);
/// built with Hierholzer's algorithm. The paper lists O(n^2); this
/// implementation is O(n). The trail must end at the final value when one
/// is recorded.
[[nodiscard]] CheckResult check_rmw_one_op_per_process(const VmcInstance& instance);

/// Figure 5.3 row "1 Write/Value (Read-map)", simple reads/writes, O(n).
/// Precondition: no RMW operations, every value written at most once, and
/// no write stores the initial value (otherwise the read-map would be
/// ambiguous and the row's premise — a known read-map — fails).
/// Algorithm: group each write with the reads of its value into a
/// cluster; a coherent schedule exists iff the cluster precedence graph
/// induced by program order is acyclic, the initial-value cluster can go
/// first, and the final-value cluster (when constrained) can go last.
///
/// The view overload is the decider; it reads each operation's value
/// through `values` (a ValueTable of the same view) instead of hashing
/// values, and its witness and evidence use the view's projected
/// coordinates. The instance overload runs it over a one-address view of
/// the instance and answers in instance coordinates.
[[nodiscard]] CheckResult check_read_map(const ProjectedView& view,
                                         const ValueTable& values);
[[nodiscard]] CheckResult check_read_map(const VmcInstance& instance);

/// Figure 5.3 row "1 Write/Value (Read-map)", read-modify-write column.
/// Precondition: all RMW, every value written at most once, no write of
/// the initial value. The unique-writes condition forces the entire
/// schedule (each RMW consumes one value), so checking is a single chain
/// walk plus a program-order verification; O(n) here (paper: O(n lg n)).
[[nodiscard]] CheckResult check_rmw_read_map(const VmcInstance& instance);

}  // namespace vermem::vmc
