#pragma once
// Exact VMC decision procedure: depth-first search over schedule
// prefixes, memoizing visited search states.
//
// A search state is (position of each history, current value of the
// location). Two schedule prefixes that reach the same state are
// interchangeable, so each state is explored once. With k histories of
// length O(n/k) this bounds the search at O(n^k * |D|) states — the
// paper's polynomial algorithm for constant k (Figure 5.3, "Constant
// Processes" row) — while for unrestricted k it is the inevitable
// exponential-time exact checker (VMC is NP-complete, Theorem 4.2).
//
// Soundness hook: every kCoherent result carries a witness schedule that
// callers can (and our tests always do) re-validate with
// check_coherent_schedule().

#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"

namespace vermem::vmc {

/// Must-precede pruning oracle: per writing operation, the set of
/// operations that must already be scheduled before it may run. Edges
/// come from the coherence-order saturation pass (analysis/saturate);
/// each is *necessary* in any coherent schedule, so skipping a branch
/// that violates one cuts only witness-free subtrees — the search
/// explores the surviving branches in the same order and returns a
/// bit-identical verdict and witness, independent of budgets or
/// cancellation. Only direct edges are needed: by induction along any
/// path, a schedule respecting every direct edge respects the closure.
struct MustPrecede {
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  /// spans[p][i]: predecessors of operation (p, i), instance coordinates.
  std::vector<std::vector<Span>> spans;
  std::vector<OpRef> preds;  ///< flat predecessor storage

  [[nodiscard]] bool empty() const noexcept { return preds.empty(); }

  /// True iff every predecessor of (p, i) is already scheduled (its
  /// history position is past the predecessor's index).
  [[nodiscard]] bool satisfied(const std::uint32_t* positions, std::uint32_t p,
                               std::uint32_t i) const noexcept {
    if (p >= spans.size() || i >= spans[p].size()) return true;
    const Span s = spans[p][i];
    for (std::uint32_t e = s.offset; e != s.offset + s.count; ++e) {
      const OpRef pred = preds[e];
      if (positions[pred.process] <= pred.index) return false;
    }
    return true;
  }

  /// Registers edge before -> after (instance coordinates). Call
  /// `finalize()` once after adding every edge.
  void add_edge(OpRef before, OpRef after) { staged_.emplace_back(before, after); }

  /// Builds the span table for an instance with the given history sizes.
  void finalize(const std::vector<std::uint32_t>& history_sizes) {
    spans.assign(history_sizes.size(), {});
    for (std::size_t p = 0; p < history_sizes.size(); ++p)
      spans[p].assign(history_sizes[p], Span{});
    for (const auto& [before, after] : staged_) {
      if (after.process >= spans.size() ||
          after.index >= spans[after.process].size())
        continue;
      ++spans[after.process][after.index].count;
    }
    std::uint32_t offset = 0;
    for (auto& row : spans)
      for (Span& s : row) {
        s.offset = offset;
        offset += s.count;
        s.count = 0;
      }
    preds.assign(offset, OpRef{});
    for (const auto& [before, after] : staged_) {
      if (after.process >= spans.size() ||
          after.index >= spans[after.process].size())
        continue;
      Span& s = spans[after.process][after.index];
      preds[s.offset + s.count] = before;
      ++s.count;
    }
    staged_.clear();
  }

 private:
  std::vector<std::pair<OpRef, OpRef>> staged_;
};

struct ExactOptions {
  /// Schedule enabled pure reads eagerly without branching. Reads do not
  /// change the search state, so this is sound and complete; it prunes the
  /// branching factor to writing operations only. Disable only for the
  /// ablation bench.
  bool eager_reads = true;

  /// Memoize visited states. Disable only for the ablation bench;
  /// without memoization the search revisits states exponentially often.
  bool memoize = true;

  /// Abort with kUnknown after visiting this many states (0 = unlimited).
  std::uint64_t max_states = 0;

  /// Abort with kUnknown after this many transitions (0 = unlimited).
  /// Unlike max_states this also bounds re-visits of memoized states, so
  /// it is the robust budget for adversarial instances.
  std::uint64_t max_transitions = 0;

  /// Cooperative wall-clock budget.
  Deadline deadline = Deadline::never();

  /// External cooperative cancellation (e.g. a service request being
  /// withdrawn or its batch shutting down). Checked at the same cadence
  /// as the deadline; a cancelled search returns kUnknown. Not owned.
  const CancellationToken* cancel = nullptr;

  /// Optional must-precede pruning oracle (see MustPrecede). Not owned;
  /// nullptr disables oracle pruning and leaves the hot path untouched.
  const MustPrecede* pruner = nullptr;
};

/// Decides VMC exactly. kCoherent results include a witness schedule.
[[nodiscard]] CheckResult check_exact(const VmcInstance& instance,
                                      const ExactOptions& options = {});

}  // namespace vermem::vmc
