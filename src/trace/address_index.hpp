#pragma once
// Per-address runs of (ref, op) records, and the view onto one run.
//
// Coherence decomposes exactly by location (Section 4): one address's
// instance is its operations, grouped by process in program order. A
// ProjectedView is exactly that — a window onto a run of OpRecords
// sorted by ref, plus the address's initial and final values. It owns
// no operations and borrows no Execution, so any producer of sorted runs
// can build one: AddressIndex lays out every address's run in a single
// linear pass over an Execution (instead of Execution::project's
// O(addresses x total_ops) rescans), and the streaming ingester builds
// views directly over its own arena runs. materialize() rebuilds the
// exact ExecutionProjection that Execution::project() returns, in
// O(ops_on_address).
//
// AddressIndex borrows the Execution it was built from (execution()); it
// must not outlive it, and the Execution must not be mutated while the
// index is in use. A view borrows its run and must not outlive it.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "trace/execution.hpp"

namespace vermem {

/// Structural summary of one address's run. These are exactly the probes
/// the Figure 5.3 cascade dispatches on, so checkers can pick a branch
/// without touching the operations at all.
struct AddressEntry {
  Addr addr = 0;
  std::uint32_t op_count = 0;       ///< non-sync operations on this address
  std::uint32_t write_count = 0;    ///< ops that write (W or RMW)
  std::uint32_t process_count = 0;  ///< distinct histories touching the address
  std::uint32_t offset = 0;         ///< first record in AddressIndex's arena
  bool rmw_only = true;             ///< every op is a read-modify-write

  /// Summarizes a run grouped by process (offset stays 0). The one copy
  /// of the stats rules: AddressIndex and the streaming ingester both
  /// summarize through it.
  [[nodiscard]] static AddressEntry of(Addr addr, std::span<const OpRecord> run);
};

/// Non-owning projection onto one address. Histories are the runs of
/// same-process records; history h of the view corresponds to history h
/// of Execution::project(addr) (empty projected histories are dropped by
/// both).
class ProjectedView {
 public:
  /// `run` holds the address's records sorted by ref (grouped by process,
  /// program order within each group); `entry` is its summary.
  ProjectedView(const AddressEntry& entry, std::span<const OpRecord> run,
                Value initial, std::optional<Value> final_value);

  [[nodiscard]] Addr addr() const noexcept { return entry_.addr; }
  [[nodiscard]] const AddressEntry& stats() const noexcept { return entry_; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t num_histories() const noexcept {
    return history_process_.size();
  }

  /// All records on the address (original coordinates), grouped by process.
  [[nodiscard]] std::span<const OpRecord> records() const noexcept {
    return records_;
  }
  /// Records of projected history h.
  [[nodiscard]] std::span<const OpRecord> history(std::size_t h) const noexcept {
    return records_.subspan(history_begin_[h], history_begin_[h + 1] - history_begin_[h]);
  }
  /// Original process id behind projected history h.
  [[nodiscard]] std::uint32_t history_process(std::size_t h) const noexcept {
    return history_process_[h];
  }
  /// Record at projected coordinates.
  [[nodiscard]] const OpRecord& record(OpRef projected) const noexcept {
    return records_[history_begin_[projected.process] + projected.index];
  }

  [[nodiscard]] Value initial_value() const noexcept { return initial_; }
  [[nodiscard]] std::optional<Value> final_value() const noexcept { return final_; }

  /// Maps an original-execution ref to its projected coordinates, or
  /// nullopt when the ref is not an operation on this address. O(log n_a)
  /// binary search over the sorted run — no hash map needed.
  [[nodiscard]] std::optional<OpRef> projected_of(OpRef original) const;
  /// Maps projected coordinates back to the original execution's.
  [[nodiscard]] OpRef original_of(OpRef projected) const noexcept {
    return record(projected).ref;
  }

  /// Builds the same ExecutionProjection Execution::project(addr) returns
  /// (histories, origin refs, initial/final values), in O(ops_on_address).
  [[nodiscard]] ExecutionProjection materialize() const;

 private:
  AddressEntry entry_;
  std::span<const OpRecord> records_;
  Value initial_;
  std::optional<Value> final_;
  std::vector<std::uint32_t> history_begin_;    // size num_histories + 1
  std::vector<std::uint32_t> history_process_;  // size num_histories
};

/// One O(n) sweep over an Execution; afterwards every per-address
/// question (enumeration, stats, projection) is O(1) or O(ops_on_address).
class AddressIndex {
 public:
  AddressIndex() = default;
  explicit AddressIndex(const Execution& exec);

  /// The execution this index was built over.
  [[nodiscard]] const Execution& execution() const noexcept { return *exec_; }

  /// All distinct non-sync addresses, ascending (same contract as
  /// Execution::addresses()).
  [[nodiscard]] std::span<const Addr> addresses() const noexcept {
    return addresses_;
  }
  [[nodiscard]] std::size_t num_addresses() const noexcept {
    return addresses_.size();
  }

  /// Entry for the i-th address in sorted order.
  [[nodiscard]] const AddressEntry& entry(std::size_t i) const noexcept {
    return entries_[i];
  }
  /// Entry for an address, or nullptr when no operation touches it.
  [[nodiscard]] const AddressEntry* find(Addr a) const;

  /// All records on the entry's address, grouped by process, program
  /// order within each group (hence sorted by ref).
  [[nodiscard]] std::span<const OpRecord> records(const AddressEntry& e) const noexcept {
    return {arena_.data() + e.offset, e.op_count};
  }
  /// Same, by address; empty span when the address is untouched.
  [[nodiscard]] std::span<const OpRecord> records(Addr a) const;

  /// Single-address window; empty (no histories) for an untouched address.
  [[nodiscard]] ProjectedView view(Addr a) const;
  /// View of the i-th address in sorted order.
  [[nodiscard]] ProjectedView view_at(std::size_t i) const;

 private:
  [[nodiscard]] ProjectedView make_view(const AddressEntry& e) const;

  const Execution* exec_ = nullptr;
  std::vector<Addr> addresses_;        // sorted ascending
  std::vector<AddressEntry> entries_;  // parallel to addresses_
  std::vector<OpRecord> arena_;        // all records, contiguous per address
  std::unordered_map<Addr, std::uint32_t> slot_of_;
};

}  // namespace vermem
