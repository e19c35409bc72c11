#pragma once
// Process histories and executions (Section 3).
//
// A *process history* is the program-order sequence of memory operations
// one process performed, with observed data. An *execution* is the set of
// all process histories plus the initial (and optionally final) values of
// each location. This is the instance type for both VMC and VSC.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/operation.hpp"

namespace vermem {

/// Identifies an operation inside an Execution: history index + position.
struct OpRef {
  std::uint32_t process = 0;  ///< Index of the process history.
  std::uint32_t index = 0;    ///< Position within that history (program order).

  friend constexpr bool operator==(const OpRef&, const OpRef&) = default;
  friend constexpr auto operator<=>(const OpRef&, const OpRef&) = default;
};

/// One operation with its position in the execution. Per-address runs
/// (AddressIndex, ProjectedView) are arrays of these, and the binary
/// decoder yields them one at a time.
struct OpRecord {
  OpRef ref;
  Operation op;
};

/// One process's program-order operation sequence.
class ProcessHistory {
 public:
  ProcessHistory() = default;
  explicit ProcessHistory(std::vector<Operation> ops) : ops_(std::move(ops)) {}

  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] const Operation& operator[](std::size_t i) const noexcept { return ops_[i]; }
  [[nodiscard]] const std::vector<Operation>& ops() const noexcept { return ops_; }

  void append(const Operation& op) { ops_.push_back(op); }

  [[nodiscard]] auto begin() const noexcept { return ops_.begin(); }
  [[nodiscard]] auto end() const noexcept { return ops_.end(); }

  friend bool operator==(const ProcessHistory&, const ProcessHistory&) = default;

 private:
  std::vector<Operation> ops_;
};

/// A complete multiprocessor execution: all histories plus location state.
///
/// Initial values default to 0 (the paper's d_I); final values are
/// optional — when present, a coherent schedule's last write to the
/// location must produce the final value (or, with no writes, the final
/// value must equal the initial one).
class Execution {
 public:
  Execution() = default;
  explicit Execution(std::vector<ProcessHistory> histories)
      : histories_(std::move(histories)) {}

  [[nodiscard]] std::size_t num_processes() const noexcept { return histories_.size(); }
  [[nodiscard]] const ProcessHistory& history(std::size_t p) const noexcept {
    return histories_[p];
  }
  [[nodiscard]] const std::vector<ProcessHistory>& histories() const noexcept {
    return histories_;
  }
  [[nodiscard]] const Operation& op(OpRef ref) const noexcept {
    return histories_[ref.process][ref.index];
  }

  /// Total number of operations across all histories.
  [[nodiscard]] std::size_t num_operations() const noexcept;

  /// Adds a history and returns its process index.
  std::size_t add_history(ProcessHistory history);

  /// Appends an operation to an existing history.
  void append(std::size_t process, const Operation& op) {
    histories_.at(process).append(op);
  }

  void set_initial_value(Addr a, Value d) { initial_[a] = d; }
  void set_final_value(Addr a, Value d) { final_[a] = d; }

  /// Initial value of a location (0 unless set).
  [[nodiscard]] Value initial_value(Addr a) const noexcept;
  /// Final value constraint, if one was recorded.
  [[nodiscard]] std::optional<Value> final_value(Addr a) const noexcept;

  [[nodiscard]] const std::unordered_map<Addr, Value>& initial_values() const noexcept {
    return initial_;
  }
  [[nodiscard]] const std::unordered_map<Addr, Value>& final_values() const noexcept {
    return final_;
  }

  /// All distinct addresses touched by any operation.
  [[nodiscard]] std::vector<Addr> addresses() const;

  /// Projects the execution onto a single address: each history keeps only
  /// operations on `a` (empty projected histories are dropped). Also maps
  /// initial/final values across. Synchronization ops are dropped.
  [[nodiscard]] struct ExecutionProjection project(Addr a) const;

  friend bool operator==(const Execution&, const Execution&) = default;

 private:
  std::vector<ProcessHistory> histories_;
  std::unordered_map<Addr, Value> initial_;
  std::unordered_map<Addr, Value> final_;
};

/// Result of Execution::project: the single-address execution plus, for
/// each projected operation, its OpRef in the original execution.
struct ExecutionProjection {
  Execution execution;
  std::vector<std::vector<OpRef>> origin;  ///< [proc][index] -> original ref
};

/// Fluent builder used heavily by tests and the reductions:
///   auto e = ExecutionBuilder()
///                .process(W(0,1), R(0,2))
///                .process(W(0,2))
///                .build();
class ExecutionBuilder {
 public:
  template <typename... Ops>
  ExecutionBuilder& process(Ops... ops) {
    exec_.add_history(ProcessHistory{std::vector<Operation>{ops...}});
    return *this;
  }
  ExecutionBuilder& process_ops(std::vector<Operation> ops) {
    exec_.add_history(ProcessHistory{std::move(ops)});
    return *this;
  }
  ExecutionBuilder& initial(Addr a, Value d) {
    exec_.set_initial_value(a, d);
    return *this;
  }
  ExecutionBuilder& final_value(Addr a, Value d) {
    exec_.set_final_value(a, d);
    return *this;
  }
  [[nodiscard]] Execution build() { return std::move(exec_); }

 private:
  Execution exec_;
};

}  // namespace vermem
