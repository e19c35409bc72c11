#pragma once
// Online (streaming) coherence verification — the dynamic-verification
// hardware the paper motivates, built on the Section 5.2 write-order
// algorithm, which is naturally incremental.
//
// The checker consumes a single event stream from the memory system:
//   - writes (W and RMW) arrive in each address's serialization order
//     (e.g. bus order / directory-home order);
//   - each process's events arrive in its program order;
//   - a read arrives after the write whose value it observed (events are
//     reported in an order consistent with real time — no reading the
//     future).
// Under those stream invariants, greedy anchoring is exact (same
// argument as check_with_write_order), so every violation is reported as
// soon as the offending event arrives, and verified prefixes never need
// re-examination.
//
// Memory is bounded: per address the checker retains only the write
// history that some process could still anchor a read before; once every
// registered process has moved past a prefix it is discarded. A hardware
// realization would bound this window physically; here the high-water
// mark is exposed in the stats.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/operation.hpp"

namespace vermem::vmc {

/// What the checker tripped on, as a closed enum so downstream layers
/// (the stream pipeline) can map a violation to typed certify::Evidence
/// without parsing the reason string.
enum class OnlineViolationKind : std::uint8_t {
  kUnregisteredProcess,  ///< event from a process index >= num_processes
  kReadNotReachable,     ///< no write of the read value from this process's anchor
  kRmwMismatch,          ///< RMW read differs from the serialization's last value
  kFinalMismatch,        ///< recorded final value differs from the last write
};

[[nodiscard]] constexpr const char* to_string(OnlineViolationKind k) noexcept {
  switch (k) {
    case OnlineViolationKind::kUnregisteredProcess: return "unregistered-process";
    case OnlineViolationKind::kReadNotReachable: return "read-not-reachable";
    case OnlineViolationKind::kRmwMismatch: return "rmw-mismatch";
    case OnlineViolationKind::kFinalMismatch: return "final-mismatch";
  }
  return "?";
}

struct OnlineViolation {
  std::size_t event_index = 0;  ///< 0-based index of the offending event
  std::uint32_t process = 0;
  Operation op;
  std::string reason;
  OnlineViolationKind kind = OnlineViolationKind::kReadNotReachable;
  /// The serialization's last stored value at the failure point
  /// (meaningful for kRmwMismatch and kFinalMismatch).
  Value last_value = 0;
};

struct OnlineStats {
  std::uint64_t events = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t retained_entries = 0;      ///< current total window size
  std::uint64_t max_retained_entries = 0;  ///< high-water mark
  std::uint64_t discarded_entries = 0;     ///< GC'd write records
};

/// The online state of one address: the retained suffix of its write
/// serialization and each process's anchor in it. OnlineCoherenceChecker
/// keeps one per address it has seen; the stream pipeline's ordered-mode
/// shards keep one per address slot and reset it between traces, so a
/// reused slot keeps its storage.
class OnlineAddress {
 public:
  /// Starts the address over: no writes yet, the serialization at
  /// `initial`, and `num_processes` anchors before every write.
  void reset(std::uint32_t num_processes, Value initial);

  /// Feeds one read, write or RMW on this address by `process`, which
  /// must be below the reset's process count. Returns the violation it
  /// commits, if any; a rejected operation leaves the state unchanged.
  [[nodiscard]] std::optional<OnlineViolationKind> observe(
      std::uint32_t process, const Operation& op);

  /// The value after the newest write (the initial value before any).
  [[nodiscard]] Value last_value() const noexcept { return last_value_; }
  /// Writes currently retained, and their high-water mark since reset.
  [[nodiscard]] std::size_t retained() const noexcept {
    return window_.size() - head_;
  }
  [[nodiscard]] std::size_t peak_retained() const noexcept { return peak_; }

 private:
  [[nodiscard]] Value value_at(std::uint64_t pos) const noexcept {
    return pos == 0 ? initial_ : window_[head_ + (pos - 1 - base_)];
  }
  void garbage_collect();

  /// window_[head_ + i] holds the value of serialization position
  /// base_ + 1 + i; the virtual position 0 is the initial value.
  std::vector<Value> window_;
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;
  Value initial_ = 0;
  Value last_value_ = 0;
  std::uint64_t count_ = 0;  ///< total writes seen
  std::size_t peak_ = 0;
  /// Per-process anchor: index+1 of the write the process last anchored
  /// at (0 = before all writes, reading the initial value).
  std::vector<std::uint64_t> anchor_;
};

class OnlineCoherenceChecker {
 public:
  /// `num_processes` fixes the anchor table (GC needs to know every
  /// process that may still read an old write). `initial_values` seeds
  /// location state; unlisted addresses start at 0.
  explicit OnlineCoherenceChecker(
      std::uint32_t num_processes,
      std::unordered_map<Addr, Value> initial_values = {});

  /// Feeds one operation performed by `process`. Returns false once a
  /// violation has been detected (the checker latches; further events
  /// are ignored).
  bool observe(std::uint32_t process, const Operation& op);

  /// Optional end-of-run check against recorded final values.
  bool finish(const std::unordered_map<Addr, Value>& final_values);

  [[nodiscard]] bool ok() const noexcept { return !violation_.has_value(); }
  [[nodiscard]] const std::optional<OnlineViolation>& violation() const noexcept {
    return violation_;
  }
  [[nodiscard]] const OnlineStats& stats() const noexcept { return stats_; }

 private:
  OnlineAddress& state_of(Addr addr);
  void fail(std::uint32_t process, const Operation& op, std::string reason,
            OnlineViolationKind kind, Value last_value = 0);

  std::uint32_t num_processes_;
  std::unordered_map<Addr, Value> initials_;
  std::unordered_map<Addr, OnlineAddress> states_;
  std::optional<OnlineViolation> violation_;
  OnlineStats stats_;
};

}  // namespace vermem::vmc
