#include "vmc/online.hpp"

#include <algorithm>

namespace vermem::vmc {

// ---------------------------------------------------------------------------
// OnlineAddress

void OnlineAddress::reset(std::uint32_t num_processes, Value initial) {
  window_.clear();
  head_ = 0;
  base_ = 0;
  initial_ = initial;
  last_value_ = initial;
  count_ = 0;
  peak_ = 0;
  anchor_.assign(num_processes, 0);
}

void OnlineAddress::garbage_collect() {
  std::uint64_t min_anchor = count_;
  for (const std::uint64_t a : anchor_) min_anchor = std::min(min_anchor, a);
  // Retain positions >= min_anchor (plus min_anchor itself when it is a
  // real write).
  if (base_ + 1 < min_anchor) {
    head_ += static_cast<std::size_t>(min_anchor - 1 - base_);
    base_ = min_anchor - 1;
  }
  // Drop the discarded prefix once it is at least half the storage, so
  // each retained value is moved O(1) times amortized.
  if (head_ == window_.size()) {
    window_.clear();
    head_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::optional<OnlineViolationKind> OnlineAddress::observe(std::uint32_t process,
                                                          const Operation& op) {
  std::uint64_t& anchor = anchor_[process];
  if (op.kind == OpKind::kRead) {
    if (value_at(anchor) == op.value_read) return std::nullopt;
    for (std::uint64_t pos = anchor + 1; pos <= count_; ++pos) {
      if (value_at(pos) == op.value_read) {
        anchor = pos;
        return std::nullopt;
      }
    }
    return OnlineViolationKind::kReadNotReachable;
  }
  // Writing operation (W or RMW).
  if (op.kind == OpKind::kRmw && op.value_read != last_value_)
    return OnlineViolationKind::kRmwMismatch;
  window_.push_back(op.value_written);
  ++count_;
  last_value_ = op.value_written;
  anchor = count_;
  peak_ = std::max(peak_, retained());
  garbage_collect();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// OnlineCoherenceChecker

OnlineCoherenceChecker::OnlineCoherenceChecker(
    std::uint32_t num_processes, std::unordered_map<Addr, Value> initial_values)
    : num_processes_(num_processes), initials_(std::move(initial_values)) {}

OnlineAddress& OnlineCoherenceChecker::state_of(Addr addr) {
  auto [it, fresh] = states_.try_emplace(addr);
  if (fresh) {
    const auto initial = initials_.find(addr);
    it->second.reset(num_processes_,
                     initial == initials_.end() ? Value{0} : initial->second);
  }
  return it->second;
}

void OnlineCoherenceChecker::fail(std::uint32_t process, const Operation& op,
                                  std::string reason, OnlineViolationKind kind,
                                  Value last_value) {
  violation_ = OnlineViolation{stats_.events - 1, process,      op,
                               std::move(reason), kind, last_value};
}

bool OnlineCoherenceChecker::observe(std::uint32_t process, const Operation& op) {
  if (violation_) return false;
  ++stats_.events;
  if (op.is_sync()) return true;
  if (process >= num_processes_) {
    fail(process, op, "event from unregistered process",
         OnlineViolationKind::kUnregisteredProcess);
    return false;
  }
  OnlineAddress& s = state_of(op.addr);
  const bool writes = op.writes_memory();
  ++(writes ? stats_.writes : stats_.reads);
  const std::size_t before = s.retained();
  if (const auto kind = s.observe(process, op)) {
    if (*kind == OnlineViolationKind::kRmwMismatch)
      fail(process, op,
           "RMW reads " + std::to_string(op.value_read) +
               " but the serialization's last write stored " +
               std::to_string(s.last_value()),
           *kind, s.last_value());
    else
      fail(process, op,
           "no write of value " + std::to_string(op.value_read) +
               " is reachable from this process's anchor",
           *kind);
    return false;
  }
  if (writes) {
    // The write entered the window before its collection ran: the high
    // water counts it, then the collected prefix leaves.
    ++stats_.retained_entries;
    stats_.max_retained_entries =
        std::max(stats_.max_retained_entries, stats_.retained_entries);
    const std::size_t discarded = before + 1 - s.retained();
    stats_.discarded_entries += discarded;
    stats_.retained_entries -= discarded;
  }
  return true;
}

bool OnlineCoherenceChecker::finish(
    const std::unordered_map<Addr, Value>& final_values) {
  if (violation_) return false;
  for (const auto& [addr, fin] : final_values) {
    const auto it = states_.find(addr);
    const Value last = it == states_.end()
                           ? (initials_.contains(addr) ? initials_[addr] : 0)
                           : it->second.last_value();
    if (last != fin) {
      ++stats_.events;
      fail(0, W(addr, fin),
           "final value mismatch on address " + std::to_string(addr) +
               ": serialization ends at " + std::to_string(last),
           OnlineViolationKind::kFinalMismatch, last);
      return false;
    }
  }
  return true;
}

}  // namespace vermem::vmc
