#pragma once
// The one memoized frontier search behind every exact checker: VMC on one
// address (vmc/exact.cpp), VSC over all addresses (vsc/exact.cpp), and
// the TSO/PSO store-buffer models (models/checker.cpp).
//
// A state is a packed fixed-stride key of uint32 words that policies read
// and write in place, so the key memoized is the state itself. The engine
// owns the depth-first loop over an SoA frame stack, the memo table
// (Arena + FlatKeySet; a hit counts as a prune), the closure of free
// choices, budgets and polling, SearchStats and the arena accounting. A
// memory model is a policy P that supplies:
//   key_words(), start(key)     layout and initial state
//   num_choices()               choices are 0..num_choices()-1, tried in
//                               order, so the policy alone fixes the
//                               exploration sequence
//   next(key, c, stats)         first enabled choice >= c, else
//                               num_choices(); may count oracle prunes
//   free(key, c)                c is enabled and commutes with every other
//                               choice, so the closure takes it unbranched
//   apply(key, c, schedule)     takes c, appending any issued operation
//   status(key)                 open, accepted (a witness) or rejected
//   reject(key), addr()         evidence for a rejected start state and
//                               the address exhaustion is reported on
// See docs/ALGORITHMS.md §2 and §12.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "trace/execution.hpp"
#include "vmc/result.hpp"

namespace vermem::search {

using vmc::CheckResult;
using vmc::SearchStats;

/// A 64-bit value occupies two key words, low half first.
[[nodiscard]] inline Value load_value(const std::uint32_t* words) noexcept {
  return static_cast<Value>(static_cast<std::uint64_t>(words[0]) |
                            (static_cast<std::uint64_t>(words[1]) << 32));
}
inline void store_value(std::uint32_t* words, Value value) noexcept {
  const auto bits = static_cast<std::uint64_t>(value);
  words[0] = static_cast<std::uint32_t>(bits);
  words[1] = static_cast<std::uint32_t>(bits >> 32);
}

/// Copies a search's arena accounting into its result.
inline CheckResult with_arena(CheckResult result, const Arena& arena) {
  result.stats.arena_reserved = arena.stats().reserved;
  result.stats.arena_high_water = arena.stats().high_water;
  result.stats.arena_allocations = arena.stats().allocations;
  return result;
}

/// The memory words of a multi-address key: every address an operation
/// touches, ascending, then any address that only has a recorded final
/// value (it keeps its initial value), numbered densely, two words each.
/// Each operation's dense id is resolved once, so a policy's hot path
/// never hashes an address.
class DenseMemory {
 public:
  struct Final {
    Addr addr;
    std::size_t id;
    Value value;
  };

  DenseMemory(const Execution& exec, std::span<const Addr> addresses) {
    std::unordered_map<Addr, std::uint32_t> ids;
    const auto slot = [&](Addr addr) {
      const auto [it, fresh] =
          ids.emplace(addr, static_cast<std::uint32_t>(initial_.size()));
      if (fresh) initial_.push_back(exec.initial_value(addr));
      return it->second;
    };
    for (const Addr addr : addresses) slot(addr);
    for (const auto& [addr, fin] : exec.final_values())
      finals_.push_back({addr, slot(addr), fin});
    op_ids_.resize(exec.num_processes());
    for (std::size_t p = 0; p < exec.num_processes(); ++p)
      for (const Operation& op : exec.history(p))
        op_ids_[p].push_back(op.is_sync() ? 0 : ids.at(op.addr));
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(initial_.size());
  }
  /// Dense address of operation i of process p (0 for sync operations).
  [[nodiscard]] std::size_t id(std::uint32_t p, std::uint32_t i) const {
    return op_ids_[p][i];
  }
  void start(std::uint32_t* words) const {
    for (std::size_t a = 0; a < initial_.size(); ++a)
      store_value(words + 2 * a, initial_[a]);
  }
  /// The first recorded final value the memory words do not hold, if any.
  [[nodiscard]] const Final* mismatch(const std::uint32_t* words) const {
    for (const Final& fin : finals_)
      if (load_value(words + 2 * fin.id) != fin.value) return &fin;
    return nullptr;
  }

 private:
  std::vector<Value> initial_;
  std::vector<Final> finals_;  ///< in final_values() iteration order
  std::vector<std::vector<std::uint32_t>> op_ids_;
};

/// Engine knobs; each checker's options map onto these.
struct Limits {
  bool eager = true;    ///< run the closure over free choices
  bool memoize = true;  ///< dedup states through the FlatKeySet
  std::uint64_t max_states = 0;       ///< 0 = unlimited (fresh states)
  std::uint64_t max_transitions = 0;  ///< 0 = unlimited (counts re-visits)
  Deadline deadline = Deadline::never();
  const CancellationToken* cancel = nullptr;  ///< not owned
};

/// State/transition budgets plus deadline and cancel polling. The clock
/// and the token are read on the first call and then every kPollInterval
/// calls, counted here rather than derived from a search counter, so no
/// stretch of calls can skip a poll. A spent budget forces a poll; a
/// fired deadline or cancellation wins over the budget.
class Budget {
 public:
  static constexpr std::uint32_t kPollInterval = 256;

  explicit Budget(const Limits& limits) noexcept : limits_(limits) {}

  /// Why the search must stop now, if it must.
  [[nodiscard]] std::optional<certify::Unknown> stop(const SearchStats& stats) {
    const bool spent = (limits_.max_states != 0 &&
                        stats.states_visited >= limits_.max_states) ||
                       (limits_.max_transitions != 0 &&
                        stats.transitions >= limits_.max_transitions);
    if (!spent && until_poll_-- != 0) return std::nullopt;
    if (!spent) until_poll_ = kPollInterval - 1;
    using enum certify::UnknownReason;
    if (limits_.deadline.expired())
      return certify::Unknown{kDeadline, "search deadline expired"};
    if (limits_.cancel && limits_.cancel->cancelled())
      return certify::Unknown{kCancelled, "search cancelled"};
    if (spent) return certify::Unknown{kBudget, "search budget exhausted"};
    return std::nullopt;
  }

 private:
  const Limits& limits_;
  std::uint32_t until_poll_ = 0;
};

/// What a policy says about a state.
enum class Status : std::uint8_t {
  kOpen,    ///< keep searching from here
  kAccept,  ///< a witness: the schedule so far is the answer
  kReject,  ///< a dead end, not memoized
};

/// The memoized search for policy P; run() once per engine. Holds the
/// policy and the limits by reference: both must outlive the engine.
template <typename P>
class Engine {
 public:
  Engine(const P& policy, const Limits& limits)
      : policy_(policy), limits_(limits), stride_(policy.key_words()),
        choices_(policy.num_choices()), key_(stride_, 0),
        visited_(arena_, stride_), budget_(limits) {}

  CheckResult run() { return with_arena(search(), arena_); }

 private:
  CheckResult search() {
    policy_.start(key_.data());
    close();
    switch (policy_.status(key_.data())) {
      case Status::kAccept: return CheckResult::yes(schedule_, stats_);
      case Status::kReject:
        return CheckResult::no(policy_.reject(key_.data()), stats_);
      case Status::kOpen: break;
    }
    remember();
    push_frame();

    while (!frame_len_.empty()) {
      if (auto why = budget_.stop(stats_))
        return CheckResult::unknown(std::move(*why), stats_);

      const std::size_t top = frame_len_.size() - 1;
      const std::uint32_t* row = frame_keys_.data() + top * stride_;
      std::copy(row, row + stride_, key_.begin());
      schedule_.resize(frame_len_[top]);

      const std::uint32_t c = policy_.next(key_.data(), frame_next_[top], stats_);
      if (c >= choices_) {
        pop_frame();
        continue;
      }
      frame_next_[top] = c + 1;
      ++stats_.transitions;

      policy_.apply(key_.data(), c, schedule_);
      close();
      const Status status = policy_.status(key_.data());
      if (status == Status::kAccept) return CheckResult::yes(schedule_, stats_);
      // Rejected or already explored: the loop head restores the frame.
      if (status == Status::kReject || !remember()) continue;
      push_frame();
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, frame_len_.size());
    }
    return CheckResult::no(certify::search_exhaustion(policy_.addr(),
                                                      stats_.states_visited,
                                                      stats_.transitions),
                           stats_);
  }

  /// Takes free choices until none is left. Sound and complete because a
  /// free choice commutes with every other: any accepted continuation can
  /// be reordered to take it first.
  void close() {
    if (!limits_.eager) return;
    for (bool progressed = true; progressed;) {
      progressed = false;
      for (std::uint32_t c = 0; c < choices_; ++c) {
        while (policy_.free(key_.data(), c)) {
          policy_.apply(key_.data(), c, schedule_);
          progressed = true;
        }
      }
    }
  }

  /// False when the current state was seen before (a prune); always true
  /// with memoization off.
  bool remember() {
    ++stats_.states_visited;
    if (!limits_.memoize || visited_.insert(key_.data()).fresh) return true;
    --stats_.states_visited;
    ++stats_.prunes;
    return false;
  }

  void push_frame() {
    frame_keys_.insert(frame_keys_.end(), key_.begin(), key_.end());
    frame_len_.push_back(schedule_.size());
    frame_next_.push_back(0);
  }

  void pop_frame() {
    frame_keys_.resize(frame_keys_.size() - stride_);
    frame_len_.pop_back();
    frame_next_.pop_back();
  }

  const P& policy_;
  const Limits& limits_;
  std::size_t stride_;
  std::uint32_t choices_;
  std::vector<std::uint32_t> key_;  ///< the current state
  Schedule schedule_;
  // SoA frame stack: row i of frame_keys_ belongs to frame i.
  std::vector<std::uint32_t> frame_keys_;
  std::vector<std::size_t> frame_len_;
  std::vector<std::uint32_t> frame_next_;
  Arena arena_;  ///< owns all visited-key storage for this call
  FlatKeySet visited_;
  Budget budget_;
  SearchStats stats_;
};

}  // namespace vermem::search
