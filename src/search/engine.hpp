#pragma once
// The one memoized frontier search behind every exact checker: VMC on one
// address (vmc/exact.cpp), VSC over all addresses (vsc/exact.cpp), and
// the TSO/PSO store-buffer models (models/checker.cpp).
//
// A state is a packed fixed-stride key of uint32 words that policies read
// and write in place, so the key memoized is the state itself. The engine
// owns the depth-first loop over an SoA frame stack, the memo table
// (Arena + FlatKeySet; a hit counts as a prune), budgets and polling,
// SearchStats and the arena accounting; the storage behind the table and
// the stack is borrowed from the thread's Workspace. A memory model is a
// policy P that supplies:
//   key_words(), start(key)     layout and initial state
//   num_choices()               choices are 0..num_choices()-1, tried in
//                               order, so the policy alone fixes the
//                               exploration sequence
//   next(key, c, stats)         first enabled choice >= c, else
//                               num_choices(); may count oracle prunes
//   apply(key, c, schedule)     takes c; when `schedule` is non-null,
//                               appends any issued operation to it
//   close(key, schedule)        takes every choice that commutes with all
//                               others (a pure read of the current value,
//                               a sync op), unbranched, appending each
//                               issued operation to a non-null `schedule`;
//                               runs after start() and after every apply()
//   status(key)                 open, accepted (a witness) or rejected
//   reject(key), addr()         evidence for a rejected start state and
//                               the address exhaustion is reported on
// The search passes a null schedule: no step records anything. On accept
// the engine replays start(), then each frame's taken choice, with a
// schedule, which yields the witness; apply() and close() must therefore
// be deterministic functions of the key.
// See docs/ALGORITHMS.md §2 and §12.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/limits.hpp"
#include "support/arena.hpp"
#include "support/flat_set.hpp"
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

/// Why a run its deadline or cancel token stopped reports kUnknown (the
/// deadline wins), or nullopt; every engine's rule, check_via_sat's too.
[[nodiscard]] inline std::optional<certify::Unknown> interruption(
    const Limits& limits) {
  if (!limits.interrupted()) return std::nullopt;
  using enum certify::UnknownReason;
  return limits.deadline.expired()
             ? certify::Unknown{kDeadline, "search deadline expired"}
             : certify::Unknown{kCancelled, "search cancelled"};
}

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
    if (auto why = interruption(limits_)) return why;
    if (spent)
      return certify::Unknown{certify::UnknownReason::kBudget,
                              "search budget exhausted"};
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

/// Storage one search borrows: the memo arena, the current key and the
/// frame stack. Each thread keeps one (WorkspaceLease), so back-to-back
/// searches on a thread allocate nothing once it is warm.
struct Workspace {
  /// What an idle workspace keeps: arena extents up to this many bytes,
  /// and each frame-stack vector while its capacity is within it. 64 KiB
  /// holds the first four arena extents (4 + 8 + 16 + 32 KiB), enough for
  /// searches of several hundred states (a contended 4-history address
  /// takes ~116 states and ~12 KiB); one larger search no longer pins its
  /// peak on every thread that ever ran it.
  static constexpr std::size_t kKeepBytes = 64 * 1024;

  Arena arena;
  std::vector<std::uint32_t> key;         ///< the current state
  std::vector<std::uint32_t> frame_keys;  ///< row i belongs to frame i
  std::vector<std::uint32_t> frame_next;  ///< frame i's next choice to try

  /// Back to an idle state within kKeepBytes.
  void trim() noexcept {
    arena.rewind(kKeepBytes);
    for (auto* vec : {&key, &frame_keys, &frame_next}) {
      if (vec->capacity() * sizeof(std::uint32_t) > kKeepBytes)
        std::vector<std::uint32_t>().swap(*vec);
      vec->clear();
    }
  }
};

/// The calling thread's workspace for one search, or a private one when
/// that is already lent further up the stack (a policy that runs a search
/// of its own from inside a search). Trims what it lent on return.
class WorkspaceLease {
 public:
  WorkspaceLease() {
    thread_local Workspace shared;
    thread_local bool lent = false;
    if (lent) {
      ws_ = &private_.emplace();
    } else {
      lent = true;
      lent_ = &lent;
      ws_ = &shared;
    }
  }
  ~WorkspaceLease() {
    ws_->trim();
    if (lent_ != nullptr) *lent_ = false;
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] Workspace& get() const noexcept { return *ws_; }

 private:
  std::optional<Workspace> private_;
  Workspace* ws_;
  bool* lent_ = nullptr;  ///< the thread's flag, when its workspace is lent
};

/// The memoized search for policy P; run() once per engine. Holds the
/// policy and the limits by reference: both must outlive the engine.
template <typename P>
class Engine {
 public:
  Engine(const P& policy, const Limits& limits)
      : policy_(policy), stride_(policy.key_words()),
        choices_(policy.num_choices()), budget_(limits) {}

  CheckResult run() {
    const WorkspaceLease lease;
    Workspace& ws = lease.get();
    ws.key.assign(stride_, 0);
    FlatKeySet visited(ws.arena, stride_);
    ws_ = &ws;
    visited_ = &visited;
    return with_arena(search(), ws.arena);
  }

 private:
  CheckResult search() {
    std::uint32_t* const key = ws_->key.data();
    auto& frame_keys = ws_->frame_keys;
    auto& frame_next = ws_->frame_next;
    policy_.start(key);
    policy_.close(key, nullptr);
    switch (policy_.status(key)) {
      case Status::kAccept: return CheckResult::yes(witness(), stats_);
      case Status::kReject:
        return CheckResult::no(policy_.reject(key), stats_);
      case Status::kOpen: break;
    }
    remember();
    push_frame();

    while (!frame_next.empty()) {
      if (auto why = budget_.stop(stats_))
        return CheckResult::unknown(std::move(*why), stats_);

      const std::size_t top = frame_next.size() - 1;
      const std::uint32_t* row = frame_keys.data() + top * stride_;
      std::copy(row, row + stride_, key);

      const std::uint32_t c = policy_.next(key, frame_next[top], stats_);
      if (c >= choices_) {
        pop_frame();
        continue;
      }
      frame_next[top] = c + 1;
      ++stats_.transitions;

      policy_.apply(key, c, nullptr);
      policy_.close(key, nullptr);
      const Status status = policy_.status(key);
      if (status == Status::kAccept) return CheckResult::yes(witness(), stats_);
      // Rejected or already explored: the loop head restores the frame.
      if (status == Status::kReject || !remember()) continue;
      push_frame();
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, frame_next.size());
    }
    return CheckResult::no(certify::search_exhaustion(policy_.addr(),
                                                      stats_.states_visited,
                                                      stats_.transitions),
                           stats_);
  }

  /// The accepted path's schedule: start() and close(), then the choice
  /// each frame took (its next choice minus one) and close(), replayed
  /// with a schedule. Overwrites the current key.
  Schedule witness() const {
    Schedule schedule;
    std::uint32_t* const key = ws_->key.data();
    policy_.start(key);
    policy_.close(key, &schedule);
    for (const std::uint32_t next : ws_->frame_next) {
      policy_.apply(key, next - 1, &schedule);
      policy_.close(key, &schedule);
    }
    return schedule;
  }

  /// False when the current state was seen before (a prune).
  bool remember() {
    ++stats_.states_visited;
    if (visited_->insert(ws_->key.data()).fresh) return true;
    --stats_.states_visited;
    ++stats_.prunes;
    return false;
  }

  void push_frame() {
    ws_->frame_keys.insert(ws_->frame_keys.end(), ws_->key.begin(),
                           ws_->key.end());
    ws_->frame_next.push_back(0);
  }

  void pop_frame() {
    ws_->frame_keys.resize(ws_->frame_keys.size() - stride_);
    ws_->frame_next.pop_back();
  }

  const P& policy_;
  std::size_t stride_;
  std::uint32_t choices_;
  Budget budget_;
  SearchStats stats_;
  Workspace* ws_ = nullptr;        ///< set by run() for its duration
  FlatKeySet* visited_ = nullptr;  ///< lives in ws_->arena, run() owns it
};

}  // namespace vermem::search
