#include "vmc/exact_legacy.hpp"

#include <unordered_set>
#include <vector>

#include "support/hash.hpp"

namespace vermem::vmc {

namespace {

/// Packed search state: one position per history, then the current value
/// split into two 32-bit halves.
using StateKey = std::vector<std::uint32_t>;

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const noexcept {
    return static_cast<std::size_t>(hash_span<std::uint32_t>(key));
  }
};

class LegacyExactSearch {
 public:
  LegacyExactSearch(const VmcInstance& instance, const ExactOptions& options)
      : instance_(instance),
        options_(options),
        k_(instance.num_histories()),
        positions_(k_, 0) {}

  CheckResult run() {
    if (const auto why = instance_.malformed())
      return CheckResult::unknown(certify::UnknownReason::kMalformed, *why);

    value_ = instance_.initial_value();
    close_reads();
    if (complete()) {
      return final_ok() ? CheckResult::yes(schedule_, stats_)
                        : CheckResult::no(
                              certify::unwritable_final(
                                  instance_.addr, *instance_.final_value()),
                              stats_);
    }
    remember_current();

    struct Frame {
      std::vector<std::uint32_t> positions;
      Value value;
      std::size_t base_len;
      std::uint32_t next_choice;
    };
    std::vector<Frame> stack;
    stack.push_back({positions_, value_, schedule_.size(), 0});

    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (budget_exhausted()) {
        if (options_.deadline.expired())
          return CheckResult::unknown(certify::UnknownReason::kDeadline,
                                      "search deadline expired", stats_);
        if (options_.cancel && options_.cancel->cancelled())
          return CheckResult::unknown(certify::UnknownReason::kCancelled,
                                      "search cancelled", stats_);
        return CheckResult::unknown(certify::UnknownReason::kBudget,
                                    "search budget exhausted", stats_);
      }

      positions_ = frame.positions;
      value_ = frame.value;
      schedule_.resize(frame.base_len);

      std::uint32_t p = frame.next_choice;
      for (; p < k_; ++p) {
        const auto& history = instance_.execution.history(p);
        if (positions_[p] >= history.size()) continue;
        const Operation& op = history[positions_[p]];
        if (!op.writes_memory()) continue;
        if (op.reads_memory() && op.value_read != value_) continue;
        break;
      }
      if (p == k_) {
        stack.pop_back();
        continue;
      }
      frame.next_choice = p + 1;
      ++stats_.transitions;

      apply(p);
      close_reads();

      if (complete()) {
        if (final_ok()) return CheckResult::yes(schedule_, stats_);
        continue;
      }
      if (!remember_current()) continue;
      stack.push_back({positions_, value_, schedule_.size(), 0});
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, stack.size());
    }
    return CheckResult::no(
        certify::search_exhaustion(instance_.addr, stats_.states_visited,
                                   stats_.transitions),
        stats_);
  }

 private:
  [[nodiscard]] bool complete() const {
    for (std::size_t p = 0; p < k_; ++p)
      if (positions_[p] < instance_.execution.history(p).size()) return false;
    return true;
  }

  [[nodiscard]] bool final_ok() const {
    const auto fin = instance_.final_value();
    return !fin || value_ == *fin;
  }

  [[nodiscard]] bool budget_exhausted() const {
    if (options_.max_states != 0 && stats_.states_visited >= options_.max_states)
      return true;
    if (options_.max_transitions != 0 &&
        stats_.transitions >= options_.max_transitions)
      return true;
    if ((stats_.transitions & 0xff) != 0) return false;
    return options_.interrupted();
  }

  void apply(std::uint32_t p) {
    const Operation& op = instance_.execution.history(p)[positions_[p]];
    schedule_.push_back(OpRef{p, positions_[p]});
    ++positions_[p];
    if (op.writes_memory()) value_ = op.value_written;
  }

  void close_reads() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::uint32_t p = 0; p < k_; ++p) {
        const auto& history = instance_.execution.history(p);
        while (positions_[p] < history.size()) {
          const Operation& op = history[positions_[p]];
          if (op.kind != OpKind::kRead || op.value_read != value_) break;
          apply(p);
          progressed = true;
        }
      }
    }
  }

  bool remember_current() {
    ++stats_.states_visited;
    StateKey key(positions_);
    key.push_back(static_cast<std::uint32_t>(static_cast<std::uint64_t>(value_)));
    key.push_back(
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(value_) >> 32));
    if (!visited_.insert(std::move(key)).second) {
      --stats_.states_visited;
      ++stats_.prunes;
      return false;
    }
    return true;
  }

  const VmcInstance& instance_;
  const ExactOptions& options_;
  std::size_t k_;

  std::vector<std::uint32_t> positions_;
  Value value_ = 0;
  Schedule schedule_;
  std::unordered_set<StateKey, StateKeyHash> visited_;
  SearchStats stats_;
};

}  // namespace

CheckResult check_exact_legacy(const VmcInstance& instance,
                               const ExactOptions& options) {
  return LegacyExactSearch(instance, options).run();
}

}  // namespace vermem::vmc
