#include "vsc/exact_legacy.hpp"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/hash.hpp"

namespace vermem::vsc {

namespace {

using StateKey = std::vector<std::uint32_t>;

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const noexcept {
    return static_cast<std::size_t>(hash_span<std::uint32_t>(key));
  }
};

class LegacyScSearch {
 public:
  LegacyScSearch(const AddressIndex& index, const ScOptions& options)
      : exec_(index.execution()), options_(options),
        k_(exec_.num_processes()) {
    for (const Addr addr : index.addresses()) {
      addr_id_[addr] = values_.size();
      values_.push_back(exec_.initial_value(addr));
    }
    positions_.assign(k_, 0);
  }

  CheckResult run() {
    if (options_.eager_reads) close_free_ops();
    if (complete()) {
      return final_ok() ? CheckResult::yes(schedule_, stats_)
                        : CheckResult::no(final_mismatch_evidence(), stats_);
    }
    remember_current();

    struct Frame {
      std::vector<std::uint32_t> positions;
      std::vector<Value> values;
      std::size_t base_len;
      std::uint32_t next_choice;
    };
    std::vector<Frame> stack;
    stack.push_back({positions_, values_, schedule_.size(), 0});

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
      values_ = frame.values;
      schedule_.resize(frame.base_len);

      std::uint32_t p = frame.next_choice;
      for (; p < k_; ++p) {
        if (positions_[p] >= exec_.history(p).size()) continue;
        const Operation& op = exec_.history(p)[positions_[p]];
        if (options_.eager_reads && !op.writes_memory()) continue;
        if (!enabled(op)) continue;
        break;
      }
      if (p == k_) {
        stack.pop_back();
        continue;
      }
      frame.next_choice = p + 1;
      ++stats_.transitions;

      apply(p);
      if (options_.eager_reads) close_free_ops();

      if (complete()) {
        if (final_ok()) return CheckResult::yes(schedule_, stats_);
        continue;
      }
      if (!remember_current()) continue;
      stack.push_back({positions_, values_, schedule_.size(), 0});
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, stack.size());
    }
    return CheckResult::no(
        certify::search_exhaustion(0, stats_.states_visited, stats_.transitions),
        stats_);
  }

 private:
  [[nodiscard]] certify::Incoherence final_mismatch_evidence() const {
    for (const auto& [addr, fin] : exec_.final_values())
      if (values_[addr_id_.at(addr)] != fin)
        return certify::unwritable_final(addr, fin);
    return certify::search_exhaustion(0, stats_.states_visited,
                                      stats_.transitions);  // unreachable
  }

  [[nodiscard]] bool enabled(const Operation& op) const {
    if (op.is_sync()) return true;
    if (!op.reads_memory()) return true;
    return op.value_read == values_[addr_id_.at(op.addr)];
  }

  [[nodiscard]] bool complete() const {
    for (std::size_t p = 0; p < k_; ++p)
      if (positions_[p] < exec_.history(p).size()) return false;
    return true;
  }

  [[nodiscard]] bool final_ok() const {
    for (const auto& [addr, fin] : exec_.final_values())
      if (values_[addr_id_.at(addr)] != fin) return false;
    return true;
  }

  [[nodiscard]] bool budget_exhausted() const {
    if (options_.max_states != 0 && stats_.states_visited >= options_.max_states)
      return true;
    if (options_.max_transitions != 0 &&
        stats_.transitions >= options_.max_transitions)
      return true;
    if ((stats_.transitions & 0xff) != 0) return false;
    return options_.deadline.expired() ||
           (options_.cancel && options_.cancel->cancelled());
  }

  void apply(std::uint32_t p) {
    const Operation& op = exec_.history(p)[positions_[p]];
    schedule_.push_back(OpRef{p, positions_[p]});
    ++positions_[p];
    if (op.writes_memory()) values_[addr_id_.at(op.addr)] = op.value_written;
  }

  void close_free_ops() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::uint32_t p = 0; p < k_; ++p) {
        const auto& history = exec_.history(p);
        while (positions_[p] < history.size()) {
          const Operation& op = history[positions_[p]];
          const bool free_op = op.is_sync() || op.kind == OpKind::kRead;
          if (!free_op || !enabled(op)) break;
          apply(p);
          progressed = true;
        }
      }
    }
  }

  bool remember_current() {
    ++stats_.states_visited;
    if (!options_.memoize) return true;
    StateKey key(positions_);
    key.reserve(key.size() + 2 * values_.size());
    for (const Value v : values_) {
      key.push_back(static_cast<std::uint32_t>(static_cast<std::uint64_t>(v)));
      key.push_back(
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32));
    }
    if (!visited_.insert(std::move(key)).second) {
      --stats_.states_visited;
      ++stats_.prunes;
      return false;
    }
    return true;
  }

  const Execution& exec_;
  const ScOptions& options_;
  std::size_t k_;

  std::unordered_map<Addr, std::size_t> addr_id_;
  std::vector<std::uint32_t> positions_;
  std::vector<Value> values_;
  Schedule schedule_;
  std::unordered_set<StateKey, StateKeyHash> visited_;
  SearchStats stats_;
};

}  // namespace

CheckResult check_sc_exact_legacy(const Execution& exec,
                                  const ScOptions& options) {
  return LegacyScSearch(AddressIndex(exec), options).run();
}

CheckResult check_sc_exact_legacy(const AddressIndex& index,
                                  const ScOptions& options) {
  return LegacyScSearch(index, options).run();
}

}  // namespace vermem::vsc
