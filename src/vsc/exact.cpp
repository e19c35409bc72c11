#include "vsc/exact.hpp"

#include <algorithm>

#include "search/engine.hpp"

namespace vermem::vsc {

namespace {

// The VSC policy of search/engine.hpp: the VMC state widened to one
// current value per address. Key: k position words, then the dense
// memory words. Pure reads and sync ops are free (neither changes any
// location's value). exact_legacy.cpp keeps the pre-arena search as the
// differential oracle.
class ScPolicy {
 public:
  ScPolicy(const AddressIndex& index, bool eager)
      : exec_(index.execution()), memory_(exec_, index.addresses()),
        eager_(eager), k_(static_cast<std::uint32_t>(exec_.num_processes())) {}

  [[nodiscard]] std::size_t key_words() const { return k_ + 2 * memory_.size(); }
  [[nodiscard]] std::uint32_t num_choices() const { return k_; }
  [[nodiscard]] Addr addr() const { return 0; }

  void start(std::uint32_t* key) const {
    std::fill(key, key + k_, 0u);
    memory_.start(key + k_);
  }

  std::uint32_t next(const std::uint32_t* key, std::uint32_t p,
                     SearchStats&) const {
    for (; p < k_; ++p) {
      if (key[p] >= exec_.history(p).size()) continue;
      const Operation& op = exec_.history(p)[key[p]];
      if (eager_ && !op.writes_memory()) continue;
      if (enabled(key, p, op)) break;
    }
    return p;
  }

  [[nodiscard]] bool free(const std::uint32_t* key, std::uint32_t p) const {
    if (key[p] >= exec_.history(p).size()) return false;
    const Operation& op = exec_.history(p)[key[p]];
    return (op.is_sync() || op.kind == OpKind::kRead) && enabled(key, p, op);
  }

  void apply(std::uint32_t* key, std::uint32_t p, Schedule& schedule) const {
    const Operation& op = exec_.history(p)[key[p]];
    schedule.push_back(OpRef{p, key[p]});
    if (op.writes_memory())
      search::store_value(key + k_ + 2 * memory_.id(p, key[p]), op.value_written);
    ++key[p];
  }

  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    for (std::uint32_t p = 0; p < k_; ++p)
      if (key[p] < exec_.history(p).size()) return search::Status::kOpen;
    return memory_.mismatch(key + k_) == nullptr ? search::Status::kAccept
                                                 : search::Status::kReject;
  }

  /// Complete before any choice: only pure reads and sync ops were
  /// consumed, so the first mismatching final value is unwritable.
  [[nodiscard]] certify::Incoherence reject(const std::uint32_t* key) const {
    const auto* fin = memory_.mismatch(key + k_);
    return certify::unwritable_final(fin->addr, fin->value);
  }

 private:
  [[nodiscard]] bool enabled(const std::uint32_t* key, std::uint32_t p,
                             const Operation& op) const {
    if (op.is_sync() || !op.reads_memory()) return true;
    return op.value_read ==
           search::load_value(key + k_ + 2 * memory_.id(p, key[p]));
  }

  const Execution& exec_;
  search::DenseMemory memory_;
  bool eager_;
  std::uint32_t k_;
};

}  // namespace

CheckResult check_sc_exact(const Execution& exec, const ScOptions& options) {
  return check_sc_exact(AddressIndex(exec), options);
}

CheckResult check_sc_exact(const AddressIndex& index, const ScOptions& options) {
  return search::Engine(ScPolicy(index, options.eager_reads),
                        {.eager = options.eager_reads,
                         .memoize = options.memoize,
                         .max_states = options.max_states,
                         .max_transitions = options.max_transitions,
                         .deadline = options.deadline,
                         .cancel = options.cancel}).run();
}

}  // namespace vermem::vsc
