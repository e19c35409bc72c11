#include "models/checker.hpp"

#include <algorithm>
#include <string>

#include "analysis/router.hpp"
#include "search/engine.hpp"
#include "trace/address_index.hpp"
#include "vsc/exact.hpp"

namespace vermem::models {

namespace {

/// The TSO/PSO store-buffer policy of search/engine.hpp; `pso` selects
/// PSO's relaxed drain rule.
///
/// Transitions from a state: "issue" the next program operation of some
/// processor, or "drain" an eligible buffered store of some processor to
/// global memory. TSO may drain only the front of the FIFO; PSO may drain
/// any store that is the oldest to its own address. The trace is
/// admissible iff some transition sequence issues every operation and
/// empties every buffer, ending with memory matching the recorded final
/// values. Choices are [issue p..., drain (p, j)...], j indexing p's
/// stores in program order: the order of p's buffer, oldest first.
///
/// Key: k positions, then drain counters, then the dense memory words.
/// TSO drains a FIFO prefix of each buffer, so it keeps one counter per
/// processor; PSO drains a prefix per address, so it keeps one per
/// (processor, address). Processor p's buffer is exactly its issued
/// stores past the drained prefix, so the key identifies the same states
/// as (positions, buffer contents, memory).
class StoreBufferPolicy {
 public:
  StoreBufferPolicy(const AddressIndex& index, bool pso)
      : exec_(index.execution()), memory_(exec_, index.addresses()), pso_(pso),
        k_(static_cast<std::uint32_t>(exec_.num_processes())),
        drains_(pso ? k_ * memory_.size() : k_) {
    ops_.resize(k_);
    stores_.resize(k_);
    for (std::uint32_t p = 0; p < k_; ++p) {
      const auto& history = exec_.history(p);
      std::vector<std::uint32_t> newest(memory_.size(), kNone);
      std::vector<std::uint32_t> per_addr(memory_.size(), 0);
      for (std::uint32_t i = 0; i < history.size(); ++i) {
        const std::size_t a = memory_.id(p, i);
        const auto before = static_cast<std::uint32_t>(stores_[p].size());
        ops_[p].push_back({before, history[i].is_sync() ? kNone : newest[a]});
        if (history[i].kind != OpKind::kWrite) continue;
        newest[a] = before;
        stores_[p].push_back({a, per_addr[a]++, history[i].value_written});
      }
      const auto stores = static_cast<std::uint32_t>(stores_[p].size());
      ops_[p].push_back({stores, kNone});
      slots_ = std::max(slots_, stores);
    }
  }

  [[nodiscard]] std::size_t key_words() const {
    return k_ + drains_ + 2 * memory_.size();
  }
  [[nodiscard]] std::uint32_t num_choices() const { return k_ + k_ * slots_; }
  [[nodiscard]] Addr addr() const { return 0; }

  void start(std::uint32_t* key) const {
    std::fill(key, key + k_ + drains_, 0u);
    memory_.start(key + k_ + drains_);
  }

  std::uint32_t next(const std::uint32_t* key, std::uint32_t c,
                     vmc::SearchStats&) const {
    for (; c < k_; ++c)
      if (can_issue(key, c)) return c;
    for (; c < num_choices(); ++c) {
      // Drainable: issued, and next in line at its drain counter.
      const std::uint32_t p = (c - k_) / slots_, j = (c - k_) % slots_;
      if (j < ops_[p][key[p]].before && order(p, j) == counter(key, p, j))
        return c;
    }
    return c;
  }

  void apply(std::uint32_t* key, std::uint32_t c, Schedule* schedule) const {
    if (c < k_) {
      // A write joins the buffer, which the bumped position already says;
      // an atomic acts on memory directly.
      const Operation& op = exec_.history(c)[key[c]];
      if (schedule != nullptr) schedule->push_back(OpRef{c, key[c]});
      if (op.kind == OpKind::kRmw)
        search::store_value(memory_word(key, memory_.id(c, key[c])),
                            op.value_written);
      ++key[c];
      return;
    }
    const Store& store = stores_[(c - k_) / slots_][(c - k_) % slots_];
    search::store_value(memory_word(key, store.addr), store.value);
    ++key[drain_word((c - k_) / slots_, store.addr)];
  }

  /// Everything issued, buffers empty, finals match. Never a rejection: a
  /// finished state that misses a final value simply has no successors.
  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    for (std::uint32_t p = 0; p < k_; ++p)
      if (key[p] < exec_.history(p).size() || buffered(key, p) != 0)
        return search::Status::kOpen;
    return memory_.mismatch(key + k_ + drains_) == nullptr
               ? search::Status::kAccept
               : search::Status::kOpen;
  }

  /// No choice commutes with every other, so every transition branches;
  /// reject() is never called because status() never rejects.
  void close(std::uint32_t*, Schedule*) const {}
  [[nodiscard]] certify::Incoherence reject(const std::uint32_t*) const {
    return certify::search_exhaustion(0, 0, 0);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct OpInfo {
    std::uint32_t before;   ///< p's stores among its earlier operations
    std::uint32_t forward;  ///< p's newest earlier store to the address
  };
  struct Store {
    std::size_t addr;    ///< dense address
    std::uint32_t rank;  ///< index among p's stores to addr
    Value value;
  };

  [[nodiscard]] std::uint32_t* memory_word(std::uint32_t* key,
                                           std::size_t a) const {
    return key + k_ + drains_ + 2 * a;
  }
  [[nodiscard]] Value memory(const std::uint32_t* key, std::size_t a) const {
    return search::load_value(key + k_ + drains_ + 2 * a);
  }
  [[nodiscard]] std::size_t drain_word(std::uint32_t p, std::size_t a) const {
    return k_ + (pso_ ? std::size_t{p} * memory_.size() + a : p);
  }

  /// Store j of p against its drain counter (TSO counts p's stores, PSO
  /// p's stores to the address): below the counter it has drained, at the
  /// counter it is the oldest buffered store and may drain next.
  [[nodiscard]] std::uint32_t order(std::uint32_t p, std::uint32_t j) const {
    return pso_ ? stores_[p][j].rank : j;
  }
  [[nodiscard]] std::uint32_t counter(const std::uint32_t* key, std::uint32_t p,
                                      std::uint32_t j) const {
    return key[drain_word(p, stores_[p][j].addr)];
  }

  /// Number of stores in p's buffer.
  [[nodiscard]] std::uint32_t buffered(const std::uint32_t* key,
                                       std::uint32_t p) const {
    const std::uint32_t* counters = key + drain_word(p, 0);
    std::uint32_t out = ops_[p][key[p]].before;
    for (std::uint32_t a = 0; a < (pso_ ? memory_.size() : 1); ++a)
      out -= counters[a];
    return out;
  }

  [[nodiscard]] bool can_issue(const std::uint32_t* key, std::uint32_t p) const {
    const std::uint32_t i = key[p];
    if (i >= exec_.history(p).size()) return false;
    const Operation& op = exec_.history(p)[i];
    switch (op.kind) {
      case OpKind::kWrite:
        return true;
      case OpKind::kRead: {
        // Forwarding: the newest buffered store of p to the address, else
        // global memory.
        const std::uint32_t j = ops_[p][i].forward;
        return op.value_read == (j != kNone && order(p, j) >= counter(key, p, j)
                                     ? stores_[p][j].value
                                     : memory(key, memory_.id(p, i)));
      }
      case OpKind::kRmw:
        // Atomics flush the buffer and act on memory directly.
        return buffered(key, p) == 0 &&
               memory(key, memory_.id(p, i)) == op.value_read;
      case OpKind::kAcquire:
      case OpKind::kRelease:
        return buffered(key, p) == 0;  // sync acts as a full fence
    }
    return false;
  }

  const Execution& exec_;
  search::DenseMemory memory_;
  bool pso_;
  std::uint32_t k_;
  std::uint32_t drains_;     ///< drain counter words in the key
  std::uint32_t slots_ = 1;  ///< drain choices per processor: most stores
  std::vector<std::vector<OpInfo>> ops_;    ///< per op, plus one past the end
  std::vector<std::vector<Store>> stores_;  ///< p's plain writes, in order
};

}  // namespace

vmc::CheckResult check_model(const Execution& exec, Model m,
                             const search::Limits& limits) {
  // One indexing pass over the trace feeds every model's dense address
  // numbering (and the coherence-only path's per-address projections).
  const AddressIndex index(exec);
  switch (m) {
    case Model::kSc:
      return vsc::check_sc_exact(index, limits);
    case Model::kTso:
    case Model::kPso:
      return search::Engine(StoreBufferPolicy(index, m == Model::kPso), limits)
          .run();
    case Model::kCoherenceOnly: {
      const auto report =
          analysis::verify_coherence_routed(index, nullptr, limits).report;
      switch (report.verdict) {
        case vmc::Verdict::kCoherent:
          return vmc::CheckResult::yes({}, report.effort);
        case vmc::Verdict::kIncoherent: {
          const auto* violation = report.first_violation();
          certify::Incoherence evidence;
          if (violation) {
            if (const auto* inc = violation->result.incoherence())
              evidence = *inc;
            evidence.addr = violation->addr;
          }
          return vmc::CheckResult::no(std::move(evidence), report.effort);
        }
        case vmc::Verdict::kUnknown:
          // The first undecided address speaks for the trace.
          for (const auto& address : report.addresses)
            if (const auto* why = address.result.unknown_reason())
              return vmc::CheckResult::unknown(
                  why->reason,
                  "address " + std::to_string(address.addr) + ": " + why->detail,
                  report.effort);
          break;
      }
      return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                       "unreachable");
    }
  }
  return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                   "unknown model");
}

}  // namespace vermem::models
