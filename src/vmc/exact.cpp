#include "vmc/exact.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/engine.hpp"

namespace vermem::vmc {

namespace {

// The VMC policy of search/engine.hpp. Key: one position word per
// history, then the dense id of the location's current value. Choice p
// schedules the next operation of history p; pure reads are closed over,
// so only writing operations branch. Every question the search asks of an
// operation is answered by one flat per-op table built here, so the hot
// path touches neither the histories nor a 64-bit value.
// exact_legacy.cpp keeps the pre-arena search as the differential oracle.
class VmcPolicy {
 public:
  VmcPolicy(const VmcInstance& instance, const ExactOptions& options)
      : instance_(instance), options_(options),
        k_(static_cast<std::uint32_t>(instance.num_histories())) {
    const Execution& exec = instance.execution;
    // Dense value ids: the initial value and every written value, the
    // only values the location can hold, sorted. A read of any other
    // value gets kNever, which no state's value equals.
    std::vector<Value> values{instance.initial_value()};
    for (const auto& history : exec.histories())
      for (const Operation& op : history)
        if (op.writes_memory()) values.push_back(op.value_written);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    const auto id_of = [&values](Value value) {
      const auto it = std::lower_bound(values.begin(), values.end(), value);
      return it != values.end() && *it == value
                 ? static_cast<std::uint32_t>(it - values.begin())
                 : kNever;
    };
    initial_id_ = id_of(instance.initial_value());
    if (const auto fin = instance.final_value()) {
      has_final_ = true;
      final_id_ = id_of(*fin);
    }

    begin_.reserve(k_ + 1);
    ops_.reserve(exec.num_operations() + k_);
    for (std::uint32_t p = 0; p < k_; ++p) {
      const auto& history = exec.history(p);
      begin_.push_back(static_cast<std::uint32_t>(ops_.size()));
      for (std::uint32_t i = 0; i < history.size(); ++i) {
        const Operation& op = history[i];
        Op row{kNever, kNever, kNever, i + 1};
        if (op.kind == OpKind::kRead) row.closes = id_of(op.value_read);
        if (op.kind == OpKind::kWrite) row.branch = kAny;
        if (op.kind == OpKind::kRmw) row.branch = id_of(op.value_read);
        if (op.writes_memory()) row.write = id_of(op.value_written);
        ops_.push_back(row);
      }
      // Sentinel one past the end: it neither branches nor closes, so
      // neither next() nor close() needs a bounds check.
      ops_.push_back({kNever, kNever, kNever,
                      static_cast<std::uint32_t>(history.size())});
      // Each pure read's run end: the first later position that is not a
      // pure read of the same value (the sentinel ends every run).
      const std::uint32_t base = begin_.back();
      for (std::uint32_t i = static_cast<std::uint32_t>(history.size()); i-- > 0;) {
        Op& op = ops_[base + i];
        const Op& after = ops_[base + i + 1];
        if (op.closes != kNever && after.closes == op.closes)
          op.run_end = after.run_end;
      }
    }
    begin_.push_back(static_cast<std::uint32_t>(ops_.size()));
  }

  [[nodiscard]] std::size_t key_words() const noexcept { return k_ + 1; }
  [[nodiscard]] std::uint32_t num_choices() const noexcept { return k_; }
  [[nodiscard]] Addr addr() const noexcept { return instance_.addr; }

  void start(std::uint32_t* key) const {
    std::fill(key, key + k_, 0u);
    key[k_] = initial_id_;
  }

  std::uint32_t next(const std::uint32_t* key, std::uint32_t p,
                     SearchStats& stats) const {
    const std::uint32_t value = key[k_];
    for (; p < k_; ++p) {
      const std::uint32_t branch = ops_[begin_[p] + key[p]].branch;
      if (branch != kAny && branch != value) continue;
      if (options_.pruner && !options_.pruner->satisfied(key, p, key[p])) {
        // A must-precede predecessor is still unscheduled: this branch
        // violates a necessary ordering and cannot contain a witness.
        ++stats.oracle_prunes;
        continue;
      }
      break;
    }
    return p;
  }

  /// Takes choice p, which next() returned, so a write or an RMW.
  void apply(std::uint32_t* key, std::uint32_t p, Schedule& schedule) const {
    schedule.push_back(OpRef{p, key[p]});
    key[k_] = ops_[begin_[p] + key[p]].write;
    ++key[p];
  }

  /// Schedules, history by history, the run of pure reads of the current
  /// value at each position. A pure read leaves the value alone, so any
  /// coherent continuation can run it first, and one pass in choice order
  /// reaches the fixed point.
  void close(std::uint32_t* key, Schedule& schedule) const {
    const std::uint32_t value = key[k_];
    for (std::uint32_t p = 0; p < k_; ++p) {
      const Op& op = ops_[begin_[p] + key[p]];
      if (op.closes != value) continue;
      for (std::uint32_t i = key[p]; i != op.run_end; ++i)
        schedule.push_back(OpRef{p, i});
      key[p] = op.run_end;
    }
  }

  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    for (std::uint32_t p = 0; p < k_; ++p)
      if (begin_[p] + key[p] + 1 != begin_[p + 1]) return search::Status::kOpen;
    return !has_final_ || key[k_] == final_id_
               ? search::Status::kAccept
               : search::Status::kReject;
  }

  /// Complete before any choice: the instance has no writes (only pure
  /// reads of the initial value were consumed), so a final value other
  /// than the initial one is unwritable.
  [[nodiscard]] certify::Incoherence reject(const std::uint32_t*) const {
    return certify::unwritable_final(instance_.addr, *instance_.final_value());
  }

 private:
  static constexpr std::uint32_t kNever = 0xffffffffu;  ///< matches no value
  static constexpr std::uint32_t kAny = 0xfffffffeu;    ///< branches on any value

  /// One operation, or the sentinel past a history's end. Every field
  /// that names a value holds its dense id or kNever (a value the
  /// location never holds: an RMW or read of it never runs).
  struct Op {
    std::uint32_t branch;   ///< writes: kAny, RMWs: the value they read
    std::uint32_t closes;   ///< pure reads: the value they read
    std::uint32_t write;    ///< writes and RMWs: the value they store
    std::uint32_t run_end;  ///< pure reads: end of the same-value read run
  };

  const VmcInstance& instance_;
  const ExactOptions& options_;
  std::uint32_t k_;
  std::uint32_t initial_id_ = 0;
  bool has_final_ = false;
  std::uint32_t final_id_ = kNever;  ///< kNever: no holdable value matches
  std::vector<std::uint32_t> begin_;  ///< history p's ops start; k+1 entries
  std::vector<Op> ops_;  ///< every history's ops, each then its sentinel
};

}  // namespace

CheckResult check_exact(const VmcInstance& instance, const ExactOptions& options) {
  obs::Span span("vmc.exact");
  const auto malformed = instance.malformed();
  CheckResult result =
      malformed ? CheckResult::unknown(certify::UnknownReason::kMalformed,
                                       *malformed)
                : search::Engine(VmcPolicy(instance, options), options).run();
  // Four numeric attributes is the span cap; the other effort figures
  // (prunes, oracle prunes, frontier) ride in the counters below and in
  // each response's effort object.
  if (span.active()) {
    span.attr("states", result.stats.states_visited);
    span.attr("transitions", result.stats.transitions);
    span.attr("arena_reserved", result.stats.arena_reserved);
    span.attr("arena_high_water", result.stats.arena_high_water);
    span.attr("verdict", to_string(result.verdict));
  }
  if (obs::enabled()) {
    static const obs::Counter searches =
        obs::counter("vermem_exact_searches_total");
    static const obs::Counter states = obs::counter("vermem_exact_states_total");
    static const obs::Counter transitions =
        obs::counter("vermem_exact_transitions_total");
    static const obs::Counter prunes = obs::counter("vermem_exact_prunes_total");
    static const obs::Counter oracle_prunes =
        obs::counter("vermem_exact_oracle_prunes_total");
    static const obs::Counter arena_reserved =
        obs::counter("vermem_exact_arena_reserved_bytes_total");
    static const obs::Counter arena_allocations =
        obs::counter("vermem_exact_arena_allocations_total");
    searches.add();
    states.add(result.stats.states_visited);
    transitions.add(result.stats.transitions);
    prunes.add(result.stats.prunes);
    oracle_prunes.add(result.stats.oracle_prunes);
    arena_reserved.add(result.stats.arena_reserved);
    arena_allocations.add(result.stats.arena_allocations);
  }
  if (result.stats.arena_high_water != 0)
    obs::flight_event(obs::FlightEventKind::kArenaHighWater, "vmc.exact",
                      result.stats.arena_high_water,
                      result.stats.states_visited);
  return result;
}

}  // namespace vermem::vmc
