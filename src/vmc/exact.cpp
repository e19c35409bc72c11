#include "vmc/exact.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/engine.hpp"

namespace vermem::vmc {

namespace {

// The VMC policy of search/engine.hpp. Key: one position word per
// history, then the location's current value in two words. Choice p
// schedules the next operation of history p; pure reads are free, so
// only writing operations branch. exact_legacy.cpp keeps the
// pre-arena search as the differential oracle.
class VmcPolicy {
 public:
  VmcPolicy(const VmcInstance& instance, const ExactOptions& options)
      : instance_(instance), options_(options),
        k_(static_cast<std::uint32_t>(instance.num_histories())) {}

  [[nodiscard]] std::size_t key_words() const noexcept { return k_ + 2; }
  [[nodiscard]] std::uint32_t num_choices() const noexcept { return k_; }
  [[nodiscard]] Addr addr() const noexcept { return instance_.addr; }

  void start(std::uint32_t* key) const {
    std::fill(key, key + k_, 0u);
    search::store_value(key + k_, instance_.initial_value());
  }

  std::uint32_t next(const std::uint32_t* key, std::uint32_t p,
                     SearchStats& stats) const {
    const Value value = search::load_value(key + k_);
    for (; p < k_; ++p) {
      const auto& history = instance_.execution.history(p);
      if (key[p] >= history.size()) continue;
      const Operation& op = history[key[p]];
      if (!op.writes_memory()) continue;
      if (op.reads_memory() && op.value_read != value) continue;
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

  /// A pure read of the current value: it leaves the state's value alone,
  /// so any coherent continuation can run it first.
  [[nodiscard]] bool free(const std::uint32_t* key, std::uint32_t p) const {
    const auto& history = instance_.execution.history(p);
    if (key[p] >= history.size()) return false;
    const Operation& op = history[key[p]];
    return op.kind == OpKind::kRead &&
           op.value_read == search::load_value(key + k_);
  }

  void apply(std::uint32_t* key, std::uint32_t p, Schedule& schedule) const {
    const Operation& op = instance_.execution.history(p)[key[p]];
    schedule.push_back(OpRef{p, key[p]});
    ++key[p];
    if (op.writes_memory()) search::store_value(key + k_, op.value_written);
  }

  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    for (std::uint32_t p = 0; p < k_; ++p)
      if (key[p] < instance_.execution.history(p).size())
        return search::Status::kOpen;
    const auto fin = instance_.final_value();
    return !fin || search::load_value(key + k_) == *fin
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
  const VmcInstance& instance_;
  const ExactOptions& options_;
  std::uint32_t k_;
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
