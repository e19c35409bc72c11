#include "vmc/exact.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/engine.hpp"
#include "vmc/instance_view.hpp"

namespace vermem::vmc {

namespace {

// The VMC policy of search/engine.hpp. Key: one position word per
// history, then the dense id of the location's current value. Choice p
// schedules the next operation of history p; pure reads are closed over,
// so only writing operations branch. Every question the search asks of an
// operation is answered by one flat per-op table built here from the
// view's records, so the hot path touches neither the records nor a
// 64-bit value. exact_legacy.cpp keeps the pre-arena search as the
// differential oracle.
class VmcPolicy {
 public:
  VmcPolicy(const ProjectedView& view, const ValueTable& values,
            const ExactOptions& options)
      : addr_(view.addr()), final_(view.final_value()), options_(options),
        k_(static_cast<std::uint32_t>(view.num_histories())) {
    // Dense value ids are the table's, plus one past them for an initial
    // value no operation reads or writes. A value that is read but never
    // held (not written, not initial) keeps its id, which no state's
    // value equals, so a read or RMW of it never runs.
    const Value initial = view.initial_value();
    initial_id_ = values.id_of(initial);
    if (initial_id_ == ValueTable::kNone)
      initial_id_ = static_cast<std::uint32_t>(values.size());
    if (final_)
      final_id_ = *final_ == initial ? initial_id_ : values.id_of(*final_);

    begin_.reserve(k_ + 1);
    ops_.reserve(view.num_ops() + k_);
    std::size_t record = 0;  // index into view.records()
    for (std::uint32_t p = 0; p < k_; ++p) {
      const auto history = view.history(p);
      begin_.push_back(static_cast<std::uint32_t>(ops_.size()));
      for (std::uint32_t i = 0; i < history.size(); ++i, ++record) {
        const OpKind kind = history[i].op.kind;
        // written() is kNone (== kNever) for an operation that stores
        // nothing.
        Op row{kNever, kNever, values.written(record), i + 1};
        if (kind == OpKind::kRead) row.closes = values.read(record);
        if (kind == OpKind::kWrite) row.branch = kAny;
        if (kind == OpKind::kRmw) row.branch = values.read(record);
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
  [[nodiscard]] Addr addr() const noexcept { return addr_; }

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
  void apply(std::uint32_t* key, std::uint32_t p, Schedule* schedule) const {
    if (schedule != nullptr) schedule->push_back(OpRef{p, key[p]});
    key[k_] = ops_[begin_[p] + key[p]].write;
    ++key[p];
  }

  /// Schedules, history by history, the run of pure reads of the current
  /// value at each position. A pure read leaves the value alone, so any
  /// coherent continuation can run it first, and one pass in choice order
  /// reaches the fixed point.
  void close(std::uint32_t* key, Schedule* schedule) const {
    const std::uint32_t value = key[k_];
    for (std::uint32_t p = 0; p < k_; ++p) {
      const Op& op = ops_[begin_[p] + key[p]];
      if (op.closes != value) continue;
      if (schedule != nullptr)
        for (std::uint32_t i = key[p]; i != op.run_end; ++i)
          schedule->push_back(OpRef{p, i});
      key[p] = op.run_end;
    }
  }

  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    for (std::uint32_t p = 0; p < k_; ++p)
      if (begin_[p] + key[p] + 1 != begin_[p + 1]) return search::Status::kOpen;
    return !final_ || key[k_] == final_id_
               ? search::Status::kAccept
               : search::Status::kReject;
  }

  /// Complete before any choice: the instance has no writes (only pure
  /// reads of the initial value were consumed), so a final value other
  /// than the initial one is unwritable.
  [[nodiscard]] certify::Incoherence reject(const std::uint32_t*) const {
    return certify::unwritable_final(addr_, *final_);
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

  Addr addr_;
  std::optional<Value> final_;
  const ExactOptions& options_;
  std::uint32_t k_;
  std::uint32_t initial_id_ = 0;
  std::uint32_t final_id_ = kNever;  ///< kNever: no operation names it
  std::vector<std::uint32_t> begin_;  ///< history p's ops start; k+1 entries
  std::vector<Op> ops_;  ///< every history's ops, each then its sentinel
};

/// Reports one search on its span, the registry and the flight recorder.
CheckResult observed(obs::Span& span, CheckResult result) {
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

constexpr std::uint32_t kNoHistory = 0xffffffffu;

/// `pruner`, which names instance histories, renumbered to the view's,
/// which skip the instance's empty ones.
MustPrecede renumbered(const MustPrecede& pruner, const ProjectedView& view) {
  std::vector<std::uint32_t> history_of(pruner.spans.size(), kNoHistory);
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t h = 0; h < view.num_histories(); ++h) {
    if (view.history_process(h) < history_of.size())
      history_of[view.history_process(h)] = h;
    sizes.push_back(static_cast<std::uint32_t>(view.history(h).size()));
  }
  MustPrecede out;
  for (std::uint32_t p = 0; p < pruner.spans.size(); ++p) {
    if (history_of[p] == kNoHistory) continue;
    for (std::uint32_t i = 0; i < pruner.spans[p].size(); ++i) {
      const MustPrecede::Span s = pruner.spans[p][i];
      for (std::uint32_t e = s.offset; e != s.offset + s.count; ++e) {
        const OpRef before = pruner.preds[e];
        // A predecessor in an empty history names no operation.
        if (before.process < history_of.size() &&
            history_of[before.process] != kNoHistory)
          out.add_edge({history_of[before.process], before.index},
                       {history_of[p], i});
      }
    }
  }
  out.finalize(sizes);
  return out;
}

}  // namespace

CheckResult check_exact(const ProjectedView& view, const ValueTable& values,
                        const ExactOptions& options) {
  obs::Span span("vmc.exact");
  return observed(
      span, search::Engine(VmcPolicy(view, values, options), options).run());
}

CheckResult check_exact(const VmcInstance& instance, const ExactOptions& options) {
  if (const auto malformed = instance.malformed()) {
    obs::Span span("vmc.exact");
    return observed(span, CheckResult::unknown(
                              certify::UnknownReason::kMalformed, *malformed));
  }
  return decide_on_view(instance, [&](const ProjectedView& view,
                                      const ValueTable& values) {
    ExactOptions local = options;
    MustPrecede pruner;
    if (options.pruner != nullptr &&
        view.num_histories() != instance.num_histories()) {
      pruner = renumbered(*options.pruner, view);
      local.pruner = &pruner;
    }
    return check_exact(view, values, local);
  });
}

}  // namespace vermem::vmc
