#include "analysis/router.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "analysis/poly/rmw_chain.hpp"
#include "analysis/poly/write_order.hpp"
#include "analysis/saturate/core.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "vmc/bounded.hpp"
#include "vmc/exact.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"

namespace vermem::analysis {

namespace {

using vmc::CheckResult;
using vmc::Verdict;

bool interrupted(const vmc::ExactOptions& options) {
  return options.deadline.expired() ||
         (options.cancel && options.cancel->cancelled());
}

/// Labeled per-fragment routing counters, registered once. The label
/// set matches the fragment names ServiceStats and vermemd report.
void count_fragment(Fragment fragment) {
  static const std::array<obs::Counter, kNumFragments> counters = [] {
    std::array<obs::Counter, kNumFragments> out;
    for (std::size_t f = 0; f < kNumFragments; ++f)
      out[f] = obs::counter(
          std::string("vermem_fragments_total{fragment=\"") +
          to_string(static_cast<Fragment>(f)) + "\"}");
    return out;
  }();
  counters[static_cast<std::size_t>(fragment)].add();
}

/// Wraps a saturation Contradiction into the matching typed evidence,
/// in projected coordinates (the caller's translation pass maps back).
certify::Incoherence contradiction_evidence(const ProjectedView& view,
                                            const saturate::Contradiction& c) {
  const Addr addr = view.addr();
  const auto local = [&](OpRef ref) { return *view.projected_of(ref); };
  switch (c.kind) {
    case saturate::ContradictionKind::kUnwrittenRead:
      return certify::unwritten_read(addr, local(c.read), c.value);
    case saturate::ContradictionKind::kReadBeforeWrite:
      return certify::read_before_write(addr, local(c.read), local(c.other),
                                        c.value);
    case saturate::ContradictionKind::kStaleInitialRead:
      return certify::stale_initial_read(addr, local(c.other), local(c.read));
    case saturate::ContradictionKind::kUnwritableFinal:
      return certify::unwritable_final(addr, c.value);
  }
  return certify::unwritten_read(addr, OpRef{}, c.value);  // unreachable
}

void count_engine_win(Engine engine) {
  static const std::array<obs::Counter, kNumEngines> counters = [] {
    std::array<obs::Counter, kNumEngines> out;
    for (std::size_t e = 0; e < kNumEngines; ++e)
      out[e] = obs::counter(
          std::string("vermem_portfolio_wins_total{engine=\"") +
          to_string(static_cast<Engine>(e)) + "\"}");
    return out;
  }();
  counters[static_cast<std::size_t>(engine)].add();
}

/// One engine's run in a portfolio race. Every arm is budgeted by the
/// caller's deadline and the race's linked cancellation token, and every
/// definite verdict obeys the certification discipline of its engine.
CheckResult run_engine(Engine engine, const vmc::VmcInstance& instance,
                       const vmc::ExactOptions& exact_options,
                       const PortfolioOptions& portfolio,
                       const CancellationToken& stop) {
  switch (engine) {
    case Engine::kExactSearch: {
      vmc::ExactOptions options = exact_options;
      options.cancel = &stop;
      return vmc::check_exact(instance, options);
    }
    case Engine::kCdcl: {
      sat::SolverOptions options = portfolio.solver;
      options.deadline = exact_options.deadline;
      options.cancel = &stop;
      return encode::check_via_sat(instance, options);
    }
    case Engine::kBoundedK: {
      vmc::BoundedKOptions options = portfolio.bounded;
      options.deadline = exact_options.deadline;
      options.cancel = &stop;
      if (options.max_states == 0) options.max_states = exact_options.max_states;
      return vmc::check_bounded_k(instance, options);
    }
  }
  return CheckResult::unknown(certify::UnknownReason::kSolverGaveUp,
                              "unknown portfolio engine");
}

/// What one run_race returned.
struct Race {
  std::vector<CheckResult> results;  ///< parallel to the raced engines
  int decided = -1;                  ///< index of the winner, or -1
  std::int64_t join_wait_ns = 0;     ///< winner's finish to last join
};

/// Races `engines` on one instance: the first definite verdict (by
/// finish time) wins the CAS and cancels the rest through `stop`.
/// engines[0] runs on the calling thread; only the other arms get
/// threads of their own.
Race run_race(const std::vector<Engine>& engines,
              const vmc::VmcInstance& instance,
              const vmc::ExactOptions& exact_options,
              const PortfolioOptions& portfolio, CancellationToken& stop) {
  Race race;
  race.results.resize(engines.size());
  std::atomic<int> first_definite{-1};
  const Stopwatch race_clock;
  // race_clock time of the win; written only by the CAS winner and read
  // after every arm has joined.
  std::int64_t decided_ns = 0;
  const auto arm = [&](std::size_t i) {
    CheckResult result =
        run_engine(engines[i], instance, exact_options, portfolio, stop);
    if (result.verdict != Verdict::kUnknown) {
      int expected = -1;
      if (first_definite.compare_exchange_strong(expected,
                                                 static_cast<int>(i))) {
        decided_ns = race_clock.nanos();
        stop.cancel();
      }
    }
    race.results[i] = std::move(result);
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(engines.size() - 1);
    for (std::size_t i = 1; i < engines.size(); ++i)
      threads.emplace_back(arm, i);
    try {
      arm(0);
    } catch (...) {
      stop.cancel();
      for (auto& thread : threads) thread.join();
      throw;
    }
    for (auto& thread : threads) thread.join();
  }
  race.decided = first_definite.load();
  if (race.decided >= 0) race.join_wait_ns = race_clock.nanos() - decided_ns;
  return race;
}

bool budget_spent(const CheckResult& result) {
  const certify::Unknown* why = result.unknown_reason();
  return why != nullptr && why->reason == certify::UnknownReason::kBudget;
}

}  // namespace

// Stage 1's state budget. On contended traffic (the e2e bench's
// portfolio_race) the frontier search decides an address in a mean of
// ~115 states and none needs 4096, while the race costs ~7x the lone
// search there (two thread spawns and a CNF encoding per address). At
// the ~350 ns per state measured there (4 vCPU, RelWithDebInfo), 4096
// states take ~1.5 ms: the most an instance that does escalate pays on
// top of its race, which on the SAT-reduction instances that need it
// runs from milliseconds to hundreds of milliseconds.
const std::uint64_t kSoloStates = 4096;

namespace {

/// The exact tier under a portfolio, in two stages. Stage 1 runs the
/// frontier search alone on the calling thread under min(caller's
/// max_states, kSoloStates); a definite verdict, a deadline or a
/// cancellation returns as is, so the common case costs exactly what
/// the unraced route costs and no thread is created. Only a spent state
/// budget escalates to stage 2, the race of every engine on one token
/// linked to the request-level one. The frontier search rejoins the race
/// only when kSoloStates, not the caller's own budget, stopped it.
///
/// The winner's effort becomes the result's stats; stage 1's effort on
/// an escalation and the losers' effort are surfaced separately in
/// RouteOutcome::wasted_effort. `only` skips stage 1 and runs the one
/// engine it names.
CheckResult race_portfolio(const vmc::VmcInstance& instance,
                           const vmc::ExactOptions& exact_options,
                           const PortfolioOptions& portfolio,
                           RouteOutcome& out) {
  obs::Span span("analysis.portfolio");
  out.portfolio_ran = true;
  const auto finish = [&](CheckResult result, Engine winner,
                          std::int64_t join_wait_ns) {
    out.portfolio_winner = winner;
    if (span.active()) {
      span.attr("addr", static_cast<std::uint64_t>(instance.addr));
      span.attr("escalated", out.portfolio_escalated);
      span.attr("wasted_states", out.wasted_effort.states_visited);
      // Time the losers took to notice the cancel and be joined.
      span.attr("join_wait_ns", static_cast<std::uint64_t>(join_wait_ns));
      span.attr("winner", to_string(winner));
      span.attr("verdict", vmc::to_string(result.verdict));
    }
    obs::flight_event(obs::FlightEventKind::kTierVerdict, to_string(winner),
                      static_cast<std::uint64_t>(instance.addr),
                      static_cast<std::uint64_t>(result.verdict));
    if (obs::enabled()) {
      if (result.verdict != Verdict::kUnknown) count_engine_win(winner);
      if (out.portfolio_escalated) {
        static const obs::Counter escalations =
            obs::counter("vermem_portfolio_escalations_total");
        escalations.add();
      }
    }
    return result;
  };

  std::vector<Engine> engines;
  CheckResult solo;
  if (portfolio.only) {
    engines.push_back(*portfolio.only);
  } else {
    const bool callers_states = exact_options.max_states != 0 &&
                                exact_options.max_states <= kSoloStates;
    vmc::ExactOptions options = exact_options;
    options.max_states = callers_states ? exact_options.max_states : kSoloStates;
    solo = vmc::check_exact(instance, options);
    if (!budget_spent(solo))
      return finish(std::move(solo), Engine::kExactSearch, 0);
    out.portfolio_escalated = true;
    // A caller's budget that bound stage 1 would bind the search again.
    const bool callers_transitions =
        exact_options.max_transitions != 0 &&
        solo.stats.transitions >= exact_options.max_transitions;
    if (!callers_states && !callers_transitions)
      engines.push_back(Engine::kExactSearch);
    engines.push_back(Engine::kCdcl);
    engines.push_back(Engine::kBoundedK);
  }

  CancellationToken stop(exact_options.cancel);
  Race race = run_race(engines, instance, exact_options, portfolio, stop);
  // With no definite verdict the frontier search's answer stands in, so
  // kUnknown evidence stays meaningful: engines[0] when it raced, else
  // stage 1's.
  const bool solo_stands_in = race.decided < 0 && out.portfolio_escalated &&
                              engines[0] != Engine::kExactSearch;
  const std::size_t winner =
      race.decided >= 0 ? static_cast<std::size_t>(race.decided) : 0;
  for (std::size_t i = 0; i < race.results.size(); ++i)
    if (solo_stands_in || i != winner)
      out.wasted_effort.merge(race.results[i].stats);
  if (solo_stands_in) return finish(std::move(solo), Engine::kExactSearch, 0);
  out.wasted_effort.merge(solo.stats);  // all zero unless stage 1 escalated
  return finish(std::move(race.results[winner]), engines[winner],
                race.join_wait_ns);
}

/// The saturation tier for kBoundedProcesses/kGeneral (and structural
/// fallbacks): derive the must-precede graph, decide outright when it
/// resolves (cycle / forced total order / contradiction), otherwise hand
/// the edges to the exact search as a pruning oracle. All evidence and
/// witnesses leave in projected coordinates.
CheckResult saturate_then_exact(const ProjectedView& view,
                                const vmc::VmcInstance& instance,
                                const vmc::ExactOptions& exact_options,
                                const PortfolioOptions& portfolio,
                                RouteOutcome& out) {
  obs::flight_event(obs::FlightEventKind::kTierEnter, "saturate",
                    static_cast<std::uint64_t>(view.addr()));
  const saturate::Result sat = [&] {
    obs::Span span("analysis.saturate");
    saturate::Result r = saturate::saturate(view);
    if (span.active()) {
      span.attr("addr", static_cast<std::uint64_t>(view.addr()));
      span.attr("writes", r.num_writes());
      span.attr("edges", r.edges.size());
      span.attr("rounds", r.rounds);
      span.attr("branch_points", r.branch_points);
      span.attr("status", saturate::to_string(r.status));
    }
    return r;
  }();
  out.saturation_ran = true;
  out.saturation_status = sat.status;
  out.saturation_edges = sat.edges.size();
  out.saturation_branch_points = sat.branch_points;
  if (obs::enabled()) {
    static const obs::Counter cycles =
        obs::counter("vermem_saturate_outcomes_total{outcome=\"cycle\"}");
    static const obs::Counter forced =
        obs::counter("vermem_saturate_outcomes_total{outcome=\"forced\"}");
    static const obs::Counter partial =
        obs::counter("vermem_saturate_outcomes_total{outcome=\"partial\"}");
    static const obs::Counter contradictions = obs::counter(
        "vermem_saturate_outcomes_total{outcome=\"contradiction\"}");
    static const obs::Counter edges =
        obs::counter("vermem_saturate_must_edges_total");
    switch (sat.status) {
      case saturate::Status::kCycle: cycles.add(); break;
      case saturate::Status::kForcedTotal: forced.add(); break;
      case saturate::Status::kPartial: partial.add(); break;
      case saturate::Status::kContradiction: contradictions.add(); break;
    }
    edges.add(sat.edges.size());
  }

  switch (sat.status) {
    case saturate::Status::kContradiction:
      out.decider = Decider::kSaturate;
      return CheckResult::no(contradiction_evidence(view, *sat.contradiction));
    case saturate::Status::kCycle: {
      out.decider = Decider::kSaturate;
      std::vector<OpRef> ops;
      ops.reserve(sat.cycle.size());
      for (const std::uint32_t n : sat.cycle) ops.push_back(sat.writes_local[n]);
      return CheckResult::no(
          certify::saturation_cycle(view.addr(), std::move(ops)));
    }
    case saturate::Status::kForcedTotal: {
      // A unique linear extension remains: the Section 5.2 re-run under
      // it is exact for the whole instance.
      vmc::WriteOrder order;
      order.reserve(sat.forced.size());
      for (const std::uint32_t n : sat.forced)
        order.push_back(sat.writes_local[n]);
      CheckResult decided = vmc::check_with_write_order(instance, order);
      if (decided.verdict == Verdict::kCoherent) {
        out.decider = Decider::kSaturate;
        return decided;
      }
      if (decided.verdict == Verdict::kIncoherent) {
        out.decider = Decider::kSaturate;
        return CheckResult::no(
            certify::forced_order_refutation(view.addr(), std::move(order)),
            decided.stats);
      }
      break;  // §5.2 bailed (not expected): let the exact search decide
    }
    case saturate::Status::kPartial:
      break;
  }

  // Partial order: export the derived must-edges as a pruning oracle.
  // Every edge is necessary, so pruned subtrees are witness-free and the
  // search keeps bit-identical verdicts and witnesses.
  vmc::MustPrecede oracle;
  vmc::ExactOptions pruned = exact_options;
  if (!sat.edges.empty()) {
    for (const auto& [a, b] : sat.edges)
      oracle.add_edge(sat.writes_local[a], sat.writes_local[b]);
    std::vector<std::uint32_t> sizes;
    sizes.reserve(instance.execution.num_processes());
    for (std::uint32_t p = 0; p < instance.execution.num_processes(); ++p)
      sizes.push_back(
          static_cast<std::uint32_t>(instance.execution.history(p).size()));
    oracle.finalize(sizes);
    pruned.pruner = &oracle;
  }
  out.decider = Decider::kExact;
  if (portfolio.enabled) {
    obs::flight_event(obs::FlightEventKind::kTierEnter, "portfolio",
                      static_cast<std::uint64_t>(view.addr()),
                      sat.edges.size());
    return race_portfolio(instance, pruned, portfolio, out);
  }
  obs::flight_event(obs::FlightEventKind::kTierEnter, "exact",
                    static_cast<std::uint64_t>(view.addr()),
                    sat.edges.size());
  return vmc::check_exact(instance, pruned);
}

}  // namespace

RouteOutcome check_routed(const ProjectedView& view,
                          const std::vector<OpRef>* write_order,
                          const vmc::ExactOptions& exact_options,
                          const PortfolioOptions& portfolio) {
  obs::Span span("analysis.route");
  RouteOutcome out;
  const FragmentProfile profile = classify(view, write_order != nullptr);
  out.fragment = profile.fragment;
  if (span.active()) {
    span.attr("addr", static_cast<std::uint64_t>(view.addr()));
    span.attr("ops", view.num_ops());
    span.attr("fragment", to_string(profile.fragment));
  }
  // Flight breadcrumb: which tier this address entered (detail = the
  // classified fragment), matched by a kTierVerdict below.
  obs::flight_event(obs::FlightEventKind::kTierEnter,
                    to_string(profile.fragment),
                    static_cast<std::uint64_t>(view.addr()), view.num_ops());

  if (profile.fragment == Fragment::kEmpty) {
    out.decider = Decider::kTrivial;
    out.result = CheckResult::yes({});
    if (span.active()) span.attr("decider", to_string(out.decider));
    obs::flight_event(obs::FlightEventKind::kTierVerdict,
                      to_string(out.decider),
                      static_cast<std::uint64_t>(view.addr()),
                      static_cast<std::uint64_t>(out.result.verdict));
    if (obs::enabled()) {
      static const obs::Counter poly = obs::counter("vermem_poly_routed_total");
      count_fragment(out.fragment);
      poly.add();
    }
    return out;
  }

  const auto projection = view.materialize();
  const vmc::VmcInstance instance{projection.execution, view.addr()};

  CheckResult result;
  switch (profile.fragment) {
    case Fragment::kOneOp:
    case Fragment::kOneOpRmw: {
      // The classifier established the precondition; a wrong rmw_only
      // flag only makes the checker bail (kUnknown), never lie.
      obs::Span poly_span("poly.one_op");
      out.decider = Decider::kOneOp;
      result = profile.rmw_only ? vmc::check_rmw_one_op_per_process(instance)
                                : vmc::check_one_op_per_process(instance);
      break;
    }
    case Fragment::kWriteOnce:
    case Fragment::kWriteOnceRmw: {
      obs::Span poly_span("poly.write_once");
      out.decider = Decider::kWriteOnce;
      result = profile.rmw_only ? vmc::check_rmw_read_map(instance)
                                : vmc::check_read_map(instance);
      break;
    }
    case Fragment::kWriteOrder:
      out.decider = Decider::kWriteOrder;
      result = poly::decide_with_write_order(instance, view, *write_order,
                                             profile.rmw_only);
      break;
    case Fragment::kRmwChain:
      out.decider = Decider::kRmwChain;
      result = poly::decide_rmw_chain(instance);
      break;
    case Fragment::kEmpty:  // handled above
    case Fragment::kBoundedProcesses:
    case Fragment::kGeneral:
      result = saturate_then_exact(view, instance, exact_options, portfolio, out);
      break;
  }

  // A structural decider that bails (branching RMW chain, or a classifier
  // precondition the wrapped checker re-rejects) falls back through the
  // saturation tier to exact so routing never loses completeness. A
  // supplied write-order does not fall back: "coherent under this
  // serialization" is the question, and an invalid log is an answer
  // (surfaced separately as lint rule W004).
  if (result.verdict == Verdict::kUnknown && out.decider != Decider::kExact &&
      out.decider != Decider::kSaturate && out.decider != Decider::kWriteOrder) {
    result = saturate_then_exact(view, instance, exact_options, portfolio, out);
    out.fell_back = true;
  }

  // Witness and evidence back to original-execution coordinates.
  const auto to_original = [&](OpRef& ref) { ref = view.original_of(ref); };
  for (OpRef& ref : result.witness) to_original(ref);
  certify::for_each_ref(result.evidence, to_original);
  out.result = std::move(result);
  if (span.active()) span.attr("decider", to_string(out.decider));
  // The tier that actually decided (post-fallback), paired with the
  // kTierEnter above; b carries the verdict enum value.
  obs::flight_event(obs::FlightEventKind::kTierVerdict,
                    to_string(out.decider),
                    static_cast<std::uint64_t>(view.addr()),
                    static_cast<std::uint64_t>(out.result.verdict));
  if (obs::enabled()) {
    static const obs::Counter poly = obs::counter("vermem_poly_routed_total");
    static const obs::Counter exact = obs::counter("vermem_exact_routed_total");
    static const obs::Counter fallbacks =
        obs::counter("vermem_route_fallbacks_total");
    count_fragment(out.fragment);
    (out.decider == Decider::kExact ? exact : poly).add();
    if (out.fell_back) fallbacks.add();
  }
  return out;
}

void RouteTally::add(const RouteOutcome& outcome) {
  ++fragment_counts[static_cast<std::size_t>(outcome.fragment)];
  ++decider_counts[static_cast<std::size_t>(outcome.decider)];
  ++(outcome.decider == Decider::kExact ? exact_routed : poly_routed);
  if (outcome.saturation_ran) {
    ++saturate_ran;
    saturate_edges += outcome.saturation_edges;
    if (outcome.decider == Decider::kSaturate) ++saturate_decided;
    if (outcome.saturation_status == saturate::Status::kCycle)
      ++saturate_cycles;
    if (outcome.saturation_status == saturate::Status::kForcedTotal)
      ++saturate_forced;
  }
  if (outcome.portfolio_ran) {
    ++portfolio_races;
    if (outcome.portfolio_escalated) ++portfolio_escalations;
    if (outcome.result.verdict != Verdict::kUnknown)
      ++engine_wins[static_cast<std::size_t>(outcome.portfolio_winner)];
    wasted_effort.merge(outcome.wasted_effort);
  }
}

void RouteTally::merge(const RouteTally& other) {
  for (std::size_t f = 0; f < kNumFragments; ++f)
    fragment_counts[f] += other.fragment_counts[f];
  for (std::size_t d = 0; d < kNumDeciders; ++d)
    decider_counts[d] += other.decider_counts[d];
  poly_routed += other.poly_routed;
  exact_routed += other.exact_routed;
  saturate_ran += other.saturate_ran;
  saturate_decided += other.saturate_decided;
  saturate_cycles += other.saturate_cycles;
  saturate_forced += other.saturate_forced;
  saturate_edges += other.saturate_edges;
  portfolio_races += other.portfolio_races;
  portfolio_escalations += other.portfolio_escalations;
  for (std::size_t e = 0; e < kNumEngines; ++e)
    engine_wins[e] += other.engine_wins[e];
  wasted_effort.merge(other.wasted_effort);
}

RoutedReport verify_coherence_routed(const AddressIndex& index,
                                     const vmc::WriteOrderMap* write_orders,
                                     const vmc::ExactOptions& exact_options,
                                     const PortfolioOptions& portfolio,
                                     std::size_t workers) {
  obs::Span span("analysis.verify_routed");
  const std::size_t count = index.num_addresses();
  if (span.active()) {
    span.attr("addresses", count);
    span.attr("ops", index.execution().num_operations());
  }
  const auto route = [&](std::size_t i) {
    const std::vector<OpRef>* order = nullptr;
    if (write_orders) {
      const auto it = write_orders->find(index.entry(i).addr);
      if (it != write_orders->end()) order = &it->second;
    }
    return check_routed(index.view_at(i), order, exact_options, portfolio);
  };

  RoutedReport out;
  std::vector<vmc::AddressReport> reports;
  reports.reserve(count);
  out.fragments.reserve(count);
  out.deciders.reserve(count);
  const auto record = [&](std::size_t i, RouteOutcome&& outcome) {
    out.routing.add(outcome);
    out.fragments.push_back(outcome.fragment);
    out.deciders.push_back(outcome.decider);
    reports.push_back({index.entry(i).addr, std::move(outcome.result)});
  };
  // Skipped addresses carry no routing information; they are not
  // counted in the tally.
  const auto skip = [&](std::size_t i, const char* why) {
    reports.push_back(
        {index.entry(i).addr,
         CheckResult::unknown(certify::UnknownReason::kSkipped, why)});
    out.fragments.push_back(Fragment::kGeneral);
    out.deciders.push_back(Decider::kExact);
  };
  const char* const kInterrupted = "deadline expired or request cancelled";

  if (effective_workers(workers, count) <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (interrupted(exact_options))
        skip(i, kInterrupted);
      else
        record(i, route(i));
    }
  } else {
    // Size-aware dispatch: hand the fattest instances out first so the
    // sweep's tail is a cheap address, not the one hard one. Outcomes
    // keep address-sorted slots, so the report is schedule-independent.
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return index.entry(a).op_count > index.entry(b).op_count;
                     });
    std::vector<std::optional<RouteOutcome>> outcomes(count);
    std::atomic<bool> incoherent{false};
    CancellationToken stop;
    parallel_for_each_cancellable(count, workers, stop, [&](std::size_t k) {
      // Stop scheduling once the caller's own budget fires; in-flight
      // checks notice through ExactOptions.
      if (interrupted(exact_options)) {
        stop.cancel();
        return;
      }
      const std::size_t slot = order[k];
      outcomes[slot] = route(slot);
      // An incoherent address decides the whole trace; stop the fleet.
      if (outcomes[slot]->result.verdict == Verdict::kIncoherent) {
        incoherent.store(true, std::memory_order_relaxed);
        stop.cancel();
      }
    });
    const char* skip_note = incoherent.load(std::memory_order_relaxed)
                                ? "another address already proved incoherent"
                                : kInterrupted;
    for (std::size_t i = 0; i < count; ++i) {
      if (outcomes[i])
        record(i, std::move(*outcomes[i]));
      else
        skip(i, skip_note);
    }
  }
  out.report = vmc::aggregate_reports(std::move(reports));
  if (span.active()) {
    span.attr("poly_routed", out.routing.poly_routed);
    span.attr("verdict", vmc::to_string(out.report.verdict));
  }
  return out;
}

}  // namespace vermem::analysis
