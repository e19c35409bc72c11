#include "analysis/router.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
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
#include "support/cancellation.hpp"
#include "support/stopwatch.hpp"
#include "vmc/bounded.hpp"
#include "vmc/exact.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"

namespace vermem::analysis {

namespace {

using vmc::CheckResult;
using vmc::Verdict;

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

/// One address as the deciders see it. The frontier search and the
/// write-once read-map decider read the view and its value table; the
/// other polynomial deciders, the §5.2 re-check and the CDCL and
/// bounded-k engines take an Execution, which instance() materializes on
/// first use, so an address those two decide never builds one.
struct Subject {
  const ProjectedView& view;
  const ValueTable& values;
  std::optional<vmc::VmcInstance> materialized;

  const vmc::VmcInstance& instance() {
    if (!materialized) materialized.emplace(view.materialize(), view.addr());
    return *materialized;
  }
};

/// One engine's run in a portfolio race, which materialized the instance
/// before it started. Every arm is budgeted by the caller's limits with
/// the race's linked cancellation token in place of the caller's, and
/// every definite verdict obeys the certification discipline of its
/// engine.
CheckResult run_engine(Engine engine, const Subject& subject,
                       const vmc::ExactOptions& exact_options,
                       const CancellationToken& stop) {
  switch (engine) {
    case Engine::kExactSearch: {
      vmc::ExactOptions options = exact_options;
      options.cancel = &stop;
      return vmc::check_exact(subject.view, subject.values, options);
    }
    case Engine::kCdcl: {
      sat::SolverOptions options;
      options.deadline = exact_options.deadline;
      options.cancel = &stop;
      return encode::check_via_sat(*subject.materialized, options);
    }
    case Engine::kBoundedK: {
      search::Limits limits = exact_options;
      limits.cancel = &stop;
      return vmc::check_bounded_k(*subject.materialized, limits);
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
Race run_race(const std::vector<Engine>& engines, const Subject& subject,
              const vmc::ExactOptions& exact_options, CancellationToken& stop) {
  Race race;
  race.results.resize(engines.size());
  std::atomic<int> first_definite{-1};
  const Stopwatch race_clock;
  // race_clock time of the win; written only by the CAS winner and read
  // after every arm has joined.
  std::int64_t decided_ns = 0;
  const auto arm = [&](std::size_t i) {
    CheckResult result = run_engine(engines[i], subject, exact_options, stop);
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
// the ~150 ns per state measured there (vmc.exact_ns_per_state, 4 vCPU,
// RelWithDebInfo), 4096 states take ~0.6 ms: the most an instance that
// does escalate pays on top of its race, which on the SAT-reduction
// instances that need it runs from milliseconds to hundreds of
// milliseconds.
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
CheckResult race_portfolio(Subject& subject,
                           const vmc::ExactOptions& exact_options,
                           const PortfolioOptions& portfolio,
                           RouteOutcome& out) {
  obs::Span span("analysis.portfolio");
  out.portfolio_ran = true;
  const auto finish = [&](CheckResult result, Engine winner,
                          std::int64_t join_wait_ns) {
    out.portfolio_winner = winner;
    if (span.active()) {
      span.attr("addr", static_cast<std::uint64_t>(subject.view.addr()));
      span.attr("escalated", out.portfolio_escalated);
      span.attr("wasted_states", out.wasted_effort.states_visited);
      // Time the losers took to notice the cancel and be joined.
      span.attr("join_wait_ns", static_cast<std::uint64_t>(join_wait_ns));
      span.attr("winner", to_string(winner));
      span.attr("verdict", vmc::to_string(result.verdict));
    }
    obs::flight_event(obs::FlightEventKind::kTierVerdict, to_string(winner),
                      static_cast<std::uint64_t>(subject.view.addr()),
                      static_cast<std::uint64_t>(result.verdict));
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
    solo = vmc::check_exact(subject.view, subject.values, options);
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

  subject.instance();  // before any arm's thread starts
  CancellationToken stop(exact_options.cancel);
  Race race = run_race(engines, subject, exact_options, stop);
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

/// The saturation pass: derive the must-precede graph and decide
/// outright when it resolves (cycle / forced total order /
/// contradiction). Otherwise return nullopt with the cross-history edges
/// in `oracle`: a program-order edge never prunes (next() offers (p, i)
/// only once every (p, j < i) is scheduled), so those stay out, and with
/// none left `oracle` stays empty. All evidence leaves in projected
/// coordinates; the pass's result stays in `out.saturation`.
std::optional<CheckResult> saturate_or_oracle(Subject& subject,
                                              RouteOutcome& out,
                                              vmc::MustPrecede& oracle) {
  const ProjectedView& view = subject.view;
  obs::flight_event(obs::FlightEventKind::kTierEnter, "saturate",
                    static_cast<std::uint64_t>(view.addr()));
  const saturate::Result& sat = out.saturation.emplace([&] {
    obs::Span span("analysis.saturate");
    saturate::Result r = saturate::saturate(view);
    // The enclosing analysis.route span carries the address; four
    // numeric attributes is the span cap.
    if (span.active()) {
      span.attr("writes", r.num_writes());
      span.attr("edges", r.edges.size());
      span.attr("rounds", r.rounds);
      span.attr("branch_points", r.branch_points);
      span.attr("status", saturate::to_string(r.status));
    }
    return r;
  }());
  out.saturation_ran = true;

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
      CheckResult decided =
          vmc::check_with_write_order(subject.instance(), order);
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

  bool cross = false;
  for (const auto& [a, b] : sat.edges) {
    const OpRef before = sat.writes_local[a];
    const OpRef after = sat.writes_local[b];
    if (before.process == after.process) continue;
    oracle.add_edge(before, after);
    cross = true;
  }
  if (cross) {
    std::vector<std::uint32_t> sizes;
    sizes.reserve(view.num_histories());
    for (std::size_t h = 0; h < view.num_histories(); ++h)
      sizes.push_back(static_cast<std::uint32_t>(view.history(h).size()));
    oracle.finalize(sizes);
  }
  return std::nullopt;
}

/// The saturation tier for kBoundedProcesses/kGeneral (and structural
/// fallbacks), then the exact search with the tier's cross-history
/// must-edges as a pruning oracle. Every edge is necessary, so pruned
/// subtrees are witness-free and the search keeps bit-identical verdicts
/// and witnesses. An `inert` address (saturate::inert) skips the pass: it
/// would derive program-order edges only.
CheckResult saturate_then_exact(Subject& subject, const search::Limits& limits,
                                const PortfolioOptions& portfolio, bool inert,
                                RouteOutcome& out) {
  const ProjectedView& view = subject.view;
  vmc::MustPrecede oracle;
  if (inert)
    out.saturation_skipped = true;
  else if (auto decided = saturate_or_oracle(subject, out, oracle))
    return std::move(*decided);
  vmc::ExactOptions pruned{limits};
  if (!oracle.empty()) pruned.pruner = &oracle;
  out.decider = Decider::kExact;
  if (portfolio.enabled) {
    obs::flight_event(obs::FlightEventKind::kTierEnter, "portfolio",
                      static_cast<std::uint64_t>(view.addr()),
                      oracle.preds.size());
    return race_portfolio(subject, pruned, portfolio, out);
  }
  obs::flight_event(obs::FlightEventKind::kTierEnter, "exact",
                    static_cast<std::uint64_t>(view.addr()),
                    oracle.preds.size());
  return vmc::check_exact(view, subject.values, pruned);
}

RouteOutcome route(const ProjectedView& view,
                   const std::vector<OpRef>* write_order,
                   const search::Limits& limits,
                   const PortfolioOptions& portfolio) {
  obs::Span span("analysis.route");
  RouteOutcome out;
  const ValueTable values(view);
  const FragmentProfile& profile = out.profile =
      classify(view, values, write_order != nullptr);
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
    return out;
  }

  Subject subject{view, values, std::nullopt};

  CheckResult result;
  switch (profile.fragment) {
    case Fragment::kOneOp:
    case Fragment::kOneOpRmw: {
      // The classifier established the precondition; a wrong rmw_only
      // flag only makes the checker bail (kUnknown), never lie.
      obs::Span poly_span("poly.one_op");
      out.decider = Decider::kOneOp;
      result = profile.rmw_only
                   ? vmc::check_rmw_one_op_per_process(subject.instance())
                   : vmc::check_one_op_per_process(subject.instance());
      break;
    }
    case Fragment::kWriteOnce:
    case Fragment::kWriteOnceRmw: {
      obs::Span poly_span("poly.write_once");
      out.decider = Decider::kWriteOnce;
      result = profile.rmw_only ? vmc::check_rmw_read_map(subject.instance())
                                : vmc::check_read_map(view, values);
      break;
    }
    case Fragment::kWriteOrder:
      out.decider = Decider::kWriteOrder;
      result = poly::decide_with_write_order(subject.instance(), view,
                                             *write_order, profile.rmw_only);
      break;
    case Fragment::kRmwChain:
      out.decider = Decider::kRmwChain;
      result = poly::decide_rmw_chain(subject.instance());
      break;
    case Fragment::kEmpty:  // handled above
    case Fragment::kBoundedProcesses:
    case Fragment::kGeneral:
      result = saturate_then_exact(subject, limits, portfolio,
                                   profile.saturation_inert, out);
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
    result = saturate_then_exact(subject, limits, portfolio,
                                 profile.saturation_inert, out);
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
  return out;
}

/// The registry series RouteTally::publish feeds from its scalar fields;
/// RouteTally::merge sums these fields through the same table.
constexpr std::pair<std::uint64_t RouteTally::*, const char*> kScalarSeries[] = {
    {&RouteTally::poly_routed, "vermem_poly_routed_total"},
    {&RouteTally::exact_routed, "vermem_exact_routed_total"},
    {&RouteTally::fallbacks, "vermem_route_fallbacks_total"},
    {&RouteTally::saturate_cycles,
     "vermem_saturate_outcomes_total{outcome=\"cycle\"}"},
    {&RouteTally::saturate_forced,
     "vermem_saturate_outcomes_total{outcome=\"forced\"}"},
    {&RouteTally::saturate_partial,
     "vermem_saturate_outcomes_total{outcome=\"partial\"}"},
    {&RouteTally::saturate_contradictions,
     "vermem_saturate_outcomes_total{outcome=\"contradiction\"}"},
    {&RouteTally::saturate_edges, "vermem_saturate_must_edges_total"},
    {&RouteTally::saturate_skipped, "vermem_saturate_skipped_total"},
    {&RouteTally::portfolio_races, "vermem_portfolio_races_total"},
    {&RouteTally::portfolio_escalations, "vermem_portfolio_escalations_total"},
};

}  // namespace

RouteOutcome check_routed(const ProjectedView& view,
                          const std::vector<OpRef>* write_order,
                          const search::Limits& limits,
                          const PortfolioOptions& portfolio) {
  RouteOutcome out = route(view, write_order, limits, portfolio);
  if (obs::enabled()) {
    RouteTally one;
    one.add(out);
    one.publish();
  }
  return out;
}

void RouteTally::add(const RouteOutcome& outcome) {
  ++fragment_counts[static_cast<std::size_t>(outcome.profile.fragment)];
  ++decider_counts[static_cast<std::size_t>(outcome.decider)];
  ++(outcome.decider == Decider::kExact ? exact_routed : poly_routed);
  if (outcome.fell_back) ++fallbacks;
  if (outcome.saturation_skipped) ++saturate_skipped;
  if (outcome.saturation) {
    ++saturate_ran;
    saturate_edges += outcome.saturation->edges.size();
    if (outcome.decider == Decider::kSaturate) ++saturate_decided;
    switch (outcome.saturation->status) {
      case saturate::Status::kCycle: ++saturate_cycles; break;
      case saturate::Status::kForcedTotal: ++saturate_forced; break;
      case saturate::Status::kPartial: ++saturate_partial; break;
      case saturate::Status::kContradiction: ++saturate_contradictions; break;
    }
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
  for (const auto& [field, name] : kScalarSeries) this->*field += other.*field;
  saturate_ran += other.saturate_ran;
  saturate_decided += other.saturate_decided;
  for (std::size_t e = 0; e < kNumEngines; ++e)
    engine_wins[e] += other.engine_wins[e];
  wasted_effort.merge(other.wasted_effort);
}

void RouteTally::publish() const {
  if (!obs::enabled()) return;
  // Registered together on first use, so every series is exported (at 0
  // until something counts), in the order the values are added below.
  static const std::vector<obs::Counter> counters = [] {
    std::vector<obs::Counter> out;
    for (std::size_t f = 0; f < kNumFragments; ++f)
      out.push_back(obs::counter(
          std::string("vermem_fragments_total{fragment=\"") +
          to_string(static_cast<Fragment>(f)) + "\"}"));
    for (std::size_t e = 0; e < kNumEngines; ++e)
      out.push_back(obs::counter(
          std::string("vermem_portfolio_wins_total{engine=\"") +
          to_string(static_cast<Engine>(e)) + "\"}"));
    for (const auto& [field, name] : kScalarSeries)
      out.push_back(obs::counter(name));
    out.push_back(obs::counter("vermem_portfolio_wasted_states_total"));
    out.push_back(obs::counter("vermem_portfolio_wasted_transitions_total"));
    return out;
  }();
  std::size_t next = 0;
  const auto add = [&](std::uint64_t n) {
    if (n != 0) counters[next].add(n);
    ++next;
  };
  for (const std::uint64_t n : fragment_counts) add(n);
  for (const std::uint64_t n : engine_wins) add(n);
  for (const auto& [field, name] : kScalarSeries) add(this->*field);
  add(wasted_effort.states_visited);
  add(wasted_effort.transitions);
}

RoutedReport verify_coherence_routed(const AddressIndex& index,
                                     const vmc::WriteOrderMap* write_orders,
                                     const search::Limits& limits,
                                     const PortfolioOptions& portfolio) {
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
    return check_routed(index.view_at(i), order, limits, portfolio);
  };

  RoutedReport out;
  std::vector<vmc::AddressReport> reports;
  reports.reserve(count);
  out.fragments.reserve(count);
  out.deciders.reserve(count);
  out.facts.reserve(count);
  const auto record = [&](std::size_t i, RouteOutcome&& outcome) {
    out.routing.add(outcome);
    out.fragments.push_back(outcome.profile.fragment);
    out.deciders.push_back(outcome.decider);
    out.facts.push_back(RouteFacts{outcome.profile, std::move(outcome.saturation)});
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
    out.facts.emplace_back();
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (limits.interrupted())
      skip(i, "deadline expired or request cancelled");
    else
      record(i, route(i));
  }
  out.report = vmc::aggregate_reports(std::move(reports));
  if (span.active()) {
    span.attr("poly_routed", out.routing.poly_routed);
    span.attr("verdict", vmc::to_string(out.report.verdict));
  }
  return out;
}

}  // namespace vermem::analysis
