#include "service/service.hpp"

#include <optional>
#include <string_view>
#include <utility>

#include "models/checker.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "support/hash.hpp"
#include "support/stopwatch.hpp"
#include "trace/address_index.hpp"
#include "trace/fingerprint.hpp"
#include "vsc/vscc.hpp"

namespace vermem::service {

namespace {

/// Folds the check policy into the trace fingerprint. Effort budgets are
/// deliberately excluded: only definite verdicts are cached, and a
/// definite verdict is budget-independent.
std::uint64_t cache_key_for(std::uint64_t trace_fingerprint,
                            const VerificationRequest& request) {
  std::uint64_t seed = trace_fingerprint;
  hash_combine(seed, static_cast<std::uint64_t>(request.mode));
  if (request.mode == CheckMode::kConsistency)
    hash_combine(seed, static_cast<std::uint64_t>(request.model));
  return mix64(seed);
}

double micros_between(Stopwatch::Clock::time_point from,
                      Stopwatch::Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Reason string for an aggregate coherence report: the first violation
/// for kIncoherent, the first undecided address's note for kUnknown.
std::string reason_for(const vmc::CoherenceReport& report) {
  if (const auto* violation = report.first_violation())
    return "address " + std::to_string(violation->addr) + ": " +
           (violation->result.reason().empty() ? "no coherent schedule exists"
                                           : violation->result.reason());
  if (report.verdict == vmc::Verdict::kUnknown)
    if (const auto* undecided = report.first_undecided())
      return "address " + std::to_string(undecided->addr) + ": " +
             undecided->result.reason();
  return {};
}

/// The exact-tier engine policy of a request's routed coherence checks,
/// for every mode that routes addresses (kCoherence and kVscc).
analysis::PortfolioOptions portfolio_for(SolverChoice choice) {
  analysis::PortfolioOptions portfolio;
  switch (choice) {
    case SolverChoice::kAuto: break;
    case SolverChoice::kPortfolio: portfolio.enabled = true; break;
    case SolverChoice::kCdcl:
      portfolio.enabled = true;
      portfolio.only = analysis::Engine::kCdcl;
      break;
  }
  return portfolio;
}

/// Copies the routing's race provenance into the response. Races keep
/// `effort` winner-only: cancelled losers land in wasted_effort, never in
/// the latency-explaining tallies.
void set_portfolio_provenance(VerificationResponse& response,
                              const analysis::RouteTally& routing) {
  response.portfolio_races = routing.portfolio_races;
  response.engine_wins = routing.engine_wins;
  response.wasted_effort = routing.wasted_effort;
}

/// SLO/stats bucket for a queued request's mode (streamed runs use
/// obs::RequestKind::kStream directly).
constexpr obs::RequestKind kind_of(CheckMode mode) noexcept {
  switch (mode) {
    case CheckMode::kCoherence: return obs::RequestKind::kCoherence;
    case CheckMode::kVscc: return obs::RequestKind::kVscc;
    case CheckMode::kConsistency: return obs::RequestKind::kConsistency;
  }
  return obs::RequestKind::kCoherence;
}

/// The flight summary of one response, queued or streamed: its verdict
/// flags, `latency_nanos`, and its solver effort plus the router's
/// saturation/portfolio tallies copied into the recorder's plain mirror
/// struct (obs/ sits below vmc/ and analysis/ and cannot see SearchStats
/// or RouteTally itself).
obs::FlightScope::Summary flight_summary(const VerificationResponse& response,
                                         std::uint64_t latency_nanos,
                                         const analysis::RouteTally& routing) {
  obs::FlightScope::Summary summary;
  summary.verdict = vmc::to_string(response.verdict);
  summary.unknown = response.verdict == vmc::Verdict::kUnknown;
  summary.incoherent = response.verdict == vmc::Verdict::kIncoherent;
  summary.timed_out = response.timed_out;
  summary.cancelled = response.cancelled;
  summary.latency_nanos = latency_nanos;
  const vmc::SearchStats& stats = response.effort;
  obs::FlightEffort& out = summary.effort;
  out.states = stats.states_visited;
  out.transitions = stats.transitions;
  out.max_frontier = stats.max_frontier;
  out.prunes = stats.prunes;
  out.oracle_prunes = stats.oracle_prunes;
  out.arena_reserved = stats.arena_reserved;
  out.arena_high_water = stats.arena_high_water;
  out.arena_allocations = stats.arena_allocations;
  out.saturate_ran = routing.saturate_ran;
  out.saturate_decided = routing.saturate_decided;
  out.saturate_edges = routing.saturate_edges;
  out.portfolio_races = routing.portfolio_races;
  out.portfolio_wasted_states = routing.wasted_effort.states_visited;
  out.portfolio_wasted_transitions = routing.wasted_effort.transitions;
  return summary;
}

}  // namespace

std::string ServiceStats::to_prometheus() const {
  std::string out;
  const auto series = [&out](std::string_view type, std::string_view name,
                             std::uint64_t value) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  const auto counter = [&](std::string_view name, std::uint64_t value) {
    series("counter", name, value);
  };
  const auto gauge = [&](std::string_view name, std::uint64_t value) {
    series("gauge", name, value);
  };
  counter("vermem_service_submitted_total", submitted);
  counter("vermem_service_cache_hits_total", cache_hits);
  counter("vermem_service_cache_misses_total", cache_misses);
  counter("vermem_service_timed_out_total", timed_out);
  counter("vermem_service_cancelled_total", cancelled);
  out += "# TYPE vermem_service_verdicts_total counter\n";
  out += "vermem_service_verdicts_total{verdict=\"coherent\"} " +
         std::to_string(coherent) + "\n";
  out += "vermem_service_verdicts_total{verdict=\"incoherent\"} " +
         std::to_string(incoherent) + "\n";
  out += "vermem_service_verdicts_total{verdict=\"unknown\"} " +
         std::to_string(unknown) + "\n";
  gauge("vermem_service_queue_depth", queue_depth);
  gauge("vermem_service_in_flight", in_flight);
  gauge("vermem_service_cache_entries", cache_entries);
  counter("vermem_service_lint_warnings_total", lint_warnings);
  counter("vermem_service_streamed_total", streamed);
  counter("vermem_service_stream_events_total", stream_events);
  counter("vermem_service_effort_states_total", effort.states_visited);
  counter("vermem_service_effort_transitions_total", effort.transitions);
  counter("vermem_service_effort_prunes_total", effort.prunes);
  gauge("vermem_service_effort_max_frontier", effort.max_frontier);
  counter("vermem_service_effort_arena_reserved_bytes_total",
          effort.arena_reserved);
  counter("vermem_service_effort_arena_allocations_total",
          effort.arena_allocations);
  gauge("vermem_service_effort_arena_high_water_bytes",
        effort.arena_high_water);
  gauge("vermem_service_flight_retained", flight_retained);
  counter("vermem_service_flight_retained_total", flight_retained_total);
  // Responses and their latency are the registry's
  // vermem_service_responses_total and vermem_service_latency_nanos; this
  // is the per-kind breakdown, one labeled series per request kind (empty
  // kinds are skipped, matching the SLO exposition).
  out += "# TYPE vermem_service_kind_latency_nanos histogram\n";
  for (std::size_t k = 0; k < obs::kNumRequestKinds; ++k) {
    if (kinds[k].total == 0) continue;
    const std::string labels = std::string("kind=\"") +
        obs::to_string(static_cast<obs::RequestKind>(k)) + '"';
    obs::append_histogram_prometheus(out, "vermem_service_kind_latency_nanos",
                                     labels, kinds[k].latency_nanos);
  }
  out += slo.to_prometheus();
  return out;
}

/// What one response adds to the counters beyond its own fields.
struct VerificationService::Accounting {
  obs::RequestKind kind = obs::RequestKind::kCoherence;
  std::uint64_t latency_nanos = 0;
  analysis::RouteTally routing;
};

struct VerificationService::Slot {
  VerificationRequest request;
  std::promise<VerificationResponse> promise;
  std::shared_ptr<CancellationToken> token =
      std::make_shared<CancellationToken>();
  Deadline deadline = Deadline::never();  ///< absolute, fixed at submit
  Stopwatch::Clock::time_point submitted{};
  Stopwatch::Clock::time_point dispatched{};
  std::uint64_t fingerprint = 0;
  std::uint64_t cache_key = 0;
  bool cacheable = false;  ///< cache enabled and not bypassed
  /// Built by the worker at the top of execute(), reused by the checkers
  /// and the analyzer. Borrows request.execution, which lives in this
  /// Slot and never moves after construction.
  std::optional<AddressIndex> index;
  /// Filled by execute(), completed and consumed by respond().
  Accounting accounting;
};

VerificationService::VerificationService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      slo_(options.slo),
      pool_(options.workers) {}

VerificationService::~VerificationService() { shutdown(); }

VerificationService::Ticket VerificationService::submit(
    VerificationRequest request) {
  auto slot = std::make_shared<Slot>();
  slot->submitted = Stopwatch::Clock::now();
  slot->request = std::move(request);
  if (slot->request.deadline)
    slot->deadline = Deadline(*slot->request.deadline);
  // The fingerprint exists to key the cache; an uncacheable request
  // (bypass, analyze, certify, or cache disabled) skips the O(n) hashing
  // pass and reports fingerprint 0. Analyze and certify requests are
  // uncacheable because a cached verdict carries no analysis report and
  // no certificates.
  slot->cacheable = !slot->request.bypass_cache && !slot->request.analyze &&
                    !slot->request.certify && options_.cache_capacity != 0;
  if (slot->cacheable) {
    slot->fingerprint =
        slot->request.write_orders
            ? fingerprint_execution(slot->request.execution,
                                    *slot->request.write_orders)
            : fingerprint_execution(slot->request.execution);
    slot->cache_key = cache_key_for(slot->fingerprint, slot->request);
  }

  Ticket ticket;
  ticket.token_ = slot->token;
  ticket.response = slot->promise.get_future();

  std::optional<CachedVerdict> cached;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    if (shutting_down_) {
      rejected = true;
    } else if (slot->cacheable && (cached = cache_.lookup(slot->cache_key))) {
      ++counters_.cache_hits;
    } else {
      if (slot->cacheable) ++counters_.cache_misses;
      // Posting under mutex_, after the shutting_down_ check, orders every
      // post before shutdown()'s pool_.shutdown(), so none can throw.
      pool_.post([this, slot] { run_request(slot); });
    }
  }

  if (rejected) {
    VerificationResponse response;
    response.cancelled = true;
    response.reason = "service shut down";
    response.tag = slot->request.tag;
    response.fingerprint = slot->fingerprint;
    respond(*slot, std::move(response));
    return ticket;
  }
  if (cached) {
    VerificationResponse response;
    response.verdict = cached->verdict;
    response.reason = std::move(cached->reason);
    response.cache_hit = true;
    response.fingerprint = slot->fingerprint;
    response.tag = slot->request.tag;
    response.num_operations = slot->request.execution.num_operations();
    response.num_addresses = cached->num_addresses;
    respond(*slot, std::move(response));
  }
  return ticket;
}

void VerificationService::run_request(const std::shared_ptr<Slot>& slot) {
  slot->dispatched = Stopwatch::Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A shut-down service resolves the request as cancelled below.
    if (shutting_down_)
      slot->token->cancel();
    else
      active_.insert(slot.get());
  }

  VerificationResponse response = execute(*slot);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slot->cacheable && response.verdict != vmc::Verdict::kUnknown)
      cache_.insert(slot->cache_key,
                    CachedVerdict{response.verdict, response.reason,
                                  response.num_addresses});
    active_.erase(slot.get());
  }
  respond(*slot, std::move(response));
}

VerificationResponse VerificationService::execute(Slot& slot) {
  // The flight scope opens before the request span so the whole span
  // tree lands inside the capture window, and finishes after the span
  // closes so the captured tree is complete when the policy evaluates.
  obs::FlightScope flight(to_string(slot.request.mode), slot.request.tag);
  VerificationResponse response;
  [&] {
  obs::Span span("service.request");
  Stopwatch run_timer;
  // One O(n) indexing pass; the checkers and the analyzer reuse it. A
  // cancelled request skips it and resolves below without touching it.
  if (!slot.token->cancelled()) slot.index.emplace(slot.request.execution);
  response.tag = slot.request.tag;
  response.fingerprint = slot.fingerprint;
  response.num_operations = slot.request.execution.num_operations();
  if (slot.index) response.num_addresses = slot.index->num_addresses();
  response.queue_micros = micros_between(slot.submitted, slot.dispatched);
  if (span.active()) {
    span.attr("ops", response.num_operations);
    span.attr("addresses", response.num_addresses);
    span.attr("mode", to_string(slot.request.mode));
  }

  if (slot.token->cancelled()) {
    response.cancelled = true;
    response.reason = "cancelled before verification started";
    return;
  }
  if (slot.deadline.expired()) {
    response.timed_out = true;
    response.reason = "deadline expired before verification started";
    return;
  }

  // The whole-execution SC result, kept for the execution-scope
  // certificate when a certified kVscc request runs.
  std::optional<vmc::CheckResult> sc_result;
  // What coherence routing computed per address, for the --analyze pass.
  std::vector<std::optional<analysis::RouteFacts>> route_facts;

  // The one budget of this request; every mode runs under it.
  const search::Limits limits{
      .max_states = slot.request.budget.max_states,
      .max_transitions = slot.request.budget.max_transitions,
      .deadline = slot.deadline,
      .cancel = slot.token.get()};

  switch (slot.request.mode) {
    case CheckMode::kCoherence: {
      // Shape-directed routing: classify each per-address projection into
      // its Figure 5.3 fragment and decide it with the dedicated
      // polynomial checker; only general-shaped instances reach the
      // saturation tier and the exact search.
      analysis::RoutedReport routed = analysis::verify_coherence_routed(
          *slot.index,
          slot.request.write_orders ? &*slot.request.write_orders : nullptr,
          limits, portfolio_for(slot.request.solver));
      response.verdict = routed.report.verdict;
      response.reason = reason_for(routed.report);
      // Effort (including arena counters and peak provenance) was merged
      // once at aggregation time; reuse it rather than re-summing here.
      response.effort = routed.report.effort;
      set_portfolio_provenance(response, routed.routing);
      response.coherence = std::move(routed.report);
      slot.accounting.routing = routed.routing;
      route_facts = std::move(routed.facts);
      break;
    }
    case CheckMode::kVscc: {
      // Routed per-address coherence (honouring the write-order log),
      // the VSC-Conflict merge, and the exact SC search only when the
      // merge fails, all under this request's limits. There is one
      // pipeline, so the answer never depends on which worker ran it.
      vsc::VsccOptions vscc;
      vscc.coherence = limits;
      vscc.sc = limits;
      if (slot.request.write_orders)
        vscc.write_orders = &*slot.request.write_orders;
      vscc.portfolio = portfolio_for(slot.request.solver);
      vsc::VsccReport report = vsc::check_vscc(*slot.index, vscc);
      response.verdict = report.sc.verdict;
      response.reason = report.sc.reason();
      response.effort = report.coherence.effort;
      response.effort.merge(report.sc.stats);
      set_portfolio_provenance(response, report.routing);
      response.coherence = std::move(report.coherence);
      slot.accounting.routing = report.routing;
      if (slot.request.certify) sc_result = std::move(report.sc);
      break;
    }
    case CheckMode::kConsistency: {
      const vmc::CheckResult result = models::check_model(
          slot.request.execution, slot.request.model, limits);
      response.verdict = result.verdict;
      response.reason = result.reason();
      response.effort = result.stats;
      break;
    }
  }

  if (slot.request.certify && slot.request.mode != CheckMode::kConsistency) {
    response.certificates.reserve(response.coherence.addresses.size() +
                                  (sc_result ? 1 : 0));
    for (const auto& address : response.coherence.addresses)
      response.certificates.push_back(certify::from_result(
          certify::Scope::kAddress, address.addr, address.result));
    // The whole-execution SC verdict (kVscc) gets its own certificate,
    // after the per-address ones.
    if (sc_result)
      response.certificates.push_back(
          certify::from_result(certify::Scope::kExecution, 0, *sc_result));
  }
  // Witnesses were needed above (certificates embed them); the report's
  // copies go only to callers who asked to keep them.
  if (slot.request.drop_witnesses)
    for (auto& address : response.coherence.addresses)
      address.result.witness.clear();

  if (slot.request.analyze) {
    // Static pass over the same AddressIndex the checkers used; cheap
    // (O(n)) and deterministic, so it runs even after an unknown verdict.
    // It reuses what coherence routing already computed per address.
    response.analysis = analysis::analyze(
        *slot.index,
        slot.request.write_orders ? &*slot.request.write_orders : nullptr,
        route_facts);
    response.analyzed = true;
  }

  if (response.verdict == vmc::Verdict::kUnknown) {
    response.timed_out = slot.deadline.expired();
    response.cancelled = !response.timed_out && slot.token->cancelled();
    if (response.reason.empty())
      response.reason = response.timed_out  ? "deadline expired"
                        : response.cancelled ? "request cancelled"
                                             : "effort budget exhausted";
  }
  response.run_micros = run_timer.millis() * 1e3;
  if (span.active()) span.attr("verdict", to_string(response.verdict));
  if (obs::enabled()) {
    static const obs::Histogram queue_nanos =
        obs::histogram("vermem_service_queue_nanos");
    static const obs::Histogram run_nanos =
        obs::histogram("vermem_service_run_nanos");
    queue_nanos.observe_nanos(response.queue_micros * 1e3);
    run_nanos.observe_nanos(response.run_micros * 1e3);
  }
  }();

  if (flight.active()) {
    if (response.timed_out)
      obs::flight_event(obs::FlightEventKind::kDeadline,
                        "deadline expired before a definite verdict");
    else if (response.cancelled)
      obs::flight_event(obs::FlightEventKind::kCancelled,
                        "request cancelled");
    const double total_micros = response.queue_micros + response.run_micros;
    response.flight_id = flight.finish(flight_summary(
        response,
        total_micros <= 0 ? 0 : static_cast<std::uint64_t>(total_micros * 1e3),
        slot.accounting.routing));
  }
  return response;
}

VerificationResponse VerificationService::verify_stream(std::istream& in,
                                                        StreamRequest request) {
  BinaryTraceReader reader(in, {}, request.options.limits);
  return verify_stream(reader, std::move(request));
}

VerificationResponse VerificationService::verify_stream(
    BinaryTraceReader& reader, StreamRequest request) {
  // Scope before span: the stream's span tree (reader loop, shard joins)
  // must land inside the capture window. Shard-thread events stay on
  // their own rings; the caller thread records the deadline/cancel
  // outcome below so a retained record is self-explaining.
  obs::FlightScope flight("stream", request.tag);
  Stopwatch run_timer;
  VerificationResponse response;
  response.tag = request.tag;

  if (request.deadline)
    request.options.exact.deadline = Deadline(*request.deadline);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      response.cancelled = true;
      response.reason = "service shut down";
      return response;
    }
  }

  stream::StreamResult result;
  {
    obs::Span span("service.stream");
    {
      // The pooled pipeline serves one trace at a time; concurrent
      // streamed requests take turns rather than duplicating shard fleets.
      std::lock_guard<std::mutex> lock(stream_mutex_);
      if (!stream_verifier_ || stream_shards_ != request.options.shards ||
          stream_queue_blocks_ != request.options.queue_blocks) {
        stream_verifier_ =
            std::make_unique<stream::StreamVerifier>(request.options);
        stream_shards_ = request.options.shards;
        stream_queue_blocks_ = request.options.queue_blocks;
      } else {
        stream_verifier_->set_options(request.options);
      }
      result = stream_verifier_->run(reader);
    }

    response.num_operations = static_cast<std::size_t>(result.events);
    response.num_addresses = result.report.addresses.size();
    if (!result.ok()) {
      response.verdict = vmc::Verdict::kUnknown;
      response.reason = "binary decode error at byte " +
                        std::to_string(result.error_byte) + ": " + result.error;
    } else {
      response.verdict = result.report.verdict;
      response.reason = reason_for(result.report);
    }
    response.effort = result.report.effort;
    response.timed_out =
        result.cancelled && request.options.exact.deadline.expired();
    response.cancelled = result.cancelled && !response.timed_out;
    response.coherence = std::move(result.report);
    if (request.drop_witnesses)
      for (auto& address : response.coherence.addresses)
        address.result.witness.clear();
    response.run_micros = run_timer.millis() * 1e3;

    if (span.active()) {
      span.attr("events", result.events);
      span.attr("shards", static_cast<std::uint64_t>(result.shards_used));
      span.attr("verdict", to_string(response.verdict));
    }
  }

  if (response.timed_out)
    obs::flight_event(obs::FlightEventKind::kDeadline,
                      "stream deadline expired");
  else if (response.cancelled)
    obs::flight_event(obs::FlightEventKind::kCancelled, "stream cancelled");
  const std::uint64_t latency_nanos =
      static_cast<std::uint64_t>(response.run_micros * 1e3);
  if (flight.active())
    response.flight_id = flight.finish(flight_summary(
        response, latency_nanos, result.routing));
  account(response, Accounting{.kind = obs::RequestKind::kStream,
                               .latency_nanos = latency_nanos,
                               .routing = std::move(result.routing)});
  return response;
}

void VerificationService::respond(Slot& slot, VerificationResponse&& response) {
  const double end_to_end_nanos =
      micros_between(slot.submitted, Stopwatch::Clock::now()) * 1e3;
  const std::uint64_t latency_nanos =
      end_to_end_nanos <= 0 ? 0
                            : static_cast<std::uint64_t>(end_to_end_nanos);
  const obs::RequestKind kind = kind_of(slot.request.mode);
  slot.accounting.kind = kind;
  slot.accounting.latency_nanos = latency_nanos;
  account(response, slot.accounting);
  if (response.verdict == vmc::Verdict::kUnknown && !response.cache_hit) {
    static const obs::LogSite unknown_site = obs::log_site("service.unknown");
    if (unknown_site.should(obs::LogLevel::kWarn))
      obs::LogLine(unknown_site, obs::LogLevel::kWarn,
                   "request resolved without a definite verdict")
          .field("kind", std::string_view(obs::to_string(kind)))
          .field("timed_out", static_cast<std::uint64_t>(response.timed_out))
          .field("cancelled", static_cast<std::uint64_t>(response.cancelled))
          .field("flight_id", response.flight_id)
          .field("latency_nanos", latency_nanos)
          .field("tag", std::string_view(response.tag));
  }
  slot.promise.set_value(std::move(response));
}

void VerificationService::account(const VerificationResponse& response,
                                  const Accounting& accounting) {
  const bool streamed = accounting.kind == obs::RequestKind::kStream;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!streamed && response.timed_out) ++counters_.timed_out;
    if (!streamed && response.cancelled) ++counters_.cancelled;
    switch (response.verdict) {
      case vmc::Verdict::kCoherent: ++counters_.coherent; break;
      case vmc::Verdict::kIncoherent: ++counters_.incoherent; break;
      case vmc::Verdict::kUnknown: ++counters_.unknown; break;
    }
    auto& kind = counters_.kinds[static_cast<std::size_t>(accounting.kind)];
    ++kind.total;
    kind.latency_nanos.record(accounting.latency_nanos);
    counters_.effort.merge(response.effort);
    counters_.routing.merge(accounting.routing);
    if (response.analyzed)
      counters_.lint_warnings += response.analysis.warning_count;
    if (streamed) counters_.stream_events += response.num_operations;
  }
  slo_.record(accounting.kind, accounting.latency_nanos,
              response.verdict == vmc::Verdict::kUnknown, response.flight_id);
  if (obs::enabled()) {
    static const obs::Counter responses =
        obs::counter("vermem_service_responses_total");
    static const obs::Histogram latency =
        obs::histogram("vermem_service_latency_nanos");
    responses.add(1);
    latency.observe(accounting.latency_nanos);
  }
}

ServiceStats VerificationService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = counters_;
    out.queue_depth = pool_.queue_depth();
    out.in_flight = active_.size();
    out.cache_entries = cache_.size();
  }
  // The aggregates are sums over the queued kinds; streamed runs stay
  // out of them.
  constexpr auto kStream = static_cast<std::size_t>(obs::RequestKind::kStream);
  for (std::size_t k = 0; k < obs::kNumRequestKinds; ++k) {
    ServiceStats::KindStats& kind = out.kinds[k];
    if (k != kStream) {
      out.completed += kind.total;
      out.latency_nanos.merge(kind.latency_nanos);
    }
    if (kind.latency_nanos.count == 0) continue;
    kind.p50_micros = kind.latency_nanos.quantile(0.50) / 1e3;
    kind.p99_micros = kind.latency_nanos.quantile(0.99) / 1e3;
  }
  out.streamed = out.kinds[kStream].total;
  if (out.latency_nanos.count > 0) {
    out.p50_micros = out.latency_nanos.quantile(0.50) / 1e3;
    out.p99_micros = out.latency_nanos.quantile(0.99) / 1e3;
  }
  out.slo = slo_.snapshot();
  out.flight_retained = obs::flight_retained_count();
  out.flight_retained_total = obs::flight_retained_total();
  return out;
}

void VerificationService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    // In-flight requests notice through their tokens at the next
    // cooperative check and resolve promptly as cancelled/unknown.
    for (Slot* slot : active_) slot->token->cancel();
  }
  // The pool drains its queue: run_request resolves each request still
  // queued as cancelled without running it.
  pool_.shutdown();
}

}  // namespace vermem::service
