#include "traced.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/fragment.hpp"
#include "analysis/router.hpp"
#include "analysis/saturate/core.hpp"
#include "certify/check.hpp"
#include "encode/sweep.hpp"
#include "obs/metrics.hpp"
#include "stream/verifier.hpp"
#include "trace/address_index.hpp"
#include "trace/binary_io.hpp"
#include "trace/fingerprint.hpp"
#include "verdict_line.hpp"
#include "vsc/vscc.hpp"

namespace vermem::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;
using analysis::Decider;

/// In-memory span log. Span ids are 1-based positions in the log; parent
/// 0 marks a request's root span. Spans named "bench.*" time the bench's
/// own re-measurement work and are left out of the coverage ratio.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    const char* note = nullptr;
  };

  std::uint32_t open(const char* name) {
    spans_.push_back({name, now(), 0, open_.empty() ? 0 : open_.back(),
                      request_, nullptr});
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    return open_.back();
  }
  /// Closes the innermost open span; returns its duration in ns.
  double close() {
    Span& span = spans_[open_.back() - 1];
    open_.pop_back();
    span.end_ns = now();
    return static_cast<double>(span.end_ns - span.start_ns);
  }
  /// Records a span measured elsewhere, placed at its parent's start.
  void attribute(const char* name, std::uint32_t parent, double nanos,
                 const char* note) {
    const Span& host = spans_[parent - 1];
    const std::int64_t dur = std::min(static_cast<std::int64_t>(nanos),
                                      host.end_ns - host.start_ns);
    spans_.push_back(
        {name, host.start_ns, host.start_ns + dur, parent, request_, note});
  }
  void set_request(std::uint64_t request) { request_ = request; }

  /// Σ self time of layer spans ÷ (Σ root time − Σ bench time).
  [[nodiscard]] double coverage() const {
    double roots = 0;
    double bench = 0;
    double layers = 0;
    for (const Span& span : spans_) {
      const double dur = static_cast<double>(span.end_ns - span.start_ns);
      if (span.parent == 0)
        roots += dur;
      else if (is_bench(span))
        bench += dur;
      else if (spans_[span.parent - 1].parent == 0)
        layers += dur;  // a root's direct child: its subtree's self times
    }
    return roots - bench <= 0 ? 0 : layers / (roots - bench);
  }

  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::vector<std::uint32_t> order(spans_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return spans_[a].start_ns < spans_[b].start_ns;
                     });
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Span& span = spans_[order[k]];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":1,\"args\":{\"id\":%u,\"parent\":%u,"
                   "\"request\":%llu",
                   k == 0 ? "" : ",", span.name,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   order[k] + 1, span.parent,
                   static_cast<unsigned long long>(span.request));
      if (span.note != nullptr)
        std::fprintf(out, ",\"attributed\":\"%s\"", span.note);
      std::fputs("}}", out);
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  static bool is_bench(const Span& span) {
    return std::string_view(span.name).rfind("bench.", 0) == 0;
  }
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t request_ = 0;
};

/// Sum and count of one measured quantity.
struct Tally {
  double sum = 0;
  std::uint64_t count = 0;
  void add(double value, std::uint64_t n = 1) {
    sum += value;
    count += n;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }
};

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Reason line for an aggregate report, as the service builds it.
std::string reason_for(const vmc::CoherenceReport& report) {
  if (const auto* violation = report.first_violation())
    return "address " + std::to_string(violation->addr) + ": " +
           (violation->result.reason().empty() ? "no coherent schedule exists"
                                               : violation->result.reason());
  if (report.verdict == vmc::Verdict::kUnknown)
    for (const auto& address : report.addresses)
      if (address.result.verdict == vmc::Verdict::kUnknown)
        return "address " + std::to_string(address.addr) + ": " +
               address.result.reason();
  return {};
}

/// Phase A: one request at a time through the modules' public calls.
class Replayer {
 public:
  explicit Replayer(const WorkloadSpec& spec) : spec_(spec) {
    if (spec.solver == service::SolverChoice::kPortfolio)
      portfolio_.enabled = true;
    if (spec.binary) stream_ = std::make_unique<stream::StreamVerifier>();
  }

  void replay(std::uint64_t position, const Request& request) {
    log.set_request(position);
    log.open("request");
    if (spec_.binary)
      replay_binary(request);
    else
      replay_text(request);
    log.close();
  }

  SpanLog log;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  // trace
  Tally parse_ns, decode_ns, fingerprint_ns, index_ns;  // per op
  // analysis (per address)
  Tally classify_ns;
  std::array<Tally, analysis::kNumDeciders> decider_ns;
  Tally saturate_ns;
  std::uint64_t routed = 0, poly = 0, saturation_ran = 0, saturate_decided = 0,
                fell_back = 0;
  std::uint64_t race_winner_states = 0, race_wasted_states = 0;
  std::array<std::uint64_t, analysis::kNumEngines> wins{};
  // vmc (exact-decided addresses)
  std::uint64_t exact_addresses = 0, exact_states = 0, exact_transitions = 0,
                oracle_prunes = 0, arena_high_water = 0;
  double exact_self_ns = 0;
  // vsc
  Tally vscc_ns;
  std::uint64_t sweep_extended = 0, sweep_reused = 0, sc_fallback = 0;
  // stream
  std::vector<double> complete_ms, ordered_ms;
  std::uint64_t queue_peak_blocks = 0, resident_peak_bytes = 0, shards_used = 0,
                shed_events = 0;
  // certify, response
  Tally certify_ns, serialize_ns;
  std::uint64_t rejected = 0;

 private:
  vmc::ExactOptions exact_options() const {
    vmc::ExactOptions exact;
    exact.deadline = Deadline(spec_.deadline);
    return exact;
  }

  void judge(vmc::Verdict verdict, const Request& request) {
    if (verdict == vmc::Verdict::kUnknown)
      ++failed;
    else if ((verdict == vmc::Verdict::kCoherent) != request.coherent)
      ++wrong;
  }

  void certify_one(const Execution& exec, const certify::Certificate& cert) {
    if (cert.verdict == vmc::Verdict::kUnknown) return;
    log.open("certify.check");
    const certify::CheckOutcome outcome = certify::check(exec, cert);
    certify_ns.add(log.close());
    if (!outcome.ok) {
      if (rejected++ < 5)
        std::fprintf(stderr, "certificate rejected (%s, addr %u): %s\n",
                     certify::to_string(cert.scope), cert.addr,
                     outcome.violation.c_str());
    }
  }

  void serialize(const service::VerificationResponse& response) {
    log.open("response.serialize");
    const std::string line = verdict_line(response.tag, response);
    serialize_ns.add(log.close());
    sink_ += line.size();
  }

  void replay_text(const Request& request) {
    service::VerificationRequest parsed;
    log.open("trace.parse");
    const std::string error = parse_text_request(request.bytes, parsed);
    parse_ns.add(log.close(), request.ops);
    if (!error.empty()) {
      ++failed;
      return;
    }
    const Execution& exec = parsed.execution;
    const vmc::WriteOrderMap* orders =
        parsed.write_orders ? &*parsed.write_orders : nullptr;

    service::VerificationResponse response;
    log.open("trace.fingerprint");
    response.fingerprint = orders != nullptr ? fingerprint_execution(exec, *orders)
                                             : fingerprint_execution(exec);
    fingerprint_ns.add(log.close(), request.ops);
    log.open("trace.index");
    const AddressIndex index(exec);
    double indexing = log.close();
    response.num_operations = exec.num_operations();
    response.num_addresses = index.num_addresses();

    if (spec_.mode == service::CheckMode::kVscc) {
      index_ns.add(indexing, request.ops);
      replay_vscc(request, index, response);
      return;
    }

    const vmc::ExactOptions exact = exact_options();
    std::vector<vmc::AddressReport> reports;
    reports.reserve(index.num_addresses());
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      log.open("trace.view");
      const ProjectedView view = index.view_at(i);
      indexing += log.close();
      const std::vector<OpRef>* order = nullptr;
      if (orders != nullptr) {
        const auto it = orders->find(view.addr());
        if (it != orders->end()) order = &it->second;
      }

      log.open("analysis.classify");
      const analysis::FragmentProfile profile =
          analysis::classify(view, order != nullptr);
      const double classified = log.close();
      classify_ns.add(classified);
      sink_ += static_cast<std::uint64_t>(profile.fragment);

      const std::uint32_t route = log.open("analysis.check_routed");
      analysis::RouteOutcome outcome =
          analysis::check_routed(view, order, exact, portfolio_);
      const double routed_ns = log.close();
      double saturation = 0;
      if (outcome.saturation_ran) {
        log.open("bench.retime_saturate");
        const auto start = Clock::now();
        const saturate::Result redo = saturate::saturate(view);
        saturation =
            std::chrono::duration<double, std::nano>(Clock::now() - start).count();
        log.close();
        sink_ += redo.edges.size();
        log.attribute("analysis.saturate", route, saturation,
                      "re-timed call; parent self time by subtraction");
        saturate_ns.add(saturation);
        ++saturation_ran;
      }
      // check_routed re-classifies internally: the separately timed
      // classify is subtracted from the decider's share, as is the
      // re-timed saturation pass for addresses the exact tier decided.
      const double decided_ns = std::max(
          0.0, routed_ns - classified -
                   (outcome.decider == Decider::kExact ? saturation : 0.0));
      decider_ns[static_cast<std::size_t>(outcome.decider)].add(decided_ns);
      ++routed;
      poly += outcome.decider == Decider::kExact ? 0 : 1;
      saturate_decided += outcome.decider == Decider::kSaturate ? 1 : 0;
      fell_back += outcome.fell_back ? 1 : 0;
      if (outcome.decider == Decider::kExact) {
        const vmc::SearchStats& stats = outcome.result.stats;
        ++exact_addresses;
        exact_states += stats.states_visited;
        exact_transitions += stats.transitions;
        oracle_prunes += stats.oracle_prunes;
        arena_high_water = std::max(arena_high_water, stats.arena_high_water);
        exact_self_ns += decided_ns;
      }
      if (outcome.portfolio_ran) {
        ++response.portfolio_races;
        race_winner_states += outcome.result.stats.states_visited;
        race_wasted_states += outcome.wasted_effort.states_visited;
        response.wasted_effort.merge(outcome.wasted_effort);
        if (outcome.result.verdict != vmc::Verdict::kUnknown) {
          ++wins[static_cast<std::size_t>(outcome.portfolio_winner)];
          ++response.engine_wins[static_cast<std::size_t>(
              outcome.portfolio_winner)];
        }
      }
      reports.push_back({view.addr(), std::move(outcome.result)});
    }
    index_ns.add(indexing, request.ops);

    vmc::CoherenceReport report = vmc::aggregate_reports(std::move(reports));
    judge(report.verdict, request);
    for (const vmc::AddressReport& address : report.addresses)
      certify_one(exec, certify::from_result(certify::Scope::kAddress,
                                             address.addr, address.result));
    response.verdict = report.verdict;
    response.reason = reason_for(report);
    response.effort = report.effort;
    response.tag = "replay";
    serialize(response);
  }

  void replay_vscc(const Request& request, const AddressIndex& index,
                   service::VerificationResponse& response) {
    const vmc::ExactOptions exact = exact_options();
    vsc::VsccOptions vscc;
    vscc.coherence = exact;
    vscc.sc.deadline = exact.deadline;
    vscc.solver.deadline = exact.deadline;
    vscc.use_sat_sweep = true;
    vscc.sweep = &sweep_;
    log.open("vsc.check_vscc");
    vsc::VsccReport report = vsc::check_vscc(index, vscc);
    vscc_ns.add(log.close());
    sweep_extended +=
        report.sweep_prepare == encode::VscSweep::Prepare::kExtended ? 1 : 0;
    sweep_reused +=
        report.sweep_prepare == encode::VscSweep::Prepare::kReused ? 1 : 0;
    sc_fallback += report.used_exact_fallback ? 1 : 0;
    judge(report.sc.verdict, request);
    const Execution& exec = index.execution();
    for (const vmc::AddressReport& address : report.coherence.addresses)
      certify_one(exec, certify::from_result(certify::Scope::kAddress,
                                             address.addr, address.result));
    certify_one(exec,
                certify::from_result(certify::Scope::kExecution, 0, report.sc));
    response.verdict = report.sc.verdict;
    response.reason = report.sc.reason();
    response.effort = report.coherence.effort;
    response.effort.merge(report.sc.stats);
    response.warm_sweep = report.used_sat_sweep;
    response.suffix_extension =
        report.used_sat_sweep &&
        report.sweep_prepare != encode::VscSweep::Prepare::kFresh;
    response.tag = "replay";
    serialize(response);
  }

  void replay_binary(const Request& request) {
    log.open("trace.decode");
    const BinaryParseResult decoded = decode_binary(request.bytes);
    decode_ns.add(log.close(), request.ops);
    if (!decoded.ok()) {
      ++failed;
      return;
    }
    stream::StreamOptions options;
    options.exact = exact_options();
    stream_->set_options(options);
    BinaryTraceReader reader{std::string_view(request.bytes)};
    log.open("stream.run");
    stream::StreamResult result = stream_->run(reader);
    const double ran = log.close();
    (result.ordered ? ordered_ms : complete_ms).push_back(ran * 1e-6);
    queue_peak_blocks = std::max(queue_peak_blocks, result.queue_peak_blocks);
    resident_peak_bytes = std::max(resident_peak_bytes, result.resident_peak_bytes);
    shards_used = std::max<std::uint64_t>(shards_used, result.shards_used);
    shed_events += result.shed_events;
    if (!result.ok()) {
      ++failed;
      return;
    }
    judge(result.report.verdict, request);
    // The online checker behind ordered mode emits no witness schedule,
    // so only complete-mode verdicts carry checkable certificates.
    if (!result.ordered)
      for (const vmc::AddressReport& address : result.report.addresses)
        certify_one(decoded.execution,
                    certify::from_result(certify::Scope::kAddress, address.addr,
                                         address.result));
    service::VerificationResponse response;
    response.verdict = result.report.verdict;
    response.reason = reason_for(result.report);
    response.num_operations = static_cast<std::size_t>(result.events);
    response.num_addresses = result.report.addresses.size();
    response.effort = result.report.effort;
    response.tag = "replay";
    serialize(response);
  }

  const WorkloadSpec& spec_;
  analysis::PortfolioOptions portfolio_;
  encode::VscSweep sweep_;
  std::unique_ptr<stream::StreamVerifier> stream_;
  /// Folds in call results so no timed call is dead code.
  std::uint64_t sink_ = 0;
};

/// Phase B: the service's view of the same requests.
struct ServicePass {
  LoopTally tally;
  double batch_size_mean = 0;
};

ServicePass service_pass(const WorkloadSpec& spec,
                         const std::vector<Request>& corpus, std::uint64_t seed,
                         std::uint64_t requests) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  ServicePass pass;
  {
    service::VerificationService svc(service_options());
    RequestSchedule schedule(spec, corpus.size(), seed);
    pass.tally = serve(svc, spec, corpus, schedule,
                       {.max_requests = requests, .keep_detail = true});
  }
  for (const obs::HistogramSnapshot& histogram :
       obs::snapshot_metrics().histograms)
    if (histogram.name == "vermem_service_batch_size")
      pass.batch_size_mean = histogram.data.mean();
  return pass;
}

}  // namespace

RunResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                     double seconds, const std::string& trace_path) {
  RunResult result;
  result.workload = spec.name;
  result.seed = seed;
  result.traced = true;
  const std::vector<Request> corpus = generate_corpus(spec, seed);

  Replayer replay(spec);
  RequestSchedule schedule(spec, corpus.size(), seed);
  const auto begin = Clock::now();
  std::uint64_t replayed = 0;
  while (replayed < spec.traced_requests &&
         (replayed == 0 ||
          std::chrono::duration<double>(Clock::now() - begin).count() <
              seconds / 2)) {
    replay.replay(replayed, corpus[schedule.next().entry]);
    ++replayed;
  }
  const ServicePass pass = service_pass(spec, corpus, seed, replayed);

  result.attempted = replayed + pass.tally.attempted;
  result.failed = replay.failed + pass.tally.failed;
  result.wrong_verdicts = replay.wrong + pass.tally.wrong;
  result.certify_rejected = replay.rejected;

  std::vector<double> queue_us, run_us, overhead_us;
  for (const Served& served : pass.tally.detail) {
    if (served.cache_hit) continue;
    queue_us.push_back(served.queue_us);
    run_us.push_back(served.run_us);
    overhead_us.push_back((served.latency_ns - served.parse_ns -
                           served.serialize_ns) * 1e-3 - served.run_us);
  }
  const double coverage = replay.log.coverage();
  const double busy_share = pass.tally.busy_s / pass.tally.wall_s;
  result.valid = coverage >= kMinTraceCoverage && busy_share <= kMaxDriverBusyShare;

  result.add("trace.parse_ns_per_op", replay.parse_ns.mean(), "ns");
  result.add("trace.decode_ns_per_op", replay.decode_ns.mean(), "ns");
  result.add("trace.fingerprint_ns_per_op", replay.fingerprint_ns.mean(), "ns");
  result.add("trace.index_ns_per_op", replay.index_ns.mean(), "ns");
  result.add("service.queue_us_p50", percentile(queue_us, 0.5), "us");
  result.add("service.run_us_p50", percentile(run_us, 0.5), "us");
  result.add("service.overhead_us_p50", percentile(overhead_us, 0.5), "us");
  result.add("service.cache_hit_share",
             share(pass.tally.cache_hits, pass.tally.detail.size()), "fraction");
  result.add("service.dup_hit_share",
             share(pass.tally.duplicate_hits, pass.tally.duplicates), "fraction");
  result.add("service.batch_size_mean", pass.batch_size_mean, "count");
  result.add("analysis.classify_ns_per_addr", replay.classify_ns.mean(), "ns");
  result.add("analysis.poly_share", share(replay.poly, replay.routed), "fraction");
  for (const Decider decider : {Decider::kOneOp, Decider::kWriteOnce,
                                Decider::kWriteOrder, Decider::kRmwChain,
                                Decider::kExact})
    result.add(std::string("analysis.") + to_string(decider) + "_ns_per_addr",
               replay.decider_ns[static_cast<std::size_t>(decider)].mean(), "ns");
  result.add("analysis.saturate_ns_per_addr", replay.saturate_ns.mean(), "ns");
  result.add("analysis.saturate_decided_share",
             share(replay.saturate_decided, replay.saturation_ran), "fraction");
  result.add("analysis.fallback_share", share(replay.fell_back, replay.routed),
             "fraction");
  result.add("analysis.portfolio_wasted_share",
             share(replay.race_wasted_states,
                   replay.race_winner_states + replay.race_wasted_states),
             "fraction");
  for (const analysis::Engine engine :
       {analysis::Engine::kExactSearch, analysis::Engine::kCdcl,
        analysis::Engine::kBoundedK})
    result.add(std::string("analysis.portfolio_wins.") + to_string(engine),
               static_cast<double>(replay.wins[static_cast<std::size_t>(engine)]),
               "count");
  const auto per_exact = [&replay](std::uint64_t total) {
    return share(total, replay.exact_addresses);
  };
  result.add("vmc.exact_states_per_addr", per_exact(replay.exact_states), "count");
  result.add("vmc.exact_transitions_per_addr", per_exact(replay.exact_transitions),
             "count");
  result.add("vmc.exact_ns_per_state",
             replay.exact_states == 0
                 ? 0
                 : replay.exact_self_ns / static_cast<double>(replay.exact_states),
             "ns");
  result.add("vmc.oracle_prunes_per_addr", per_exact(replay.oracle_prunes),
             "count");
  result.add("vmc.arena_high_water_kb_max",
             static_cast<double>(replay.arena_high_water) / 1024.0, "KiB");
  result.add("vsc.vscc_us_per_request", replay.vscc_ns.mean() * 1e-3, "us");
  result.add("vsc.sweep_extended_share",
             share(replay.sweep_extended, replay.vscc_ns.count), "fraction");
  result.add("vsc.sweep_reused_share",
             share(replay.sweep_reused, replay.vscc_ns.count), "fraction");
  result.add("vsc.exact_fallback_share",
             share(replay.sc_fallback, replay.vscc_ns.count), "fraction");
  result.add("stream.complete_ms_p50", percentile(replay.complete_ms, 0.5), "ms");
  result.add("stream.ordered_ms_p50", percentile(replay.ordered_ms, 0.5), "ms");
  result.add("stream.queue_peak_blocks",
             static_cast<double>(replay.queue_peak_blocks), "count");
  result.add("stream.resident_peak_mb",
             static_cast<double>(replay.resident_peak_bytes) / (1024.0 * 1024.0),
             "MB");
  result.add("stream.shards_used", static_cast<double>(replay.shards_used),
             "count");
  result.add("stream.shed_events", static_cast<double>(replay.shed_events),
             "count");
  result.add("certify.check_ns_per_cert", replay.certify_ns.mean(), "ns");
  result.add("certify.rejected", static_cast<double>(replay.rejected), "count");
  result.add("response.serialize_ns_per_verdict", replay.serialize_ns.mean(), "ns");
  result.add("bench.driver_busy_share", busy_share, "fraction");
  result.add("bench.trace_coverage", coverage, "fraction");
  result.add("bench.traced_requests", static_cast<double>(replayed), "count");

  if (!replay.log.write_chrome(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    result.valid = false;
  }
  return result;
}

}  // namespace vermem::bench_e2e
