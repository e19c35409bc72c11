// vermemd: verification daemon front-end — the repo's first "serve
// traffic" binary. Feeds recorded traces through the long-lived
// VerificationService (persistent thread pool, batching, deadlines,
// result cache) and emits one JSON verdict line per trace on stdout.
//
// Usage:
//   vermemd [--mode=coherence|vscc|sc|tso|pso|coherence-only]
//           [--workers=N] [--batch=N] [--cache=N] [--deadline-ms=N]
//           [--repeat=N] [--binary] [--shards=N] [--analyze] [--certify]
//           [--stats] [--version] [--trace-out=FILE] [--metrics-out=FILE]
//           [FILE...]
//
// Each FILE is one trace in the text_io format; lines starting with
// "wo " are split out as the trace's write-order log (enabling the
// polynomial Section 5.2 coherence path). With no FILE, stdin is read;
// it may hold several traces separated by lines containing only "---".
// All traces are submitted up front and verified concurrently by the
// service; output order matches input order.
//
// Binary traces (docs/FORMATS.md) are auto-detected by their "VMTB"
// magic — on stdin and per FILE — and verified through the service's
// streaming ingest pipeline (sharded, bounded-memory, no materialized
// Execution) instead of the batch queue. --binary forces the binary
// interpretation (a non-binary input then fails with a decode error);
// --shards=N sets the pipeline's checker-shard count (0 = auto).
// Streamed traces support coherence mode only, and --analyze/--certify
// do not apply to them.
//
// --solver selects the exact-tier engine policy for text traces:
// "portfolio" first runs the frontier search alone under a state
// budget, and only an address that exhausts it races the frontier
// search, CDCL, and bounded-k (first definite verdict wins, losers are
// cancelled); "cdcl" forces that one engine. Default "auto" keeps the
// single-engine routed cascade. The per-trace JSON gains a
// "portfolio" object whenever at least one address reached the
// portfolio tier, --stats counts the addresses that raced as
// "portfolio_escalations".
//
// --deadline-ms bounds each request's wall-clock latency (late requests
// report "unknown" with "timed_out": true). --repeat submits the input
// set N times, demonstrating the result cache. --analyze additionally
// runs the static trace analyzer on every request and embeds one
// "analysis" JSON object per trace (fragment classification per address
// plus lint diagnostics with rule IDs and severities). --certify embeds
// a "certs" array per trace: each element is one certificate in the
// certify text format (docs/CERTIFICATES.md), ready to be re-validated
// out of process by piping this output into vermemcert together with
// the trace files. --stats appends
// a final service-stats JSON line to stderr, including the fragment
// routing counters.
//
// Observability exporters (docs/OBSERVABILITY.md):
//   --trace-out=FILE    enable span collection and write a Chrome
//                       trace-event JSON file on exit (load in Perfetto
//                       or chrome://tracing)
//   --metrics-out=FILE  write the process metrics registry on exit:
//                       Prometheus text exposition (plus the service's
//                       own ServiceStats counters), or a JSON summary
//                       when FILE ends in .json
//   --log-out=FILE      write the structured JSONL log ring on exit;
//                       raises the level to info when VERMEM_LOG left
//                       it off
//   --flight-out=FILE   enable the flight recorder, write retained
//                       slow/shed/wrong-request records as JSON on
//                       exit, and install the SIGSEGV/SIGABRT black-box
//                       dump (written to FILE.crash)
//   --flight-slow-us=N  flight-recorder slow-request threshold in
//                       microseconds (default 50000)
//
// Every exporter file is written on *every* exit path, including fatal
// errors after argument parsing — a crash investigation must not lose
// the flight record because the process also hit a parse error.
//
// Exit codes (see docs/SERVICE.md):
//   0  every trace verified with a definite coherent/admissible verdict
//   1  at least one trace is incoherent (a violation was found)
//   2  usage or parse error; nothing was verified
//   3  no violation, but at least one verdict is unknown (deadline,
//      cancellation, or effort budget) — CI smoke tests assert "no
//      timeouts" by requiring exit != 3

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis_json.hpp"
#include "certify/text.hpp"
#include "trace/binary_io.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "support/format.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"

namespace {

using namespace vermem;

int usage() {
  std::fprintf(
      stderr,
      "usage: vermemd [--mode=coherence|vscc|sc|tso|pso|coherence-only]\n"
      "               [--solver=auto|portfolio|cdcl]\n"
      "               [--workers=N] [--batch=N] [--cache=N]\n"
      "               [--deadline-ms=N] [--repeat=N] [--binary]\n"
      "               [--shards=N] [--analyze] [--certify] [--stats]\n"
      "               [--trace-out=FILE] [--metrics-out=FILE]\n"
      "               [--log-out=FILE] [--flight-out=FILE]\n"
      "               [--flight-slow-us=N] [--version] [FILE...]\n");
  return 2;
}

/// The one exit path every return after argument parsing goes through:
/// flushes verdict lines already on stdout, then writes every requested
/// exporter file — metrics (before service shutdown, so queue gauges
/// reflect the serving state), trace, structured log, flight records —
/// best-effort, so a fatal error after some exporters were requested
/// still leaves the diagnostics that explain it on disk.
struct Exporters {
  std::string trace_out;
  std::string metrics_out;
  std::string log_out;
  std::string flight_out;
  service::VerificationService* svc = nullptr;

  int finish(int code) {
    std::fflush(stdout);
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        if (code == 0) code = 2;
      } else {
        const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
        const bool as_json =
            metrics_out.size() >= 5 &&
            metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0;
        if (as_json)
          out << snapshot.to_json() << "\n";
        else if (svc != nullptr)
          out << snapshot.to_prometheus() << svc->stats().to_prometheus();
        else
          out << snapshot.to_prometheus();
      }
    }
    if (svc != nullptr) svc->shutdown();
    if (!trace_out.empty()) {
      // After shutdown: worker and dispatcher spans are all closed.
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        if (code == 0) code = 2;
      } else {
        obs::write_chrome_trace(out);
      }
    }
    if (!log_out.empty()) {
      std::ofstream out(log_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", log_out.c_str());
        if (code == 0) code = 2;
      } else {
        obs::write_log_jsonl(out);
      }
    }
    if (!flight_out.empty()) {
      std::ofstream out(flight_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", flight_out.c_str());
        if (code == 0) code = 2;
      } else {
        obs::write_flight_json(out);
      }
    }
    return code;
  }
};

void print_response(const std::string& tag,
                    const service::VerificationResponse& response) {
  std::printf(
      "{\"trace\":\"%s\",\"verdict\":\"%s\",\"reason\":\"%s\","
      "\"timed_out\":%s,\"cancelled\":%s,\"cache_hit\":%s,"
      "\"fingerprint\":\"%016llx\",\"ops\":%zu,\"addresses\":%zu,"
      "\"queue_us\":%.1f,\"run_us\":%.1f,\"flight_id\":%llu",
      tools::json_escape(tag).c_str(), to_string(response.verdict),
      tools::json_escape(response.reason).c_str(),
      response.timed_out ? "true" : "false",
      response.cancelled ? "true" : "false",
      response.cache_hit ? "true" : "false",
      static_cast<unsigned long long>(response.fingerprint),
      response.num_operations, response.num_addresses, response.queue_micros,
      response.run_micros,
      static_cast<unsigned long long>(response.flight_id));
  std::printf(
      ",\"effort\":{\"states\":%llu,\"transitions\":%llu,\"prunes\":%llu,"
      "\"max_frontier\":%llu,\"arena_reserved\":%llu,"
      "\"arena_high_water\":%llu,\"arena_allocs\":%llu}",
      static_cast<unsigned long long>(response.effort.states_visited),
      static_cast<unsigned long long>(response.effort.transitions),
      static_cast<unsigned long long>(response.effort.prunes),
      static_cast<unsigned long long>(response.effort.max_frontier),
      static_cast<unsigned long long>(response.effort.arena_reserved),
      static_cast<unsigned long long>(response.effort.arena_high_water),
      static_cast<unsigned long long>(response.effort.arena_allocations));
  if (response.portfolio_races > 0) {
    std::string wins;
    for (std::size_t e = 0; e < analysis::kNumEngines; ++e) {
      if (response.engine_wins[e] == 0) continue;
      if (!wins.empty()) wins += ",";
      wins += "\"";
      wins += to_string(static_cast<analysis::Engine>(e));
      wins += "\":" + std::to_string(response.engine_wins[e]);
    }
    std::printf(
        ",\"portfolio\":{\"races\":%llu,\"wins\":{%s},"
        "\"wasted_states\":%llu,\"wasted_transitions\":%llu}",
        static_cast<unsigned long long>(response.portfolio_races), wins.c_str(),
        static_cast<unsigned long long>(
            response.wasted_effort.states_visited),
        static_cast<unsigned long long>(response.wasted_effort.transitions));
  }
  if (response.analyzed)
    std::printf(",\"analysis\":%s",
                tools::analysis_json(response.analysis).c_str());
  if (!response.certificates.empty()) {
    std::printf(",\"certs\":[");
    for (std::size_t i = 0; i < response.certificates.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ",",
                  tools::json_escape(certify::dump(response.certificates[i]))
                      .c_str());
    }
    std::printf("]");
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "coherence";
  std::string solver = "auto";
  std::size_t workers = 0;
  std::size_t batch = 16;
  std::size_t cache = 1024;
  std::size_t deadline_ms = 0;
  std::size_t repeat = 1;
  std::size_t stream_shards = 0;
  std::size_t flight_slow_us = 0;
  bool force_binary = false;
  bool analyze = false;
  bool certify = false;
  bool print_stats = false;
  Exporters exporters;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg.rfind("--mode=", 0) == 0)
      mode = arg.substr(7);
    else if (arg.rfind("--solver=", 0) == 0)
      solver = arg.substr(9);
    else if (arg.rfind("--workers=", 0) == 0)
      ok = tools::parse_size_arg(arg, 10, workers);
    else if (arg.rfind("--batch=", 0) == 0)
      ok = tools::parse_size_arg(arg, 8, batch);
    else if (arg.rfind("--cache=", 0) == 0)
      ok = tools::parse_size_arg(arg, 8, cache);
    else if (arg.rfind("--deadline-ms=", 0) == 0)
      ok = tools::parse_size_arg(arg, 14, deadline_ms);
    else if (arg.rfind("--repeat=", 0) == 0)
      ok = tools::parse_size_arg(arg, 9, repeat);
    else if (arg.rfind("--shards=", 0) == 0)
      ok = tools::parse_size_arg(arg, 9, stream_shards);
    else if (arg == "--binary")
      force_binary = true;
    else if (arg.rfind("--trace-out=", 0) == 0)
      exporters.trace_out = arg.substr(12);
    else if (arg.rfind("--metrics-out=", 0) == 0)
      exporters.metrics_out = arg.substr(14);
    else if (arg.rfind("--log-out=", 0) == 0)
      exporters.log_out = arg.substr(10);
    else if (arg.rfind("--flight-out=", 0) == 0)
      exporters.flight_out = arg.substr(13);
    else if (arg.rfind("--flight-slow-us=", 0) == 0)
      ok = tools::parse_size_arg(arg, 17, flight_slow_us);
    else if (arg == "--analyze")
      analyze = true;
    else if (arg == "--certify")
      certify = true;
    else if (arg == "--stats")
      print_stats = true;
    else if (arg == "--version") {
      std::printf("vermemd %.*s\n", static_cast<int>(kVermemVersion.size()),
                  kVermemVersion.data());
      return 0;
    } else if (arg.rfind("--", 0) == 0)
      return usage();
    else
      paths.push_back(arg);
    if (!ok) return usage();
  }
  if (!exporters.trace_out.empty()) obs::set_tracing_enabled(true);
  if (!exporters.metrics_out.empty()) obs::set_enabled(true);
  // --log-out implies info-level logging unless VERMEM_LOG explicitly
  // chose a level (including off).
  if (!exporters.log_out.empty() && std::getenv("VERMEM_LOG") == nullptr)
    obs::set_log_level(obs::LogLevel::kInfo);
  if (!exporters.flight_out.empty()) {
    obs::set_flight_enabled(true);
    // Black box: a crash writes the last ring events + counters here.
    static const std::string crash_path = exporters.flight_out + ".crash";
    obs::install_crash_handler(crash_path.c_str());
  }
  if (flight_slow_us != 0) {
    obs::FlightPolicy policy = obs::flight_policy();
    policy.latency_threshold_nanos =
        static_cast<std::uint64_t>(flight_slow_us) * 1000;
    obs::set_flight_policy(policy);
  }

  service::CheckMode check_mode = service::CheckMode::kCoherence;
  models::Model model = models::Model::kSc;
  if (mode == "coherence") {
    check_mode = service::CheckMode::kCoherence;
  } else if (mode == "vscc") {
    check_mode = service::CheckMode::kVscc;
  } else if (mode == "sc" || mode == "tso" || mode == "pso" ||
             mode == "coherence-only") {
    check_mode = service::CheckMode::kConsistency;
    model = mode == "sc"    ? models::Model::kSc
            : mode == "tso" ? models::Model::kTso
            : mode == "pso" ? models::Model::kPso
                            : models::Model::kCoherenceOnly;
  } else {
    return usage();
  }

  service::SolverChoice solver_choice = service::SolverChoice::kAuto;
  if (solver == "auto") {
    solver_choice = service::SolverChoice::kAuto;
  } else if (solver == "portfolio") {
    solver_choice = service::SolverChoice::kPortfolio;
  } else if (solver == "cdcl") {
    solver_choice = service::SolverChoice::kCdcl;
  } else {
    return usage();
  }

  // Classify each input as text (batch queue) or binary (streaming
  // pipeline) by peeking at the "VMTB" magic, preserving input order.
  struct InputItem {
    std::string tag;
    bool binary = false;
    std::string bytes;              // raw binary trace when binary
    std::size_t request_index = 0;  // into requests[] when text
  };
  std::vector<InputItem> items;
  std::vector<tools::TraceSource> sources;
  auto classify = [&](std::string tag, std::string data) {
    if (force_binary || looks_like_binary_trace(data)) {
      items.push_back({std::move(tag), true, std::move(data), 0});
      return;
    }
    tools::TraceSource source;
    source.tag = std::move(tag);
    tools::split_wo_lines(data, source);
    sources.push_back(std::move(source));
    items.push_back({sources.back().tag, false, {}, sources.size() - 1});
  };
  if (paths.empty()) {
    std::string all;
    tools::read_all(std::cin, all);
    if (force_binary || looks_like_binary_trace(all)) {
      items.push_back({"stdin", true, std::move(all), 0});
    } else {
      std::vector<tools::TraceSource> split;
      tools::split_concatenated_sources(all, "stdin", split);
      for (tools::TraceSource& source : split) {
        sources.push_back(std::move(source));
        items.push_back({sources.back().tag, false, {}, sources.size() - 1});
      }
    }
  } else {
    for (const std::string& path : paths) {
      std::string data;
      if (!tools::read_file(path, data)) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return exporters.finish(2);
      }
      classify(path, std::move(data));
    }
  }
  if (items.empty()) {
    std::fprintf(stderr, "no traces to verify\n");
    return exporters.finish(2);
  }
  bool any_binary = false;
  for (const InputItem& item : items) any_binary |= item.binary;
  if (any_binary && check_mode != service::CheckMode::kCoherence) {
    std::fprintf(stderr,
                 "binary traces stream through the coherence checker only "
                 "(--mode=coherence)\n");
    return exporters.finish(2);
  }

  // Parse everything before spinning up the service so a malformed trace
  // is a clean exit-2, not a half-verified stream.
  std::vector<service::VerificationRequest> requests;
  for (const tools::TraceSource& source : sources) {
    ParseResult parsed = parse_execution(source.execution_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: parse error at line %zu: %s\n",
                   source.tag.c_str(), parsed.line, parsed.error.c_str());
      return exporters.finish(2);
    }
    service::VerificationRequest request;
    request.execution = std::move(parsed.execution);
    if (!source.write_order_text.empty()) {
      WriteOrderParseResult orders = parse_write_orders(source.write_order_text);
      if (!orders.ok()) {
        std::fprintf(stderr, "%s: write-order parse error at line %zu: %s\n",
                     source.tag.c_str(), orders.line, orders.error.c_str());
        return exporters.finish(2);
      }
      request.write_orders.emplace(orders.orders.begin(), orders.orders.end());
    }
    request.mode = check_mode;
    request.model = model;
    request.solver = solver_choice;
    if (deadline_ms != 0)
      request.deadline = std::chrono::milliseconds(deadline_ms);
    request.analyze = analyze;
    request.certify = certify;
    request.tag = source.tag;
    requests.push_back(std::move(request));
  }

  service::ServiceOptions options;
  options.workers = workers;
  options.max_batch = batch;
  options.cache_capacity = cache;
  service::VerificationService svc(options);
  exporters.svc = &svc;
  {
    static const obs::LogSite start_site = obs::log_site("vermemd.start");
    if (start_site.should(obs::LogLevel::kInfo))
      obs::LogLine(start_site, obs::LogLevel::kInfo, "service started")
          .field("workers", svc.num_workers())
          .field("traces", items.size())
          .field("repeat", repeat)
          .field("mode", std::string_view(mode));
  }

  bool any_incoherent = false;
  bool any_unknown = false;
  for (std::size_t round = 0; round < repeat; ++round) {
    // Text traces go through the batch queue up front (verified
    // concurrently); binary traces stream synchronously on this thread,
    // in input order, through the pooled ingest pipeline.
    std::vector<service::VerificationService::Ticket> tickets;
    tickets.reserve(requests.size());
    for (const service::VerificationRequest& request : requests)
      tickets.push_back(svc.submit(service::VerificationRequest(request)));
    for (const InputItem& item : items) {
      service::VerificationResponse response;
      if (item.binary) {
        service::StreamRequest stream_request;
        stream_request.options.shards = stream_shards;
        if (deadline_ms != 0)
          stream_request.deadline = std::chrono::milliseconds(deadline_ms);
        stream_request.tag = item.tag;
        BinaryTraceReader reader{std::string_view(item.bytes)};
        response = svc.verify_stream(reader, std::move(stream_request));
      } else {
        response = tickets[item.request_index].response.get();
      }
      print_response(item.tag, response);
      if (response.verdict == vmc::Verdict::kIncoherent)
        any_incoherent = true;
      else if (response.verdict == vmc::Verdict::kUnknown)
        any_unknown = true;
    }
  }

  if (print_stats) {
    const service::ServiceStats stats = svc.stats();
    const analysis::RouteTally& routing = stats.routing;
    std::string fragments;
    for (std::size_t f = 0; f < analysis::kNumFragments; ++f) {
      if (routing.fragment_counts[f] == 0) continue;
      if (!fragments.empty()) fragments += ",";
      fragments += "\"";
      fragments += to_string(static_cast<analysis::Fragment>(f));
      fragments += "\":" + std::to_string(routing.fragment_counts[f]);
    }
    std::string wins;
    for (std::size_t e = 0; e < analysis::kNumEngines; ++e) {
      if (routing.engine_wins[e] == 0) continue;
      if (!wins.empty()) wins += ",";
      wins += "\"";
      wins += to_string(static_cast<analysis::Engine>(e));
      wins += "\":" + std::to_string(routing.engine_wins[e]);
    }
    std::fprintf(stderr,
                 "{\"submitted\":%llu,\"completed\":%llu,\"cache_hits\":%llu,"
                 "\"cache_hit_rate\":%.3f,\"timed_out\":%llu,"
                 "\"coherent\":%llu,\"incoherent\":%llu,\"unknown\":%llu,"
                 "\"p50_us\":%.1f,\"p99_us\":%.1f,\"workers\":%zu,"
                 "\"poly_routed\":%llu,\"exact_routed\":%llu,"
                 "\"saturate_ran\":%llu,\"saturate_decided\":%llu,"
                 "\"saturate_cycles\":%llu,\"saturate_forced\":%llu,"
                 "\"saturate_edges\":%llu,\"saturate_skipped\":%llu,"
                 "\"portfolio_races\":%llu,\"portfolio_escalations\":%llu,"
                 "\"engine_wins\":{%s},"
                 "\"wasted_states\":%llu,\"wasted_transitions\":%llu,"
                 "\"lint_warnings\":%llu,"
                 "\"streamed\":%llu,\"stream_events\":%llu,"
                 "\"stream_shed\":%llu,\"fragments\":{%s}}\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.cache_hits),
                 stats.cache_hit_rate(),
                 static_cast<unsigned long long>(stats.timed_out),
                 static_cast<unsigned long long>(stats.coherent),
                 static_cast<unsigned long long>(stats.incoherent),
                 static_cast<unsigned long long>(stats.unknown),
                 stats.p50_micros, stats.p99_micros, svc.num_workers(),
                 static_cast<unsigned long long>(routing.poly_routed),
                 static_cast<unsigned long long>(routing.exact_routed),
                 static_cast<unsigned long long>(routing.saturate_ran),
                 static_cast<unsigned long long>(routing.saturate_decided),
                 static_cast<unsigned long long>(routing.saturate_cycles),
                 static_cast<unsigned long long>(routing.saturate_forced),
                 static_cast<unsigned long long>(routing.saturate_edges),
                 static_cast<unsigned long long>(routing.saturate_skipped),
                 static_cast<unsigned long long>(routing.portfolio_races),
                 static_cast<unsigned long long>(routing.portfolio_escalations),
                 wins.c_str(),
                 static_cast<unsigned long long>(
                     routing.wasted_effort.states_visited),
                 static_cast<unsigned long long>(
                     routing.wasted_effort.transitions),
                 static_cast<unsigned long long>(stats.lint_warnings),
                 static_cast<unsigned long long>(stats.streamed),
                 static_cast<unsigned long long>(stats.stream_events),
                 static_cast<unsigned long long>(stats.stream_shed),
                 fragments.c_str());
    // Companion SLO line: per-kind rolling-window accounting plus the
    // flight-recorder residency, one JSON object to stderr.
    std::string slo;
    for (std::size_t k = 0; k < obs::kNumRequestKinds; ++k) {
      const obs::KindSlo& kind = stats.slo.kinds[k];
      if (kind.total == 0) continue;
      if (!slo.empty()) slo += ",";
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"%s\":{\"requests\":%llu,\"errors\":%llu,"
                    "\"breaches\":%llu,\"p99_us\":%.1f,"
                    "\"budget_remaining\":%.4f}",
                    obs::to_string(static_cast<obs::RequestKind>(k)),
                    static_cast<unsigned long long>(kind.total),
                    static_cast<unsigned long long>(kind.errors),
                    static_cast<unsigned long long>(kind.breaches),
                    kind.p99_nanos / 1e3, kind.error_budget_remaining);
      slo += buf;
    }
    std::fprintf(stderr,
                 "{\"slo\":{%s},\"flight_retained\":%llu,"
                 "\"flight_retained_total\":%llu}\n",
                 slo.c_str(),
                 static_cast<unsigned long long>(stats.flight_retained),
                 static_cast<unsigned long long>(stats.flight_retained_total));
  }
  return exporters.finish(any_incoherent ? 1 : any_unknown ? 3 : 0);
}
