#include "serve.hpp"

#include <sys/resource.h>

#include <chrono>
#include <deque>
#include <memory>
#include <optional>

#include "support/stopwatch.hpp"
#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"
#include "verdict_line.hpp"

namespace vermem::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up runs at least kMinSetups times per run, and up to kMaxSetups
/// while their total stays under kSetupBudgetS; the median is reported.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetS = 1.0;

double nanos_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

void apply_policy(const WorkloadSpec& spec, std::size_t entry,
                  service::VerificationRequest& request) {
  request.mode = spec.mode;
  request.solver = spec.solver;
  request.deadline = spec.deadline;
  request.tag = std::to_string(entry);
}

}  // namespace

service::ServiceOptions service_options() {
  service::ServiceOptions options;
  // The driver thread, the service's dispatcher, and two workers: no more
  // threads than the 4 cores the benchmark is sized for, so a run
  // measures the service rather than the scheduler.
  options.workers = 2;
  options.max_batch = 16;
  return options;
}

std::string parse_text_request(const std::string& bytes,
                               service::VerificationRequest& out) {
  tools::TraceSource source;
  tools::split_wo_lines(bytes, source);
  ParseResult parsed = parse_execution(source.execution_text);
  if (!parsed.ok())
    return "parse error at line " + std::to_string(parsed.line) + ": " +
           parsed.error;
  out.execution = std::move(parsed.execution);
  if (!source.write_order_text.empty()) {
    WriteOrderParseResult orders = parse_write_orders(source.write_order_text);
    if (!orders.ok()) return "write-order parse error: " + orders.error;
    out.write_orders.emplace(orders.orders.begin(), orders.orders.end());
  }
  return {};
}

LoopTally serve(service::VerificationService& svc, const WorkloadSpec& spec,
                const std::vector<Request>& corpus, RequestSchedule& schedule,
                const LoopPlan& plan) {
  struct Pending {
    Clock::time_point start;
    double parse_ns = 0;
    std::size_t entry = 0;
    bool duplicate = false;
    service::VerificationService::Ticket ticket;
  };
  LoopTally tally;
  const Clock::time_point begin = Clock::now();

  const auto finish = [&](const Pending& pending,
                          const service::VerificationResponse& response) {
    const Clock::time_point collected = Clock::now();
    // The line is what a client would write out; the bench only times it.
    const std::string line = verdict_line(response.tag, response);
    const Clock::time_point serialized = Clock::now();
    const Request& expected = corpus[pending.entry];
    if (response.verdict == vmc::Verdict::kUnknown)
      ++tally.failed;
    else if ((response.verdict == vmc::Verdict::kCoherent) != expected.coherent)
      ++tally.wrong;
    tally.ops += expected.ops;
    tally.cache_hits += response.cache_hit ? 1 : 0;
    if (pending.duplicate) {
      ++tally.duplicates;
      tally.duplicate_hits += response.cache_hit ? 1 : 0;
    }
    const double latency_ns = nanos_between(pending.start, serialized);
    tally.latency_ms.push_back(static_cast<float>(latency_ns * 1e-6));
    if (plan.keep_detail)
      tally.detail.push_back({latency_ns, pending.parse_ns,
                              nanos_between(collected, serialized),
                              response.queue_micros, response.run_micros,
                              response.cache_hit});
    tally.busy_s +=
        (pending.parse_ns + nanos_between(collected, Clock::now())) * 1e-9;
  };

  std::deque<Pending> window;
  const auto finish_oldest = [&] {
    Pending pending = std::move(window.front());
    window.pop_front();
    finish(pending, pending.ticket.response.get());
  };

  while (true) {
    if (plan.max_requests != 0 && tally.attempted >= plan.max_requests) break;
    if (plan.max_seconds > 0 &&
        nanos_between(begin, Clock::now()) * 1e-9 >= plan.max_seconds)
      break;
    if (window.size() >= spec.window) {
      finish_oldest();
      continue;
    }
    const RequestSchedule::Pick pick = schedule.next();
    ++tally.attempted;
    Pending pending;
    pending.start = Clock::now();
    pending.entry = pick.entry;
    pending.duplicate = pick.duplicate;
    const std::string& bytes = corpus[pick.entry].bytes;
    if (spec.binary) {
      BinaryTraceReader reader{std::string_view(bytes)};
      service::StreamRequest request;
      request.deadline = spec.deadline;
      request.tag = std::to_string(pick.entry);
      finish(pending, svc.verify_stream(reader, std::move(request)));
      continue;
    }
    service::VerificationRequest request;
    const std::string error = parse_text_request(bytes, request);
    pending.parse_ns = nanos_between(pending.start, Clock::now());
    if (!error.empty()) {
      ++tally.failed;
      tally.busy_s += pending.parse_ns * 1e-9;
      continue;
    }
    apply_policy(spec, pick.entry, request);
    pending.ticket = svc.submit(std::move(request));
    window.push_back(std::move(pending));
  }
  while (!window.empty()) finish_oldest();
  tally.wall_s = nanos_between(begin, Clock::now()) * 1e-9;
  return tally;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

RunResult run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                       double seconds) {
  RunResult result;
  result.workload = spec.name;
  result.seed = seed;
  const std::vector<Request> corpus = generate_corpus(spec, seed);
  const auto count = [&result](const LoopTally& tally) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    result.wrong_verdicts += tally.wrong;
  };

  // Set-up: service construction plus the warm-up requests (the cache,
  // the retained sweep, and the pooled stream pipeline fill here).
  std::vector<double> setup_s;
  std::unique_ptr<service::VerificationService> svc;
  std::optional<RequestSchedule> schedule;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && setup_total_s < kSetupBudgetS)) {
    svc.reset();
    Stopwatch timer;
    svc = std::make_unique<service::VerificationService>(service_options());
    schedule.emplace(spec, corpus.size(), seed);
    count(serve(*svc, spec, corpus, *schedule, {.max_requests = spec.warmup}));
    setup_s.push_back(timer.seconds());
    setup_total_s += setup_s.back();
  }

  const LoopTally measured =
      serve(*svc, spec, corpus, *schedule, {.max_seconds = seconds});
  svc->shutdown();
  const double rss_mb = peak_rss_mb();
  count(measured);

  const double completed = static_cast<double>(measured.latency_ms.size());
  const double busy_share = measured.busy_s / measured.wall_s;
  result.valid = busy_share <= kMaxDriverBusyShare;
  result.add("setup_s", percentile(setup_s, 0.5), "s");
  result.add("verdicts_per_s", completed / measured.wall_s, "1/s");
  result.add("ops_per_s", static_cast<double>(measured.ops) / measured.wall_s,
             "ops/s");
  result.add("latency_p50_ms", percentile(measured.latency_ms, 0.50), "ms");
  result.add("latency_p90_ms", percentile(measured.latency_ms, 0.90), "ms");
  result.add("latency_p99_ms", percentile(measured.latency_ms, 0.99), "ms");
  result.add("latency_samples", completed, "count");
  result.add("failed_share",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
             "fraction");
  result.add("wrong_verdicts", static_cast<double>(result.wrong_verdicts),
             "count");
  result.add("peak_rss_mb", rss_mb, "MB");
  result.add("bench.driver_busy_share", busy_share, "fraction");
  return result;
}

}  // namespace vermem::bench_e2e
