// Observability overhead: the instrumented pipeline (metrics registry,
// span tracer, debug-level structured logging, and the flight recorder
// all enabled — the most expensive configuration) vs the same work with
// every recorder off — over the two hot paths the instrumentation
// touches end to end: the single-caller routed verification loop and
// the pooled verification service.
//
// This is a gate, not a report: the process exits 1 if either path pays
// more than kMaxOverheadPct with observability on. Numbers land in
// BENCH_obs.json either way.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "analysis/router.hpp"
#include "bench_util.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

constexpr double kMaxOverheadPct = 5.0;
constexpr std::size_t kNumTraces = 96;
constexpr int kReps = 7;

std::vector<Execution> make_fleet(std::uint64_t seed) {
  std::vector<Execution> fleet;
  fleet.reserve(kNumTraces);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < kNumTraces; ++i) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + i % 3;
    params.ops_per_process = 32 + 16 * (i % 4);
    params.num_addresses = 4 + i % 5;
    params.num_values = 6;
    fleet.push_back(workload::generate_sc(params, rng).execution);
  }
  return fleet;
}

/// Routed-verification loop: index build + fragment classification +
/// polynomial/exact dispatch per trace — the span-densest code path.
double routed_pass(const std::vector<Execution>& fleet) {
  Stopwatch timer;
  for (const Execution& exec : fleet) {
    const AddressIndex index(exec);
    benchmark::DoNotOptimize(analysis::verify_coherence_routed(index));
  }
  return timer.seconds();
}

/// Service path: submit the whole stream, drain the futures.
double service_pass(service::VerificationService& svc,
                    const std::vector<Execution>& fleet) {
  Stopwatch timer;
  std::vector<service::VerificationService::Ticket> tickets;
  tickets.reserve(fleet.size());
  for (const Execution& exec : fleet) {
    service::VerificationRequest request;
    request.execution = exec;
    request.bypass_cache = true;
    tickets.push_back(svc.submit(std::move(request)));
  }
  for (auto& ticket : tickets)
    benchmark::DoNotOptimize(ticket.response.get());
  return timer.seconds();
}

double best_of(int reps, const std::function<double()>& run) {
  double best = run();
  for (int r = 1; r < reps; ++r) best = std::min(best, run());
  return best;
}

/// Best-of timing with all observability on: metrics, span collection,
/// debug-level logging, and the flight recorder under its default
/// capture policy. The trace buffer, log ring, and retained flight
/// records are drained between reps so the measurement reflects
/// steady-state recording, not ever-growing buffers.
double instrumented(int reps, const std::function<double()>& run) {
  obs::set_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_log_level(obs::LogLevel::kDebug);
  obs::set_flight_enabled(true);
  obs::set_flight_policy(obs::FlightPolicy{});
  double best = run();
  const auto drain = [] {
    obs::reset_trace();
    obs::reset_log();
    obs::reset_flight();
  };
  drain();
  for (int r = 1; r < reps; ++r) {
    best = std::min(best, run());
    drain();
  }
  obs::set_flight_enabled(false);
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::set_tracing_enabled(false);
  return best;
}

double disabled(int reps, const std::function<double()>& run) {
  obs::scoped_disable off;
  obs::set_log_level(obs::LogLevel::kOff);
  const double best = best_of(reps, run);
  obs::set_log_level(obs::LogLevel::kWarn);
  return best;
}

double overhead_pct(double instrumented_sec, double disabled_sec) {
  return (instrumented_sec / disabled_sec - 1.0) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::cout << "== Observability overhead: instrumented vs disabled ("
            << kNumTraces << " traces, best of " << kReps << ") ==\n";
  const auto fleet = make_fleet(131);

  // Warm both paths (allocator, registry slots, pool spin-up) before any
  // timed rep, then interleave arms so drift hits both equally.
  routed_pass(fleet);
  routed_pass(fleet);
  const double routed_off = disabled(kReps, [&] { return routed_pass(fleet); });
  const double routed_on =
      instrumented(kReps, [&] { return routed_pass(fleet); });

  service::ServiceOptions options;
  options.workers = std::min<std::size_t>(4, std::thread::hardware_concurrency());
  service::VerificationService svc(options);
  service_pass(svc, fleet);
  service_pass(svc, fleet);
  const double service_off =
      disabled(kReps, [&] { return service_pass(svc, fleet); });
  const double service_on =
      instrumented(kReps, [&] { return service_pass(svc, fleet); });
  svc.shutdown();

  const double routed_pct = overhead_pct(routed_on, routed_off);
  const double service_pct = overhead_pct(service_on, service_off);

  TextTable table({"path", "disabled", "instrumented", "overhead"});
  char buf[64];
  const auto add = [&](const char* path, double off, double on, double pct) {
    std::vector<std::string> row{path};
    std::snprintf(buf, sizeof buf, "%.2f ms", off * 1e3);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2f ms", on * 1e3);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%+.2f%%", pct);
    row.push_back(buf);
    table.add_row(row);
  };
  add("routed-verify", routed_off, routed_on, routed_pct);
  add("service", service_off, service_on, service_pct);
  table.print(std::cout);

  std::ofstream json("BENCH_obs.json");
  json << "{\n  \"bench\": \"obs_overhead\",\n"
       << "  \"num_traces\": " << kNumTraces << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"max_overhead_pct\": " << kMaxOverheadPct << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"routed\": {\"disabled_sec\": " << routed_off
       << ", \"instrumented_sec\": " << routed_on
       << ", \"overhead_pct\": " << routed_pct << "},\n"
       << "  \"service\": {\"disabled_sec\": " << service_off
       << ", \"instrumented_sec\": " << service_on
       << ", \"overhead_pct\": " << service_pct << "}\n}\n";
  std::cout << "wrote BENCH_obs.json\n";

  if (routed_pct > kMaxOverheadPct || service_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: observability overhead exceeds %.1f%% "
                 "(routed %+.2f%%, service %+.2f%%)\n",
                 kMaxOverheadPct, routed_pct, service_pct);
    return 1;
  }
  std::printf("PASS: overhead within %.1f%% (routed %+.2f%%, service %+.2f%%)\n",
              kMaxOverheadPct, routed_pct, service_pct);
  return 0;
}
