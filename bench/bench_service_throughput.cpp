// Service throughput: the persistent VerificationService vs the one-shot
// loop of analysis::verify_coherence_routed calls it replaces for
// traffic-serving users.
//
// The one-shot baseline is a caller verifying the traces one after the
// other on its own thread, with no queue, no cache lookup and no future.
// It is measured once and reported at every grid point. The service runs
// independent requests at once on its pool, so its requests/s at
// workers=1 shows the service's fixed cost per request and
// the higher worker counts show how far it scales on the host (the JSON
// records hardware_concurrency). A second round replays the same traces
// through the warm result cache. Numbers land in BENCH_service.json.

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
#include "service/service.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

constexpr std::size_t kNumTraces = 96;

/// Mixed fleet of small coherent traces — the "many independent requests"
/// regime a verification daemon actually serves.
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

/// One-shot baseline: a caller looping over the traces sequentially.
double one_shot_pass(const std::vector<Execution>& fleet) {
  Stopwatch timer;
  for (const Execution& exec : fleet) {
    const AddressIndex index(exec);
    benchmark::DoNotOptimize(analysis::verify_coherence_routed(index));
  }
  return timer.seconds();
}

/// Service path: submit the whole stream, drain the futures.
double service_pass(service::VerificationService& svc,
                    const std::vector<Execution>& fleet, bool bypass_cache) {
  Stopwatch timer;
  std::vector<service::VerificationService::Ticket> tickets;
  tickets.reserve(fleet.size());
  for (const Execution& exec : fleet) {
    service::VerificationRequest request;
    request.execution = exec;
    request.bypass_cache = bypass_cache;
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

void BM_OneShotLoop(benchmark::State& state) {
  const auto fleet = make_fleet(91);
  for (auto _ : state) benchmark::DoNotOptimize(one_shot_pass(fleet));
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(kNumTraces),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_OneShotLoop);

void BM_ServiceStream(benchmark::State& state) {
  const auto fleet = make_fleet(91);
  service::ServiceOptions options;
  options.workers = static_cast<std::size_t>(state.range(0));
  service::VerificationService svc(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(service_pass(svc, fleet, /*bypass_cache=*/true));
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(kNumTraces),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ServiceStream)->Arg(1)->Arg(2)->Arg(4);

// --- the JSON-emitting sweep ---------------------------------------------

struct GridPoint {
  std::size_t workers = 0;
  double service_sec = 0;
  double one_shot_sec = 0;
};

void run_sweep() {
  std::cout << "\n== Service throughput: persistent pool vs one-shot loop "
               "(" << kNumTraces << " traces) ==\n";
  const auto fleet = make_fleet(97);
  const int kReps = 3;

  std::vector<GridPoint> grid;
  TextTable table(
      {"workers", "one-shot", "service", "one-shot r/s", "service r/s",
       "speedup"});
  char buf[64];
  const double one_shot_sec =
      best_of(kReps, [&] { return one_shot_pass(fleet); });
  for (const std::size_t workers : {1u, 2u, 4u}) {
    service::ServiceOptions options;
    options.workers = workers;
    service::VerificationService svc(options);
    // Warm pass, then timed best-of.
    service_pass(svc, fleet, true);
    const double service_sec =
        best_of(kReps, [&] { return service_pass(svc, fleet, true); });
    svc.shutdown();
    grid.push_back({workers, service_sec, one_shot_sec});

    std::vector<std::string> row{std::to_string(workers)};
    std::snprintf(buf, sizeof buf, "%.2f ms", one_shot_sec * 1e3);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2f ms", service_sec * 1e3);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f",
                  static_cast<double>(kNumTraces) / one_shot_sec);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f",
                  static_cast<double>(kNumTraces) / service_sec);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx", one_shot_sec / service_sec);
    row.push_back(buf);
    table.add_row(row);
  }
  table.print(std::cout);

  // Cache replay: same traces twice through a cold service, no bypass.
  service::VerificationService cached_svc{service::ServiceOptions{}};
  service_pass(cached_svc, fleet, false);
  const double replay_sec = service_pass(cached_svc, fleet, false);
  const service::ServiceStats stats = cached_svc.stats();
  cached_svc.shutdown();
  std::cout << "cache replay: hit rate " << stats.cache_hit_rate()
            << ", second pass " << replay_sec * 1e3 << " ms, p50 "
            << stats.p50_micros << " us, p99 " << stats.p99_micros << " us\n";

  std::ofstream json("BENCH_service.json");
  double best_speedup = 0;
  for (const GridPoint& point : grid)
    best_speedup = std::max(best_speedup, point.one_shot_sec / point.service_sec);

  json << "{\n  \"bench\": \"service_throughput\",\n"
       << "  \"num_traces\": " << kNumTraces << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"best_speedup_vs_one_shot\": " << best_speedup << ",\n"
       << "  \"cache_hit_rate_on_replay\": " << stats.cache_hit_rate() << ",\n"
       << "  \"replay_requests_per_sec\": "
       << static_cast<double>(kNumTraces) / replay_sec << ",\n"
       << "  \"p50_micros\": " << stats.p50_micros << ",\n"
       << "  \"p99_micros\": " << stats.p99_micros << ",\n"
       << "  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridPoint& point = grid[i];
    json << "    {\"workers\": " << point.workers
         << ", \"one_shot_sec\": " << point.one_shot_sec
         << ", \"service_sec\": " << point.service_sec
         << ", \"one_shot_requests_per_sec\": "
         << static_cast<double>(kNumTraces) / point.one_shot_sec
         << ", \"service_requests_per_sec\": "
         << static_cast<double>(kNumTraces) / point.service_sec
         << ", \"speedup\": " << point.one_shot_sec / point.service_sec << "}"
         << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_service.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
