// Projection pipeline: legacy per-address rescan vs the single-pass
// AddressIndex.
//
// The legacy path (Execution::addresses() + Execution::project(a) per
// address) costs O(addresses x total_ops): every projection walks the
// whole trace. The indexed path pays one O(n) pass and then materializes
// each address in O(ops_on_address), so projecting *every* address is
// O(n) total. On a sweep that grows the address count at constant
// ops-per-address the legacy path must measure super-linear (slope ~2)
// while the indexed path stays ~linear — that gap is this benchmark's
// whole point, and the numbers land in BENCH_projection.json so future
// PRs can track the trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

/// Sweep shape: 8 processes, ops-per-process grows with the address
/// count so each address keeps ~kOpsPerAddress operations. Total ops
/// n = kProcesses * ops_per_process, so legacy work ~ A * n ~ n^2.
constexpr std::size_t kProcesses = 8;
constexpr std::size_t kOpsPerAddress = 64;

Execution trace_for(std::size_t num_addresses, std::uint64_t seed) {
  workload::MultiAddressParams params;
  params.num_processes = kProcesses;
  params.ops_per_process = num_addresses * kOpsPerAddress / kProcesses;
  params.num_addresses = num_addresses;
  params.num_values = 8;
  Xoshiro256ss rng(seed);
  return workload::generate_sc(params, rng).execution;
}

/// Legacy pipeline: enumerate addresses, rescan-project each.
std::size_t run_legacy(const Execution& exec) {
  std::size_t ops = 0;
  for (const Addr addr : exec.addresses()) {
    const auto projection = exec.project(addr);
    ops += projection.execution.num_operations();
    benchmark::DoNotOptimize(projection);
  }
  return ops;
}

/// Indexed pipeline: one pass, then O(ops_on_address) per materialize.
std::size_t run_indexed(const Execution& exec) {
  const AddressIndex index(exec);
  std::size_t ops = 0;
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const auto projection = index.view_at(i).materialize();
    ops += projection.num_operations();
    benchmark::DoNotOptimize(projection);
  }
  return ops;
}

void BM_LegacyProjectAll(benchmark::State& state) {
  const auto exec = trace_for(static_cast<std::size_t>(state.range(0)), 71);
  const std::size_t n = exec.num_operations();
  for (auto _ : state) benchmark::DoNotOptimize(run_legacy(exec));
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LegacyProjectAll)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_IndexedProjectAll(benchmark::State& state) {
  const auto exec = trace_for(static_cast<std::size_t>(state.range(0)), 71);
  const std::size_t n = exec.num_operations();
  for (auto _ : state) benchmark::DoNotOptimize(run_indexed(exec));
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IndexedProjectAll)->RangeMultiplier(2)->Range(16, 256)->Complexity();

// --- the JSON-emitting sweep ---------------------------------------------

struct SweepPoint {
  std::size_t addresses = 0;
  std::size_t total_ops = 0;
  double legacy_sec = 0;
  double indexed_sec = 0;
};

double time_run(const Execution& exec, std::size_t (*run)(const Execution&)) {
  Stopwatch warmup;
  benchmark::DoNotOptimize(run(exec));
  const double once = warmup.seconds();
  const int reps =
      once > 0 ? std::clamp(static_cast<int>(20e-3 / once), 1, 256) : 256;
  Stopwatch timed;
  for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(run(exec));
  return timed.seconds() / reps;
}

void run_sweep() {
  std::cout << "\n== Projection pipeline: legacy rescan vs single-pass index "
               "==\n";
  std::vector<SweepPoint> points;
  for (const std::size_t a : {16, 32, 64, 128, 256, 512}) {
    const Execution exec = trace_for(a, 79);
    SweepPoint point;
    point.addresses = a;
    point.total_ops = exec.num_operations();
    point.legacy_sec = time_run(exec, run_legacy);
    point.indexed_sec = time_run(exec, run_indexed);
    points.push_back(point);
  }

  std::vector<double> ns, legacy_ts, indexed_ts;
  TextTable table({"addresses", "total ops", "legacy", "indexed", "speedup"});
  char buf[64];
  for (const SweepPoint& point : points) {
    ns.push_back(static_cast<double>(point.total_ops));
    legacy_ts.push_back(point.legacy_sec + 1e-12);
    indexed_ts.push_back(point.indexed_sec + 1e-12);
    std::vector<std::string> row{std::to_string(point.addresses),
                                 std::to_string(point.total_ops)};
    row.push_back(human_nanos(point.legacy_sec * 1e9));
    row.push_back(human_nanos(point.indexed_sec * 1e9));
    std::snprintf(buf, sizeof buf, "%.1fx", point.legacy_sec / point.indexed_sec);
    row.push_back(buf);
    table.add_row(row);
  }
  table.print(std::cout);

  const double legacy_slope = bench::loglog_slope(ns, legacy_ts);
  const double indexed_slope = bench::loglog_slope(ns, indexed_ts);
  const SweepPoint& largest = points.back();
  const double speedup = largest.legacy_sec / largest.indexed_sec;
  std::cout << "legacy scaling:  " << bench::format_slope(legacy_slope)
            << "  (per-address rescan, expect ~n^2)\n"
            << "indexed scaling: " << bench::format_slope(indexed_slope)
            << "  (single pass, expect ~n^1)\n"
            << "speedup at largest point (" << largest.total_ops
            << " ops): " << speedup << "x\n";

  std::ofstream json("BENCH_projection.json");
  json << "{\n  \"bench\": \"projection_pipeline\",\n"
       << "  \"processes\": " << kProcesses << ",\n"
       << "  \"ops_per_address\": " << kOpsPerAddress << ",\n"
       << "  \"legacy_slope\": " << legacy_slope << ",\n"
       << "  \"indexed_slope\": " << indexed_slope << ",\n"
       << "  \"speedup_at_largest\": " << speedup << ",\n"
       << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    json << "    {\"addresses\": " << point.addresses
         << ", \"total_ops\": " << point.total_ops
         << ", \"legacy_sec\": " << point.legacy_sec
         << ", \"indexed_sec\": " << point.indexed_sec
         << ", \"legacy_ops_per_sec\": "
         << static_cast<double>(point.total_ops) / point.legacy_sec
         << ", \"indexed_ops_per_sec\": "
         << static_cast<double>(point.total_ops) / point.indexed_sec << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_projection.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
