// Incremental SAT core: what warm solver state is worth on the kVscc
// sweep, and what the exact-tier portfolio costs.
//
// Three measurements land in BENCH_sat_incremental.json:
//
//   Warm vs cold sweep: for growing multi-address SC traces, answer the
//   full kVscc query set (per-address VSC for every address, then the
//   whole-trace SC query) two ways. Warm: one encode::VscSweep — the
//   O(n^3) skeleton is emitted once and every query reuses the learned
//   clauses of the previous ones. Cold: a fresh sweep per query, the
//   m+n+1-cold-solves shape of the pre-incremental vsc/vscc.cpp. The
//   trajectory harness (tools/check_bench_trajectory.py) holds the
//   largest point's speedup to >= 2x, and a differential_ok flag asserts
//   warm and cold returned identical statuses on every query, so the
//   speedup can never come from changed semantics.
//
//   Suffix extension: re-preparing a warm sweep toward a grown trace
//   (delta skeleton, frames re-emitted, learned clauses retained) versus
//   rebuilding from scratch.
//
//   Portfolio overhead: verify_coherence_routed with the exact-tier
//   portfolio enabled versus the default single-engine routing, on an
//   instance far past the portfolio's stage-1 state budget, so the
//   engines really race. The race spends threads to cut tail latency;
//   the gate only requires bounded overhead (>= 0.25x of the default
//   path) plus verdict equality and an escalation, recorded per run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/router.hpp"
#include "bench_util.hpp"
#include "encode/sweep.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/gen.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

Execution sweep_trace(std::size_t ops_per_process, std::uint64_t seed) {
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = ops_per_process;
  params.num_addresses = 3;
  params.num_values = 3;
  Xoshiro256ss rng(seed);
  return workload::generate_sc(params, rng).execution;
}

/// Drops the last `tail` operations of every history (and the final
/// values, which need not hold mid-trace): the prefix the suffix
/// extension grows from.
Execution truncated(const Execution& exec, std::uint32_t tail) {
  std::vector<ProcessHistory> histories;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    auto ops = exec.history(p).ops();
    ops.resize(ops.size() > tail ? ops.size() - tail : 1);
    histories.emplace_back(std::move(ops));
  }
  Execution out{std::move(histories)};
  for (const auto& [addr, value] : exec.initial_values())
    out.set_initial_value(addr, value);
  return out;
}

/// All kVscc queries on one warm sweep; returns the statuses in query
/// order (addresses, then the whole-trace SC query).
std::vector<sat::Status> run_warm(const Execution& exec) {
  encode::VscSweep sweep;
  (void)sweep.prepare(exec);
  std::vector<sat::Status> statuses;
  for (std::size_t i = 0; i < sweep.num_addresses(); ++i)
    statuses.push_back(sweep.solve_address(i).status);
  statuses.push_back(sweep.solve_all().status);
  return statuses;
}

/// The same queries, each on a freshly built sweep (cold encode+solve).
std::vector<sat::Status> run_cold(const Execution& exec) {
  std::vector<sat::Status> statuses;
  std::size_t num_addresses = 0;
  {
    encode::VscSweep probe;
    (void)probe.prepare(exec);
    num_addresses = probe.num_addresses();
  }
  for (std::size_t i = 0; i < num_addresses; ++i) {
    encode::VscSweep sweep;
    (void)sweep.prepare(exec);
    statuses.push_back(sweep.solve_address(i).status);
  }
  encode::VscSweep sweep;
  (void)sweep.prepare(exec);
  statuses.push_back(sweep.solve_all().status);
  return statuses;
}

template <typename Run>
double time_run(Run&& run) {
  Stopwatch warmup;
  benchmark::DoNotOptimize(run());
  const double once = warmup.seconds();
  const int reps =
      once > 0 ? std::clamp(static_cast<int>(50e-3 / once), 1, 64) : 64;
  Stopwatch timed;
  for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(run());
  return timed.seconds() / reps;
}

// --- google-benchmark pairs (smoke + local profiling) ---------------------

void BM_SweepWarm(benchmark::State& state) {
  const Execution exec =
      sweep_trace(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(run_warm(exec));
}
BENCHMARK(BM_SweepWarm)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SweepCold(benchmark::State& state) {
  const Execution exec =
      sweep_trace(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(run_cold(exec));
}
BENCHMARK(BM_SweepCold)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// --- the JSON-emitting sweep ----------------------------------------------

struct SweepPoint {
  std::string name;
  std::size_t ops = 0;
  std::size_t queries = 0;
  double cold_sec = 0;
  double warm_sec = 0;
  bool differential_ok = true;
};

bool sweep_points(std::vector<SweepPoint>& points) {
  bool differential_ok = true;
  std::cout << "\n== warm sweep vs cold re-encodes (kVscc query set) ==\n";
  for (const std::size_t ops_per_process : {6u, 10u, 14u, 18u}) {
    const Execution exec = sweep_trace(ops_per_process, 7);
    SweepPoint point;
    point.name = "sweep_n" + std::to_string(3 * ops_per_process);
    point.ops = 3 * ops_per_process;

    const std::vector<sat::Status> warm = run_warm(exec);
    const std::vector<sat::Status> cold = run_cold(exec);
    point.queries = warm.size();
    point.differential_ok = warm == cold;
    // The whole-trace query must also agree with the independent
    // one-shot encoding (fresh variable numbering, RUP-capable).
    const vmc::CheckResult one_shot = encode::check_sc_via_sat(exec);
    point.differential_ok =
        point.differential_ok &&
        (warm.back() == sat::Status::kSat) ==
            (one_shot.verdict == vmc::Verdict::kCoherent);
    differential_ok = differential_ok && point.differential_ok;

    point.warm_sec = time_run([&] { return run_warm(exec); });
    point.cold_sec = time_run([&] { return run_cold(exec); });
    points.push_back(std::move(point));
  }

  TextTable table({"point", "ops", "queries", "cold", "warm", "speedup",
                   "differential"});
  char buf[64];
  for (const SweepPoint& point : points) {
    std::snprintf(buf, sizeof buf, "%.2fx", point.cold_sec / point.warm_sec);
    table.add_row({point.name, std::to_string(point.ops),
                   std::to_string(point.queries),
                   human_nanos(point.cold_sec * 1e9),
                   human_nanos(point.warm_sec * 1e9), buf,
                   point.differential_ok ? "ok" : "DIVERGED"});
  }
  table.print(std::cout);
  return differential_ok;
}

struct ExtendResult {
  double fresh_sec = 0;
  double extend_sec = 0;
  bool differential_ok = true;
};

ExtendResult measure_extension() {
  std::cout << "\n== suffix extension vs scratch rebuild ==\n";
  const Execution full = sweep_trace(18, 7);
  const Execution prefix = truncated(full, 4);
  ExtendResult result;

  constexpr int kReps = 8;
  double fresh_total = 0;
  double extend_total = 0;
  for (int r = 0; r < kReps; ++r) {
    {
      encode::VscSweep sweep;
      Stopwatch timer;
      (void)sweep.prepare(full);
      const auto fresh = sweep.solve_all();
      fresh_total += timer.seconds();
      result.differential_ok =
          result.differential_ok && fresh.status != sat::Status::kUnknown;
    }
    {
      encode::VscSweep sweep;
      (void)sweep.prepare(prefix);
      benchmark::DoNotOptimize(sweep.solve_all());
      Stopwatch timer;
      const auto prepared = sweep.prepare(full);
      const auto extended = sweep.solve_all();
      extend_total += timer.seconds();
      result.differential_ok =
          result.differential_ok &&
          prepared == encode::VscSweep::Prepare::kExtended;
      // Extended and fresh answers must coincide.
      encode::VscSweep scratch;
      (void)scratch.prepare(full);
      result.differential_ok = result.differential_ok &&
                               extended.status == scratch.solve_all().status;
    }
  }
  result.fresh_sec = fresh_total / kReps;
  result.extend_sec = extend_total / kReps;
  std::printf("fresh rebuild %s  extended re-solve %s  (%.2fx)\n",
              human_nanos(result.fresh_sec * 1e9).c_str(),
              human_nanos(result.extend_sec * 1e9).c_str(),
              result.fresh_sec / result.extend_sec);
  return result;
}

struct PortfolioResult {
  double default_sec = 0;
  double race_sec = 0;
  std::uint64_t races = 0;
  std::uint64_t escalations = 0;
  std::uint64_t wasted_states = 0;
  bool differential_ok = true;
};

PortfolioResult measure_portfolio() {
  std::cout << "\n== exact-tier portfolio vs default routing ==\n";
  PortfolioResult result;
  // Scan for an instance that genuinely loads the exact tier: the
  // portfolio's stage 1 decides anything within kSoloStates search
  // states alone, so only an instance far past that budget escalates to
  // the engine race this comparison is meant to time (differential_ok
  // requires that it did). Random coherent traces route too easily;
  // the reduction-generated family (SAT formulas compiled into VMC
  // gadgets) is the adversarial load the paper's NP-hardness
  // construction promises. The scan is deterministic — every run
  // benches the same instance.
  std::optional<Execution> hardest;
  std::uint64_t hardest_states = 0;
  Xoshiro256ss rng(5);
  vmc::ExactOptions scan_budget;
  scan_budget.max_transitions = 1u << 21;  // keep the scan itself bounded
  for (const sat::Var num_vars : {3u, 4u, 5u}) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const sat::Cnf cnf = sat::random_ksat(
          num_vars, static_cast<std::size_t>(4 * num_vars), 3, rng);
      const auto red = reductions::sat_to_vmc(cnf);
      const AddressIndex index(red.instance.execution);
      const analysis::RoutedReport base =
          analysis::verify_coherence_routed(index, nullptr, scan_budget);
      if (base.routing.exact_routed == 0 ||
          base.report.verdict == vmc::Verdict::kUnknown)
        continue;
      const std::uint64_t states = base.report.effort.states_visited;
      if (states > hardest_states) {
        hardest_states = states;
        hardest = red.instance.execution;
      }
    }
  }
  if (!hardest) {
    std::cout << "no exact-tier instance found in seed scan\n";
    result.differential_ok = false;
    return result;
  }
  std::cout << "hardest scanned instance: " << hardest_states
            << " search states\n";

  const AddressIndex index(*hardest);
  const analysis::RoutedReport base = analysis::verify_coherence_routed(index);
  analysis::PortfolioOptions portfolio;
  portfolio.enabled = true;
  const analysis::RoutedReport raced =
      analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
  result.races = raced.routing.portfolio_races;
  result.escalations = raced.routing.portfolio_escalations;
  result.wasted_states = raced.routing.wasted_effort.states_visited;
  result.differential_ok = raced.report.verdict == base.report.verdict &&
                           raced.routing.portfolio_races > 0 &&
                           raced.routing.portfolio_escalations > 0;
  result.default_sec =
      time_run([&] { return analysis::verify_coherence_routed(index); });
  result.race_sec = time_run([&] {
    return analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
  });
  std::printf(
      "default %s  portfolio %s  (%.2fx of default)  races %llu  "
      "escalations %llu  wasted states %llu\n",
      human_nanos(result.default_sec * 1e9).c_str(),
      human_nanos(result.race_sec * 1e9).c_str(),
      result.default_sec / result.race_sec,
      static_cast<unsigned long long>(result.races),
      static_cast<unsigned long long>(result.escalations),
      static_cast<unsigned long long>(result.wasted_states));
  return result;
}

void run_sweep() {
  std::vector<SweepPoint> points;
  bool differential_ok = sweep_points(points);
  const ExtendResult extend = measure_extension();
  const PortfolioResult portfolio = measure_portfolio();
  differential_ok =
      differential_ok && extend.differential_ok && portfolio.differential_ok;

  double max_warm_speedup = 0;
  for (const SweepPoint& point : points)
    max_warm_speedup =
        std::max(max_warm_speedup, point.cold_sec / point.warm_sec);
  const double warm_speedup_largest =
      points.back().cold_sec / points.back().warm_sec;

  std::cout << "differential: " << (differential_ok ? "ok" : "DIVERGED")
            << "  warm speedup at largest point: " << warm_speedup_largest
            << "x (trajectory gate: >= 2x)\n";

  std::ofstream json("BENCH_sat_incremental.json");
  json << "{\n  \"bench\": \"sat_incremental\",\n"
       << "  \"differential_ok\": " << (differential_ok ? "true" : "false")
       << ",\n  \"warm_speedup_largest\": " << warm_speedup_largest
       << ",\n  \"max_warm_speedup\": " << max_warm_speedup
       << ",\n  \"extend_over_fresh\": "
       << extend.fresh_sec / extend.extend_sec
       << ",\n  \"portfolio_default_over_race\": "
       << portfolio.default_sec / portfolio.race_sec
       << ",\n  \"portfolio_races\": " << portfolio.races
       << ",\n  \"portfolio_escalations\": " << portfolio.escalations
       << ",\n  \"portfolio_wasted_states\": " << portfolio.wasted_states
       << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    json << "    {\"name\": \"" << point.name << "\", \"ops\": " << point.ops
         << ", \"queries\": " << point.queries
         << ", \"cold_sec\": " << point.cold_sec
         << ", \"warm_sec\": " << point.warm_sec
         << ", \"warm_over_cold\": " << point.cold_sec / point.warm_sec
         << ", \"differential_ok\": "
         << (point.differential_ok ? "true" : "false") << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_sat_incremental.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
