// Analysis router: fragment-classified polynomial deciders vs the exact
// frontier search, per Figure 5.3 row.
//
// For each tractable fragment the sweep generates single-address traces
// whose shape pins the classifier to that fragment, then times the full
// routed path (AddressIndex build + classify + dedicated decider,
// analysis::verify_coherence_routed) against the exact path (same index
// build + vmc::check_exact) on identical inputs. Log-log slope fits per
// fragment land in BENCH_analysis.json together with the speedup at the
// largest sweep point — the acceptance gate is >=5x on write-once and
// write-order.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/router.hpp"
#include "bench_util.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;

constexpr Addr kAddr = 0;

/// One sweep input: a single-address execution, optionally with the
/// recorded write-order log (original coordinates) for the §5.2 row.
struct FragmentTrace {
  Execution exec;
  std::optional<std::vector<OpRef>> write_order;
};

// --- per-fragment generators ---------------------------------------------

/// Write-once row: num_values = 0 makes every written value globally
/// fresh, the "read mapping known" regime — O(n) via the read map.
FragmentTrace gen_write_once(std::size_t n, std::uint64_t seed) {
  workload::SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = n / 8;
  params.num_values = 0;
  params.write_fraction = 0.4;
  params.rmw_fraction = 0.0;
  Xoshiro256ss rng(seed);
  return {workload::generate_coherent(params, rng).execution, std::nullopt};
}

/// Write-order row: colliding values (so the trace would NOT be
/// write-once) but the generator's serialization log rides along,
/// enabling the polynomial §5.2 check.
FragmentTrace gen_write_order(std::size_t n, std::uint64_t seed) {
  workload::SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = n / 8;
  params.num_values = 4;
  params.write_fraction = 0.5;
  params.rmw_fraction = 0.0;
  Xoshiro256ss rng(seed);
  workload::GeneratedTrace trace = workload::generate_coherent(params, rng);
  return {std::move(trace.execution), std::move(trace.write_order)};
}

/// One-op row: n histories of one operation each, colliding values.
FragmentTrace gen_one_op(std::size_t n, std::uint64_t seed) {
  workload::SingleAddressParams params;
  params.num_histories = n;
  params.ops_per_history = 1;
  params.num_values = 4;
  params.write_fraction = 0.4;
  params.rmw_fraction = 0.0;
  Xoshiro256ss rng(seed);
  return {workload::generate_coherent(params, rng).execution, std::nullopt};
}

/// RMW-chain row: a globally forced chain dealt round-robin over k
/// histories. Step t (executed by history t mod k) is
/// RW(a, t mod V, (t+1) mod V) with V = 2k: values repeat (so the trace
/// is not write-once), but within any window of k pending heads the
/// read values are distinct, so exactly one RMW is enabled at every
/// step and the O(n) forced walk decides it.
FragmentTrace gen_rmw_chain(std::size_t n, std::uint64_t /*seed*/) {
  constexpr std::size_t kHistories = 8;
  constexpr Value kCycle = 2 * kHistories;
  Execution exec;
  for (std::size_t p = 0; p < kHistories; ++p)
    exec.add_history(ProcessHistory{});
  for (std::size_t t = 0; t < n; ++t) {
    const auto read = static_cast<Value>(t % kCycle);
    const auto written = static_cast<Value>((t + 1) % kCycle);
    exec.append(t % kHistories, RW(kAddr, read, written));
  }
  exec.set_final_value(kAddr, static_cast<Value>(n % kCycle));
  return {std::move(exec), std::nullopt};
}

// --- timing ---------------------------------------------------------------

vmc::WriteOrderMap order_map(const FragmentTrace& trace) {
  vmc::WriteOrderMap orders;
  if (trace.write_order) orders.emplace(kAddr, *trace.write_order);
  return orders;
}

/// Full routed path: one-pass index, classify, dedicated decider.
vmc::Verdict run_routed(const FragmentTrace& trace) {
  const AddressIndex index(trace.exec);
  const vmc::WriteOrderMap orders = order_map(trace);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(
      index, trace.write_order ? &orders : nullptr);
  benchmark::DoNotOptimize(routed);
  return routed.report.verdict;
}

/// Exact path on the same input: same index build, then the frontier
/// search (what every address pays without shape-directed routing).
vmc::Verdict run_exact(const FragmentTrace& trace) {
  const AddressIndex index(trace.exec);
  const auto projection = index.view_at(0).materialize();
  const vmc::CheckResult result = vmc::check_exact(
      vmc::VmcInstance{projection, index.entry(0).addr});
  benchmark::DoNotOptimize(result);
  return result.verdict;
}

double time_run(const FragmentTrace& trace,
                vmc::Verdict (*run)(const FragmentTrace&)) {
  Stopwatch warmup;
  benchmark::DoNotOptimize(run(trace));
  const double once = warmup.seconds();
  const int reps =
      once > 0 ? std::clamp(static_cast<int>(50e-3 / once), 1, 512) : 512;
  Stopwatch timed;
  for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(run(trace));
  return timed.seconds() / reps;
}

// --- the sweep ------------------------------------------------------------

struct SweepPoint {
  std::size_t total_ops = 0;
  double routed_sec = 0;
  double exact_sec = 0;
};

struct FragmentSweep {
  const char* name;                  ///< Figure 5.3 row label
  analysis::Fragment expected;       ///< classifier must agree, or we abort
  analysis::Decider expected_decider;
  std::vector<std::size_t> sizes;
  FragmentTrace (*generate)(std::size_t, std::uint64_t);
  // filled by run_sweep:
  std::vector<SweepPoint> points;
  double routed_slope = 0;
  double exact_slope = 0;
  double speedup_at_largest = 0;
};

/// The bench is only honest if every generated trace actually lands in
/// the advertised fragment and its dedicated decider produces the
/// verdict (no silent exact fallback). Checked at every sweep point.
void check_routing(const FragmentSweep& sweep, const FragmentTrace& trace) {
  const AddressIndex index(trace.exec);
  const vmc::WriteOrderMap orders = order_map(trace);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(
      index, trace.write_order ? &orders : nullptr);
  if (routed.fragments.size() != 1 || routed.fragments[0] != sweep.expected ||
      routed.deciders[0] != sweep.expected_decider ||
      routed.report.verdict != vmc::Verdict::kCoherent) {
    std::cerr << "bench_analysis: sweep '" << sweep.name << "' misrouted: got "
              << (routed.fragments.empty() ? "?"
                                           : to_string(routed.fragments[0]))
              << " via "
              << (routed.deciders.empty() ? "?" : to_string(routed.deciders[0]))
              << ", verdict " << to_string(routed.report.verdict) << "\n";
    std::exit(1);
  }
  const vmc::Verdict exact = run_exact(trace);
  if (exact != vmc::Verdict::kCoherent) {
    std::cerr << "bench_analysis: exact path disagrees on '" << sweep.name
              << "': " << to_string(exact) << "\n";
    std::exit(1);
  }
}

std::vector<FragmentSweep> make_sweeps() {
  // Sweep ceilings differ per fragment because the exact-path baseline
  // differs wildly: on write-once/write-order shapes the frontier search
  // goes exponential (seconds by n=256), while one-op and forced-chain
  // shapes collapse under eager reads + memoization and stay cheap to
  // n=4096. Each largest point keeps the exact baseline around a second
  // so the whole sweep fits a CI budget.
  const std::vector<std::size_t> small{64, 96, 128, 192, 256};
  const std::vector<std::size_t> medium{64, 128, 256, 512};
  // One-op stops at 2048: at 4096 the colliding-value frontier search
  // goes pathological (minutes, ~10 GB of memoized states) — itself a
  // good argument for routing, but not one a benchmark should wait on.
  const std::vector<std::size_t> one_op_sizes{128, 256, 512, 1024, 2048};
  const std::vector<std::size_t> large{256, 512, 1024, 2048, 4096};
  std::vector<FragmentSweep> sweeps;
  sweeps.push_back({"write-once", analysis::Fragment::kWriteOnce,
                    analysis::Decider::kWriteOnce, small, gen_write_once,
                    {}, 0, 0, 0});
  sweeps.push_back({"write-order", analysis::Fragment::kWriteOrder,
                    analysis::Decider::kWriteOrder, medium, gen_write_order,
                    {}, 0, 0, 0});
  sweeps.push_back({"one-op", analysis::Fragment::kOneOp,
                    analysis::Decider::kOneOp, one_op_sizes, gen_one_op,
                    {}, 0, 0, 0});
  sweeps.push_back({"rmw-chain", analysis::Fragment::kRmwChain,
                    analysis::Decider::kRmwChain, large, gen_rmw_chain,
                    {}, 0, 0, 0});
  return sweeps;
}

void run_sweep() {
  std::cout << "\n== Fragment routing: polynomial deciders vs exact search "
               "==\n";
  std::vector<FragmentSweep> sweeps = make_sweeps();
  for (FragmentSweep& sweep : sweeps) {
    TextTable table({"fragment", "n", "routed", "exact", "speedup"});
    std::vector<double> ns, routed_ts, exact_ts;
    char buf[64];
    for (const std::size_t n : sweep.sizes) {
      const FragmentTrace trace = sweep.generate(n, 97 + n);
      check_routing(sweep, trace);
      SweepPoint point;
      point.total_ops = trace.exec.num_operations();
      point.routed_sec = time_run(trace, run_routed);
      point.exact_sec = time_run(trace, run_exact);
      sweep.points.push_back(point);
      ns.push_back(static_cast<double>(point.total_ops));
      routed_ts.push_back(point.routed_sec + 1e-12);
      exact_ts.push_back(point.exact_sec + 1e-12);
      std::snprintf(buf, sizeof buf, "%.1fx", point.exact_sec / point.routed_sec);
      table.add_row({sweep.name, std::to_string(point.total_ops),
                     human_nanos(point.routed_sec * 1e9),
                     human_nanos(point.exact_sec * 1e9), buf});
    }
    table.print(std::cout);
    sweep.routed_slope = bench::loglog_slope(ns, routed_ts);
    sweep.exact_slope = bench::loglog_slope(ns, exact_ts);
    const SweepPoint& largest = sweep.points.back();
    sweep.speedup_at_largest = largest.exact_sec / largest.routed_sec;
    std::cout << sweep.name
              << ": routed scaling " << bench::format_slope(sweep.routed_slope)
              << ", exact scaling " << bench::format_slope(sweep.exact_slope)
              << ", speedup at n=" << largest.total_ops << ": "
              << sweep.speedup_at_largest << "x\n";
  }

  std::ofstream json("BENCH_analysis.json");
  json << "{\n  \"bench\": \"analysis_router\",\n  \"fragments\": [\n";
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const FragmentSweep& sweep = sweeps[s];
    json << "    {\"fragment\": \"" << sweep.name << "\",\n"
         << "     \"routed_slope\": " << sweep.routed_slope << ",\n"
         << "     \"exact_slope\": " << sweep.exact_slope << ",\n"
         << "     \"speedup_at_largest\": " << sweep.speedup_at_largest
         << ",\n     \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      const SweepPoint& point = sweep.points[i];
      json << "       {\"total_ops\": " << point.total_ops
           << ", \"routed_sec\": " << point.routed_sec
           << ", \"exact_sec\": " << point.exact_sec << "}"
           << (i + 1 < sweep.points.size() ? "," : "") << "\n";
    }
    json << "     ]}" << (s + 1 < sweeps.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_analysis.json\n";

  for (const FragmentSweep& sweep : sweeps) {
    if ((std::string(sweep.name) == "write-once" ||
         std::string(sweep.name) == "write-order") &&
        sweep.speedup_at_largest < 5.0) {
      std::cerr << "bench_analysis: " << sweep.name
                << " speedup below the 5x acceptance floor\n";
      std::exit(1);
    }
  }
}

// --- classification-throughput microbenchmark -----------------------------

void BM_ClassifyAll(benchmark::State& state) {
  workload::MultiAddressParams params;
  params.num_processes = 8;
  params.ops_per_process = static_cast<std::size_t>(state.range(0));
  params.num_addresses = 16;
  params.num_values = 8;
  Xoshiro256ss rng(13);
  const Execution exec = workload::generate_sc(params, rng).execution;
  const AddressIndex index(exec);
  for (auto _ : state) {
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const analysis::FragmentProfile profile =
          analysis::classify(index.view_at(i));
      benchmark::DoNotOptimize(profile);
    }
  }
  state.SetComplexityN(static_cast<std::int64_t>(exec.num_operations()));
}
BENCHMARK(BM_ClassifyAll)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  run_sweep();
  return 0;
}
