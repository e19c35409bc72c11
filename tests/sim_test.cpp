// Tests for the MESI multiprocessor simulator and its integration with
// the checkers: clean runs are coherent (and SC) by construction, faulty
// runs are caught, and the recorded write-order drives the polynomial
// verification path end to end.

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "vsc/vscc.hpp"

namespace vermem::sim {
namespace {

using vmc::Verdict;

/// Whole-trace coherence under the bus's recorded write-orders.
vmc::CoherenceReport verify_with_log(const SimResult& result) {
  const AddressIndex index(result.execution);
  return analysis::verify_coherence_routed(index, &result.write_orders).report;
}

/// Reference without the log: the unpruned exact search on every address.
bool exact_coherent(const Execution& exec) {
  const AddressIndex index(exec);
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const auto projection = index.view_at(i).materialize();
    const vmc::CheckResult result =
        vmc::check_exact({projection.execution, index.entry(i).addr});
    if (result.verdict != Verdict::kCoherent) return false;
  }
  return true;
}

SimResult run_random(std::uint64_t seed, FaultPlan faults = {},
                     std::size_t cores = 4, std::size_t requests = 40) {
  Xoshiro256ss rng(seed);
  RandomProgramParams params;
  params.num_cores = cores;
  params.requests_per_core = requests;
  params.num_addresses = 6;
  const auto programs = random_programs(params, rng);
  SimConfig config;
  config.num_cores = cores;
  config.cache_lines = 4;  // small: forces evictions and writebacks
  config.seed = seed;
  config.faults = faults;
  return run_programs(programs, config);
}

TEST(Machine, CleanRunsAreCoherent) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const SimResult result = run_random(seed);
    EXPECT_EQ(result.stats.faults_injected, 0u);
    const auto report = verify_with_log(result);
    EXPECT_TRUE(report.coherent())
        << "seed " << seed << ": "
        << (report.first_violation() ? report.first_violation()->result.reason()
                                     : "undecided");
  }
}

TEST(Machine, CleanRunsAreSequentiallyConsistent) {
  // The atomic-bus MESI machine implements SC; verify with the VSCC
  // pipeline on a smaller run (the exact SC fallback must never trigger
  // on these, so keep sizes frontier-search friendly).
  const SimResult result = run_random(7, {}, /*cores=*/3, /*requests=*/15);
  vsc::VsccOptions options;
  options.write_orders = &result.write_orders;
  const auto report = vsc::check_vscc(result.execution, options);
  EXPECT_EQ(report.sc.verdict, Verdict::kCoherent) << report.sc.reason();
}

TEST(Machine, DeterministicForSameSeed) {
  const SimResult a = run_random(11), b = run_random(11);
  EXPECT_EQ(a.execution, b.execution);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  const SimResult c = run_random(12);
  EXPECT_NE(a.execution, c.execution);
}

TEST(Machine, StatsAreConsistent) {
  const SimResult result = run_random(13);
  const auto& stats = result.stats;
  EXPECT_EQ(stats.hits + stats.misses, stats.loads + stats.stores + stats.rmws);
  EXPECT_EQ(stats.misses, stats.bus_reads + stats.bus_read_exclusives);
  EXPECT_GT(stats.writebacks, 0u);  // small cache guarantees evictions
}

TEST(Machine, RecordedWriteOrderCoversAllWrites) {
  const SimResult result = run_random(17);
  std::size_t recorded = 0;
  for (const auto& [addr, order] : result.write_orders) recorded += order.size();
  std::size_t writes = 0;
  for (const auto& history : result.execution.histories())
    for (const auto& op : history) writes += op.writes_memory();
  EXPECT_EQ(recorded, writes);
}

TEST(Workloads, PingPongCounterSumsUp) {
  const auto programs = ping_pong(25);
  SimConfig config;
  config.num_cores = 2;
  config.seed = 19;
  const SimResult result = run_programs(programs, config);
  EXPECT_EQ(result.execution.final_value(0), std::optional<Value>(50));
  const auto report = verify_with_log(result);
  EXPECT_TRUE(report.coherent());
}

TEST(Workloads, ProducerConsumerIsCoherent) {
  const auto programs = producer_consumer(4, 10);
  SimConfig config;
  config.num_cores = 4;
  config.cache_lines = 2;
  config.seed = 23;
  const SimResult result = run_programs(programs, config);
  const auto report = verify_with_log(result);
  EXPECT_TRUE(report.coherent());
}

TEST(Workloads, LockContentionIsCoherent) {
  const auto programs = lock_contention(3, 8);
  SimConfig config;
  config.num_cores = 3;
  config.seed = 29;
  const SimResult result = run_programs(programs, config);
  const auto report = verify_with_log(result);
  EXPECT_TRUE(report.coherent());
  // Ticket counter took 3*8 increments.
  EXPECT_EQ(result.execution.final_value(0), std::optional<Value>(24));
}

struct FaultCase {
  const char* name;
  FaultPlan plan;
};

// Without a printer gtest lists the parameter as raw bytes, which include
// the ASLR-randomised address of `name`; the test's listed name would then
// change from one run to the next.
void PrintTo(const FaultCase& fault_case, std::ostream* os) {
  *os << fault_case.name;
}

class FaultDetection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultDetection, InjectedFaultsAreCaught) {
  // With an aggressive fault rate, at least one of several seeds must
  // both inject a fault and be flagged by the write-order checker. (A
  // single fault is not guaranteed detectable — the perturbed trace can
  // coincide with a legal one — which is why this asserts over a batch.)
  const FaultPlan plan = GetParam().plan;
  int injected_runs = 0, flagged_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SimResult result = run_random(seed, plan);
    if (result.stats.faults_injected == 0) continue;
    ++injected_runs;
    const auto report = verify_with_log(result);
    flagged_runs += report.verdict == Verdict::kIncoherent;
  }
  EXPECT_GT(injected_runs, 0);
  EXPECT_GT(flagged_runs, 0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Protocol, FaultDetection,
    ::testing::Values(FaultCase{"DropInvalidation", {.drop_invalidation = 0.3}},
                      FaultCase{"StaleFill", {.stale_fill = 0.5}},
                      FaultCase{"LostWriteback", {.lost_writeback = 0.5}},
                      FaultCase{"CorruptValue", {.corrupt_value = 0.1}}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(FaultDetection, CorruptLogFlagsTheLogNotTheMachine) {
  // A corrupted write-order log makes the *augmented* check fail even
  // though the machine ran correctly; the exact checker (no log) clears
  // the trace. This is the practical difference between "the protocol is
  // broken" and "the verification hardware is broken".
  FaultPlan plan;
  plan.corrupt_write_log = 1.0;
  bool found_divergence = false;
  for (std::uint64_t seed = 1; seed <= 8 && !found_divergence; ++seed) {
    const SimResult result =
        run_random(seed, plan, /*cores=*/3, /*requests=*/12);
    if (result.stats.faults_injected == 0) continue;
    const auto with_log = verify_with_log(result);
    if (with_log.verdict != Verdict::kIncoherent) continue;
    const bool exact = exact_coherent(result.execution);
    EXPECT_TRUE(exact);
    found_divergence = exact;
  }
  EXPECT_TRUE(found_divergence);
}

}  // namespace
}  // namespace vermem::sim
