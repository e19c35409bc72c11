// Tests for the directory-based coherence simulator: clean runs verify,
// ack-waiting makes the machine SC while eager writes break SC but keep
// coherence (the live Section 6 distinction), and injected faults are
// caught by the checkers.

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "sim/directory.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "vsc/exact.hpp"
#include "vsc/vscc.hpp"

namespace vermem::sim {
namespace {

using vmc::Verdict;

/// Whole-trace coherence under the home nodes' recorded write-orders.
vmc::CoherenceReport verify_with_log(const Execution& exec,
                                     const vmc::WriteOrderMap& write_orders) {
  const AddressIndex index(exec);
  return analysis::verify_coherence_routed(index, &write_orders).report;
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

DirectoryResult run_random_dir(std::uint64_t seed, FaultPlan faults = {},
                               std::size_t nodes = 4, std::size_t requests = 40,
                               bool eager_writes = false) {
  Xoshiro256ss rng(seed);
  RandomProgramParams params;
  params.num_cores = nodes;
  params.requests_per_core = requests;
  params.num_addresses = 6;
  const auto programs = random_programs(params, rng);
  DirectoryConfig config;
  config.num_nodes = nodes;
  config.cache_lines = 4;
  config.seed = seed;
  config.faults = faults;
  config.eager_writes = eager_writes;
  return run_programs_directory(programs, config);
}

TEST(Directory, CleanRunsAreCoherent) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const DirectoryResult result = run_random_dir(seed);
    EXPECT_EQ(result.stats.base.faults_injected, 0u);
    const auto report = verify_with_log(result.execution, result.write_orders);
    EXPECT_TRUE(report.coherent())
        << "seed " << seed << ": "
        << (report.first_violation() ? report.first_violation()->result.reason()
                                     : "undecided");
  }
}

TEST(Directory, CleanRunsAreSequentiallyConsistent) {
  // With invalidation-ack collection the machine implements SC.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const DirectoryResult result = run_random_dir(seed, {}, 3, 12);
    vsc::VsccOptions options;
    options.write_orders = &result.write_orders;
    const auto report = vsc::check_vscc(result.execution, options);
    EXPECT_EQ(report.sc.verdict, Verdict::kCoherent)
        << "seed " << seed << ": " << report.sc.reason();
  }
}

TEST(Directory, EagerWritesStayCoherent) {
  // Committing before the invalidation acks is a *consistency* relaxation,
  // not a coherence bug: every run still verifies per address.
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    const DirectoryResult result =
        run_random_dir(seed, {}, 4, 40, /*eager_writes=*/true);
    const auto report = verify_with_log(result.execution, result.write_orders);
    EXPECT_TRUE(report.coherent()) << "seed " << seed;
  }
}

/// Message-passing workload: node 0 writes payload x then flag y each
/// round; node 1 polls flag then payload. The classic SC discriminator.
std::vector<Program> mp_programs(std::size_t rounds) {
  std::vector<Program> programs(2);
  for (std::size_t round = 1; round <= rounds; ++round) {
    programs[0].push_back({Request::Kind::kStore, 0, static_cast<Value>(round)});
    programs[0].push_back({Request::Kind::kStore, 1, static_cast<Value>(round)});
    programs[1].push_back({Request::Kind::kLoad, 1, 0});
    programs[1].push_back({Request::Kind::kLoad, 0, 0});
  }
  return programs;
}

TEST(Directory, EagerWritesEventuallyViolateSc) {
  // ...but on the message-passing shape some run must exhibit a non-SC
  // outcome: a lagging invalidation lets the reader see a fresh flag with
  // a stale payload.
  int sc_violations = 0;
  for (std::uint64_t seed = 1; seed <= 20 && sc_violations == 0; ++seed) {
    DirectoryConfig config;
    config.num_nodes = 2;
    config.cache_lines = 4;
    config.seed = seed;
    config.min_latency = 1;
    config.max_latency = 24;  // wide window: invalidations lag
    config.eager_writes = true;
    const DirectoryResult result =
        run_programs_directory(mp_programs(10), config);

    vsc::ScOptions sc;
    sc.max_transitions = 5'000'000;
    const auto verdict = vsc::check_sc_exact(result.execution, sc);
    if (verdict.verdict == Verdict::kIncoherent) {
      ++sc_violations;
      // Sanity: still coherent per address.
      EXPECT_TRUE(exact_coherent(result.execution));
    }
  }
  EXPECT_GT(sc_violations, 0)
      << "eager writes never produced an SC violation in 20 seeds";
}

TEST(Directory, DroppedInvalidationIsAConsistencyBugNotACoherenceBug) {
  // In this protocol a stale Shared copy can only ever serve *loads* (a
  // store or RMW on it misses to GetX and fetches fresh data), so a
  // dropped invalidation never breaks per-address coherence — but it
  // does break sequential consistency on the message-passing shape.
  FaultPlan plan;
  plan.drop_invalidation = 1.0;
  int sc_violations = 0, faulty_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DirectoryConfig config;
    config.num_nodes = 2;
    config.cache_lines = 4;
    config.seed = seed;
    config.faults = plan;
    const DirectoryResult result =
        run_programs_directory(mp_programs(8), config);
    if (result.stats.base.faults_injected == 0) continue;
    ++faulty_runs;

    // Coherence always survives.
    const auto coherence = verify_with_log(result.execution, result.write_orders);
    EXPECT_TRUE(coherence.coherent()) << "seed " << seed;

    vsc::ScOptions sc;
    sc.max_transitions = 5'000'000;
    if (vsc::check_sc_exact(result.execution, sc).verdict ==
        Verdict::kIncoherent)
      ++sc_violations;
  }
  EXPECT_GT(faulty_runs, 0);
  EXPECT_GT(sc_violations, 0);
}

TEST(Directory, DeterministicForSameSeed) {
  const DirectoryResult a = run_random_dir(31), b = run_random_dir(31);
  EXPECT_EQ(a.execution, b.execution);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
}

TEST(Directory, StatsAreConsistent) {
  const DirectoryResult result = run_random_dir(37, {}, 4, 100);
  const auto& stats = result.stats.base;
  EXPECT_EQ(stats.hits + stats.misses, stats.loads + stats.stores + stats.rmws);
  EXPECT_GT(result.stats.messages, 0u);
  EXPECT_GT(result.stats.ticks, 0u);
}

TEST(Directory, WriteOrderCoversAllWrites) {
  const DirectoryResult result = run_random_dir(41);
  std::size_t recorded = 0;
  for (const auto& [addr, order] : result.write_orders) recorded += order.size();
  std::size_t writes = 0;
  for (const auto& history : result.execution.histories())
    for (const auto& op : history) writes += op.writes_memory();
  EXPECT_EQ(recorded, writes);
}

struct DirFaultCase {
  const char* name;
  FaultPlan plan;
};

// Print the case by name: the default byte dump includes the address of
// `name`, which makes the listed test name differ between runs.
void PrintTo(const DirFaultCase& fault_case, std::ostream* os) {
  *os << fault_case.name;
}

class DirectoryFaults : public ::testing::TestWithParam<DirFaultCase> {};

TEST_P(DirectoryFaults, InjectedFaultsAreCaught) {
  const FaultPlan plan = GetParam().plan;
  int injected_runs = 0, flagged_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DirectoryResult result = run_random_dir(seed, plan);
    if (result.stats.base.faults_injected == 0) continue;
    ++injected_runs;
    const auto report = verify_with_log(result.execution, result.write_orders);
    flagged_runs += report.verdict == Verdict::kIncoherent;
  }
  EXPECT_GT(injected_runs, 0);
  EXPECT_GT(flagged_runs, 0) << GetParam().name;
}

// Note: drop_invalidation is deliberately absent — in the directory
// protocol it is a pure consistency bug (see the dedicated test above).
INSTANTIATE_TEST_SUITE_P(
    Protocol, DirectoryFaults,
    ::testing::Values(
        DirFaultCase{"StaleFill", {.stale_fill = 0.6}},
        DirFaultCase{"LostWriteback", {.lost_writeback = 0.5}},
        DirFaultCase{"CorruptValue", {.corrupt_value = 0.1}}),
    [](const ::testing::TestParamInfo<DirFaultCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Directory, SharedWorkloadsAgreeWithBusMachine) {
  // Same programs on both machines: both must produce coherent traces and
  // the same final ticket-counter value for the RMW workload.
  const auto programs = lock_contention(3, 10);
  SimConfig bus_config;
  bus_config.num_cores = 3;
  bus_config.seed = 5;
  const SimResult bus = run_programs(programs, bus_config);

  DirectoryConfig dir_config;
  dir_config.num_nodes = 3;
  dir_config.seed = 5;
  const DirectoryResult dir = run_programs_directory(programs, dir_config);

  EXPECT_EQ(bus.execution.final_value(0), dir.execution.final_value(0));
  EXPECT_TRUE(verify_with_log(dir.execution, dir.write_orders)
                  .coherent());
}

}  // namespace
}  // namespace vermem::sim
