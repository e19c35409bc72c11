// Tests for the streaming coherence checker: equivalence with the batch
// Section 5.2 algorithm on generated traces, prompt violation detection,
// bounded-memory behavior, and end-to-end runs against both simulators.

#include <gtest/gtest.h>

#include "sim/directory.hpp"
#include "sim/machine.hpp"
#include "vmc/instance.hpp"
#include "vmc/online.hpp"
#include "vmc/write_order.hpp"
#include "workload/random.hpp"

namespace vermem::vmc {
namespace {

/// Replays an execution's events through the online checker in the given
/// global order; returns the checker for inspection.
OnlineCoherenceChecker replay(const Execution& exec, const Schedule& order,
                              bool check_finals = true) {
  OnlineCoherenceChecker checker(
      static_cast<std::uint32_t>(exec.num_processes()),
      {exec.initial_values().begin(), exec.initial_values().end()});
  for (const OpRef ref : order) {
    if (!checker.observe(ref.process, exec.op(ref))) break;
  }
  if (check_finals && checker.ok()) checker.finish(exec.final_values());
  return checker;
}

TEST(Online, AcceptsGeneratedCoherentStreams) {
  Xoshiro256ss rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(5);
    params.ops_per_history = 4 + rng.below(20);
    params.num_values = 2 + rng.below(5);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);
    const auto checker = replay(trace.execution, trace.witness);
    EXPECT_TRUE(checker.ok()) << checker.violation()->reason;
    EXPECT_EQ(checker.stats().events, trace.execution.num_operations());
  }
}

TEST(Online, AcceptsMultiAddressScStreams) {
  Xoshiro256ss rng(3);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 60;
  params.num_addresses = 5;
  const auto trace = workload::generate_sc(params, rng);
  const auto checker = replay(trace.execution, trace.witness);
  EXPECT_TRUE(checker.ok()) << checker.violation()->reason;
}

TEST(Online, FlagsFabricatedValueAtItsEvent) {
  // P0 writes 1,2; P1 reads 1 then (incoherently) 9.
  OnlineCoherenceChecker checker(2);
  EXPECT_TRUE(checker.observe(0, W(0, 1)));
  EXPECT_TRUE(checker.observe(1, R(0, 1)));
  EXPECT_TRUE(checker.observe(0, W(0, 2)));
  EXPECT_FALSE(checker.observe(1, R(0, 9)));
  ASSERT_TRUE(checker.violation().has_value());
  EXPECT_EQ(checker.violation()->event_index, 3u);
  EXPECT_EQ(checker.violation()->process, 1u);
  // The checker latches.
  EXPECT_FALSE(checker.observe(0, R(0, 2)));
}

TEST(Online, FlagsBackwardRead) {
  // A process that saw 2 cannot go back to 1 without a rewrite.
  OnlineCoherenceChecker checker(2);
  checker.observe(0, W(0, 1));
  checker.observe(0, W(0, 2));
  EXPECT_TRUE(checker.observe(1, R(0, 2)));
  EXPECT_FALSE(checker.observe(1, R(0, 1)));
}

TEST(Online, AllowsLaggingReader) {
  // A reader behind in time can still read the older write if it never
  // observed the newer one.
  OnlineCoherenceChecker checker(2);
  checker.observe(0, W(0, 1));
  checker.observe(0, W(0, 2));
  EXPECT_TRUE(checker.observe(1, R(0, 1)));
  EXPECT_TRUE(checker.observe(1, R(0, 2)));
}

TEST(Online, RmwMustReadSerializationTail) {
  OnlineCoherenceChecker checker(2);
  checker.observe(0, W(0, 1));
  EXPECT_TRUE(checker.observe(1, RW(0, 1, 2)));
  EXPECT_FALSE(checker.observe(0, RW(0, 1, 3)));  // tail is 2, not 1
}

TEST(Online, ReadOfInitialValueOnlyBeforeProgress) {
  OnlineCoherenceChecker checker(2, {{0, 7}});
  EXPECT_TRUE(checker.observe(1, R(0, 7)));
  checker.observe(0, W(0, 1));
  EXPECT_TRUE(checker.observe(1, R(0, 7)));  // still anchored before the write
  EXPECT_TRUE(checker.observe(1, R(0, 1)));
  EXPECT_FALSE(checker.observe(1, R(0, 7)));  // moved past; 7 is gone
}

TEST(Online, FinalValueMismatchFlagged) {
  OnlineCoherenceChecker checker(1);
  checker.observe(0, W(0, 1));
  EXPECT_FALSE(checker.finish({{0, 9}}));
  EXPECT_TRUE(checker.violation().has_value());
}

TEST(Online, SyncOpsPassThrough) {
  OnlineCoherenceChecker checker(1);
  EXPECT_TRUE(checker.observe(0, Acq(9)));
  EXPECT_TRUE(checker.observe(0, Rel(9)));
  EXPECT_TRUE(checker.ok());
}

TEST(Online, UnregisteredProcessRejected) {
  OnlineCoherenceChecker checker(1);
  EXPECT_FALSE(checker.observe(5, W(0, 1)));
}

TEST(Online, ResetClearsLatchedViolationAndStats) {
  OnlineCoherenceChecker checker(2, {{0, 7}});
  EXPECT_TRUE(checker.observe(0, W(0, 1)));
  EXPECT_FALSE(checker.observe(1, R(0, 9)));  // latch a violation
  ASSERT_TRUE(checker.violation().has_value());

  checker.reset();
  EXPECT_TRUE(checker.ok());
  EXPECT_FALSE(checker.violation().has_value());
  EXPECT_EQ(checker.stats().events, 0u);
  EXPECT_EQ(checker.stats().retained_entries, 0u);
  // Process count and initial values survive a plain reset: the seeded
  // initial value is readable again, and the old run's writes are gone.
  EXPECT_TRUE(checker.observe(1, R(0, 7)));
  EXPECT_FALSE(checker.observe(1, R(0, 1)));
}

TEST(Online, ResetReusesInstanceAcrossTraces) {
  // One pooled instance serving traces back-to-back must behave like a
  // fresh allocation for each.
  Xoshiro256ss rng(11);
  OnlineCoherenceChecker pooled(1);
  for (int trial = 0; trial < 10; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 4 + rng.below(12);
    params.num_values = 2 + rng.below(4);
    const auto trace = workload::generate_coherent(params, rng);
    pooled.reset(static_cast<std::uint32_t>(trace.execution.num_processes()),
                 {trace.execution.initial_values().begin(),
                  trace.execution.initial_values().end()});
    for (const OpRef ref : trace.witness)
      ASSERT_TRUE(pooled.observe(ref.process, trace.execution.op(ref)))
          << pooled.violation()->reason;
    EXPECT_TRUE(pooled.finish(trace.execution.final_values()));
    EXPECT_EQ(pooled.stats().events, trace.execution.num_operations());
  }
}

TEST(Online, ResetWithNewShapeRegistersProcesses) {
  OnlineCoherenceChecker checker(1);
  EXPECT_FALSE(checker.observe(2, W(0, 1)));  // unregistered process
  checker.reset(3, {{5, 1}});
  EXPECT_TRUE(checker.observe(2, R(5, 1)));
  EXPECT_TRUE(checker.observe(0, W(5, 2)));
  EXPECT_TRUE(checker.ok());
}

TEST(Online, WindowIsGarbageCollected) {
  // Two processes ping-ponging writes: anchors advance together, so the
  // retained window stays tiny even across thousands of writes.
  OnlineCoherenceChecker checker(2);
  Value v = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::uint32_t p = round % 2;
    checker.observe(p, W(0, ++v));
    checker.observe(1 - p, R(0, v));
    // The read does not advance the reader's anchor past the write... it
    // does (anchor = matched position). Both anchors track the tail.
  }
  ASSERT_TRUE(checker.ok());
  EXPECT_GT(checker.stats().discarded_entries, 1500u);
  EXPECT_LT(checker.stats().max_retained_entries, 16u);
}

TEST(Online, AgreesWithBatchCheckerOnFaultyStreams) {
  // Perturbed streams: online must agree with the batch write-order
  // checker (same algorithm, same inputs) on accept/reject.
  Xoshiro256ss rng(7);
  int rejected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 3;
    params.ops_per_history = 8;
    params.num_values = 3;
    const auto trace = workload::generate_coherent(params, rng);
    auto faulted = workload::inject_fault(
        trace, workload::Fault::kStaleRead, rng);
    if (!faulted) continue;

    // Batch: original write order against the faulted execution.
    const VmcInstance instance{*faulted, 0};
    const auto batch = check_with_write_order(instance, trace.write_order);

    // Online: replay the faulted execution in the generating order.
    const auto checker = replay(*faulted, trace.witness, /*check_finals=*/true);
    EXPECT_EQ(checker.ok(), batch.verdict == Verdict::kCoherent)
        << "trial " << trial << ": " << batch.reason();
    rejected += !checker.ok();
  }
  EXPECT_GT(rejected, 0);
}

TEST(Online, BusMachineStreamVerifies) {
  Xoshiro256ss rng(11);
  sim::RandomProgramParams params;
  params.num_cores = 4;
  params.requests_per_core = 300;
  params.num_addresses = 8;
  const auto programs = sim::random_programs(params, rng);
  sim::SimConfig config;
  config.num_cores = 4;
  config.cache_lines = 4;
  config.seed = 11;
  const auto result = sim::run_programs(programs, config);
  const auto checker = replay(result.execution, result.commit_order);
  EXPECT_TRUE(checker.ok()) << checker.violation()->reason;
}

TEST(Online, DirectoryMachineStreamVerifies) {
  Xoshiro256ss rng(13);
  sim::RandomProgramParams params;
  params.num_cores = 4;
  params.requests_per_core = 200;
  params.num_addresses = 8;
  const auto programs = sim::random_programs(params, rng);
  sim::DirectoryConfig config;
  config.num_nodes = 4;
  config.cache_lines = 4;
  config.seed = 13;
  const auto result = sim::run_programs_directory(programs, config);
  const auto checker = replay(result.execution, result.commit_order);
  EXPECT_TRUE(checker.ok()) << checker.violation()->reason;
}

TEST(Online, CatchesSimulatorFaultsInFlight) {
  // Stale-fill faults must trip the online checker on some seed, at the
  // event where the stale data is observed.
  sim::FaultPlan plan;
  plan.stale_fill = 0.5;
  int flagged = 0, faulty = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256ss rng(seed);
    sim::RandomProgramParams params;
    params.num_cores = 4;
    params.requests_per_core = 60;
    params.num_addresses = 6;
    const auto programs = sim::random_programs(params, rng);
    sim::SimConfig config;
    config.num_cores = 4;
    config.cache_lines = 4;
    config.seed = seed;
    config.faults = plan;
    const auto result = sim::run_programs(programs, config);
    if (result.stats.faults_injected == 0) continue;
    ++faulty;
    const auto checker = replay(result.execution, result.commit_order);
    flagged += !checker.ok();
  }
  EXPECT_GT(faulty, 0);
  EXPECT_GT(flagged, 0);
}

}  // namespace
}  // namespace vermem::vmc
