// Tests for the VSC machinery: exact SC search, VSC-Conflict merge, and
// the VSCC pipeline, including the Section 6.3 phenomenon (a wrong set of
// coherent schedules can fail to merge even when the execution is SC).

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vsc/conflict.hpp"
#include "vsc/exact.hpp"
#include "vsc/exact_legacy.hpp"
#include "vsc/vscc.hpp"
#include "workload/random.hpp"

namespace vermem::vsc {
namespace {

using vmc::Verdict;

bool coherent(const Execution& exec) {
  const AddressIndex index(exec);
  return analysis::verify_coherence_routed(index).report.coherent();
}

// Classic message-passing violation: coherent per address, not SC.
Execution mp_violation() {
  return ExecutionBuilder()
      .process(W(0, 1), W(1, 1))
      .process(R(1, 1), R(0, 0))
      .build();
}

TEST(ScExact, EmptyExecution) {
  EXPECT_EQ(check_sc_exact(Execution{}).verdict, Verdict::kCoherent);
}

TEST(ScExact, MpViolationIsNotSc) {
  EXPECT_EQ(check_sc_exact(mp_violation()).verdict, Verdict::kIncoherent);
}

TEST(ScExact, MpViolationIsCoherentPerAddress) {
  EXPECT_TRUE(coherent(mp_violation()));
}

TEST(ScExact, StoreBufferingIsNotSc) {
  // Dekker/store-buffer litmus: both processes read 0 after writing.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(1, 0))
                        .process(W(1, 1), R(0, 0))
                        .build();
  EXPECT_EQ(check_sc_exact(exec).verdict, Verdict::kIncoherent);
  EXPECT_TRUE(coherent(exec));
}

TEST(ScExact, IriwIsNotSc) {
  // Independent reads of independent writes, observed in opposite orders.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(1, 1))
                        .process(R(0, 1), R(1, 0))
                        .process(R(1, 1), R(0, 0))
                        .build();
  EXPECT_EQ(check_sc_exact(exec).verdict, Verdict::kIncoherent);
  EXPECT_TRUE(coherent(exec));
}

TEST(ScExact, WitnessValidatesOnGeneratedTraces) {
  Xoshiro256ss rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(3);
    params.ops_per_process = 2 + rng.below(8);
    params.num_addresses = 1 + rng.below(3);
    const auto trace = workload::generate_sc(params, rng);
    const auto result = check_sc_exact(trace.execution);
    ASSERT_EQ(result.verdict, Verdict::kCoherent);
    const auto valid = check_sc_schedule(trace.execution, result.witness);
    EXPECT_TRUE(valid.ok) << valid.violation;
  }
}

TEST(ScExact, AblationModesAgree) {
  Xoshiro256ss rng(3);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 5;
  params.num_addresses = 2;
  for (int trial = 0; trial < 10; ++trial) {
    const auto trace = workload::generate_sc(params, rng);
    // SC by construction.
    EXPECT_EQ(check_sc_exact(trace.execution).verdict, Verdict::kCoherent);
  }
}

TEST(ScExact, BudgetYieldsUnknown) {
  Xoshiro256ss rng(5);
  workload::MultiAddressParams params;
  params.num_processes = 6;
  params.ops_per_process = 10;
  const auto trace = workload::generate_sc(params, rng);
  search::Limits options;
  options.max_states = 1;
  EXPECT_EQ(check_sc_exact(trace.execution, options).verdict, Verdict::kUnknown);
}

TEST(ScExact, FinalValuesEnforced) {
  auto exec = ExecutionBuilder().process(W(0, 1)).process(W(0, 2)).build();
  exec.set_final_value(0, 1);
  const auto result = check_sc_exact(exec);
  ASSERT_EQ(result.verdict, Verdict::kCoherent);
  EXPECT_EQ(exec.op(result.witness.back()), W(0, 1));
}

// ---- VSC-Conflict --------------------------------------------------------

TEST(Conflict, MergesConsistentSchedules) {
  Xoshiro256ss rng(7);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 12;
  params.num_addresses = 3;
  const auto trace = workload::generate_sc(params, rng);

  // Derive per-address schedules from the generating interleaving itself:
  // these are guaranteed to merge.
  CoherentSchedules schedules;
  for (const OpRef ref : trace.witness)
    schedules[trace.execution.op(ref).addr].push_back(ref);

  const auto result = check_sc_conflict(trace.execution, schedules);
  ASSERT_EQ(result.verdict, Verdict::kCoherent) << result.reason();
  const auto valid = check_sc_schedule(trace.execution, result.witness);
  EXPECT_TRUE(valid.ok) << valid.violation;
}

TEST(Conflict, RejectsInvalidSuppliedSchedule) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  CoherentSchedules schedules;
  schedules[0] = {{0, 1}, {0, 0}};  // violates program order
  EXPECT_EQ(check_sc_conflict(exec, schedules).verdict, Verdict::kUnknown);
}

TEST(Conflict, RejectsUncoveredOperations) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(1, 1)).build();
  CoherentSchedules schedules;
  schedules[0] = {{0, 0}};  // address 1 missing
  EXPECT_EQ(check_sc_conflict(exec, schedules).verdict, Verdict::kUnknown);
}

TEST(Conflict, DetectsCrossAddressCycle) {
  // Store-buffer execution *with per-address schedules forced*: merging
  // must fail (the execution itself is not SC).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(1, 0))
                        .process(W(1, 1), R(0, 0))
                        .build();
  // Coherence on each address forces: R(1,0) before W(1,1); R(0,0) before
  // W(0,1).
  CoherentSchedules schedules;
  schedules[0] = {{1, 1}, {0, 0}};
  schedules[1] = {{0, 1}, {1, 0}};
  EXPECT_EQ(check_sc_conflict(exec, schedules).verdict, Verdict::kIncoherent);
}

// ---- VSCC pipeline --------------------------------------------------------

TEST(Vscc, ScTraceVerifiesWithoutFallback) {
  Xoshiro256ss rng(11);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 8;
  params.num_addresses = 2;
  const auto trace = workload::generate_sc(params, rng);
  const auto report = check_vscc(trace.execution);
  EXPECT_TRUE(report.coherence.coherent());
  EXPECT_EQ(report.sc.verdict, Verdict::kCoherent) << report.sc.reason();
}

TEST(Vscc, IncoherentExecutionShortCircuits) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  const auto report = check_vscc(exec);
  EXPECT_EQ(report.coherence.verdict, Verdict::kIncoherent);
  EXPECT_EQ(report.sc.verdict, Verdict::kIncoherent);
  EXPECT_FALSE(report.used_exact_fallback);
}

TEST(Vscc, CoherentButNotScIsRejected) {
  const auto report = check_vscc(mp_violation());
  EXPECT_TRUE(report.coherence.coherent());
  EXPECT_EQ(report.sc.verdict, Verdict::kIncoherent);
}

TEST(Vscc, WriteOrderPathAgrees) {
  Xoshiro256ss rng(13);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 10;
  params.num_addresses = 3;
  const auto trace = workload::generate_sc(params, rng);
  VsccOptions options;
  options.write_orders = &trace.write_orders;
  const auto report = check_vscc(trace.execution, options);
  EXPECT_TRUE(report.coherence.coherent());
  EXPECT_EQ(report.sc.verdict, Verdict::kCoherent) << report.sc.reason();
}

TEST(Vscc, ColdPathReportsTheRoutersTally) {
  // The cold pipeline routes every address through
  // verify_coherence_routed, so its report carries that call's tally.
  Xoshiro256ss rng(23);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 10;
  params.num_addresses = 3;
  params.num_values = 2;
  const auto trace = workload::generate_sc(params, rng);
  const AddressIndex index(trace.execution);
  VsccOptions options;
  options.use_sat_sweep = false;
  const VsccReport report = check_vscc(index, options);
  EXPECT_EQ(report.routing, analysis::verify_coherence_routed(index).routing);
  EXPECT_EQ(report.routing.poly_routed + report.routing.exact_routed,
            index.num_addresses());
}

TEST(Vscc, FallbackRescuesWrongScheduleSets) {
  // Section 6.3: when the conflict merge fails, the exact search may still
  // prove SC. Hunt for a trace where the independently-recomputed
  // coherent schedules fail to merge; regardless of whether we find one,
  // the final verdict must always match the exact checker.
  Xoshiro256ss rng(17);
  int merges_failed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(3);
    params.ops_per_process = 3 + rng.below(6);
    params.num_addresses = 2 + rng.below(2);
    params.num_values = 2;
    const auto trace = workload::generate_sc(params, rng);
    const auto report = check_vscc(trace.execution);
    EXPECT_EQ(report.sc.verdict, Verdict::kCoherent) << report.sc.reason();
    if (report.used_exact_fallback) ++merges_failed;
  }
  // Not asserted — the count is workload-dependent — but record it so a
  // regression to "always falls back" or "never exercises the merge" is
  // visible in the test log.
  std::cout << "[ info ] conflict merge fell back " << merges_failed
            << "/40 times\n";
}

// ---- Differential: arena/packed-key SC search vs frozen legacy -------

// Same contract as the VMC differential: the rework must preserve the
// exact exploration sequence, so verdicts, witnesses, and every
// non-arena SearchStats counter must be bit-identical to the frozen
// pre-arena implementation.
TEST(ScExactDifferential, MatchesLegacyOnRandomizedTraces) {
  Xoshiro256ss rng(59);
  for (int trial = 0; trial < 25; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(3);
    params.ops_per_process = 2 + rng.below(6);
    params.num_addresses = 1 + rng.below(3);
    params.num_values = 2 + rng.below(2);
    const auto trace = workload::generate_sc(params, rng);
    // Perturb half the trials: swap two operations in one history so the
    // differential also covers non-SC executions.
    Execution exec = trace.execution;
    if (trial % 2 == 1 && exec.num_processes() > 0) {
      const std::size_t p = rng.below(exec.num_processes());
      if (exec.history(p).size() >= 2) {
        std::vector<Operation> ops(exec.history(p).begin(),
                                   exec.history(p).end());
        const std::size_t i = rng.below(ops.size() - 1);
        std::swap(ops[i], ops[i + 1]);
        ExecutionBuilder builder;
        for (std::size_t q = 0; q < exec.num_processes(); ++q) {
          if (q == p)
            builder.process_ops(ops);
          else
            builder.process_ops(std::vector<Operation>(
                exec.history(q).begin(), exec.history(q).end()));
        }
        for (const auto& [addr, value] : exec.initial_values())
          builder.initial(addr, value);
        exec = builder.build();
      }
    }
    const auto now = check_sc_exact(exec);
    const auto legacy = check_sc_exact_legacy(exec);
    ASSERT_EQ(now.verdict, legacy.verdict) << "trial " << trial;
    EXPECT_EQ(now.witness, legacy.witness);
    EXPECT_EQ(now.stats.states_visited, legacy.stats.states_visited);
    EXPECT_EQ(now.stats.transitions, legacy.stats.transitions);
    EXPECT_EQ(now.stats.max_frontier, legacy.stats.max_frontier);
    EXPECT_EQ(now.stats.prunes, legacy.stats.prunes);
    EXPECT_GE(now.stats.arena_reserved, legacy.stats.arena_reserved);
  }
}

TEST(ScExact, ClosureRunsSyncOpsBetweenReadsOfTwoAddresses) {
  // P0's reads of addresses 0 and 1 sit between sync ops. The closure
  // takes the enabled reads and the sync ops in one pass and stops at the
  // first read whose value is not in memory yet, exactly as the legacy
  // search's one-at-a-time closure does.
  const auto exec = ExecutionBuilder()
                        .process(R(0, 0), Acq(9), R(1, 0), Rel(9), R(0, 1),
                                 Acq(9), R(1, 1), R(0, 1), Rel(9))
                        .process(Acq(8), W(0, 1), Rel(8), R(0, 1), W(1, 1))
                        .build();
  const auto now = check_sc_exact(exec);
  const auto legacy = check_sc_exact_legacy(exec);
  ASSERT_EQ(now.verdict, Verdict::kCoherent);
  EXPECT_EQ(now.witness, legacy.witness);
  EXPECT_EQ(now.witness,
            (Schedule{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {0, 4},
                      {0, 5}, {1, 2}, {1, 3}, {1, 4}, {0, 6}, {0, 7}, {0, 8}}));
  EXPECT_EQ(now.stats.states_visited, legacy.stats.states_visited);
  EXPECT_EQ(now.stats.transitions, legacy.stats.transitions);
  EXPECT_EQ(now.stats.prunes, legacy.stats.prunes);
  EXPECT_EQ(now.stats.max_frontier, legacy.stats.max_frontier);
}

TEST(ScExact, MemoHitsCountAsPrunes) {
  // Two processes writing independent addresses reach the same state in
  // either order, so the memo table must cut (and count) revisits.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2), R(1, 3))
                        .process(W(1, 3), W(1, 4), R(0, 1))
                        .build();
  const auto result = check_sc_exact(exec);
  ASSERT_EQ(result.verdict, Verdict::kIncoherent);
  EXPECT_GT(result.stats.prunes, 0u);
  EXPECT_EQ(result.stats.prunes, check_sc_exact_legacy(exec).stats.prunes);
}

TEST(ScExactDifferential, MatchesLegacyUnderAblatedOptions) {
  Xoshiro256ss rng(83);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 4;
  params.num_addresses = 2;
  for (int trial = 0; trial < 8; ++trial) {
    const auto trace = workload::generate_sc(params, rng);
    const auto now = check_sc_exact(trace.execution);
    const auto legacy = check_sc_exact_legacy(trace.execution);
    ASSERT_EQ(now.verdict, legacy.verdict);
    EXPECT_EQ(now.witness, legacy.witness);
    EXPECT_EQ(now.stats.states_visited, legacy.stats.states_visited);
    EXPECT_EQ(now.stats.transitions, legacy.stats.transitions);
    EXPECT_EQ(now.stats.max_frontier, legacy.stats.max_frontier);
    EXPECT_EQ(now.stats.prunes, legacy.stats.prunes);
  }
}

}  // namespace
}  // namespace vermem::vsc
