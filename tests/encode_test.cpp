// Tests for the VMC -> CNF encoding and the SAT-based checker. The key
// property: check_via_sat agrees with the exact search on every instance
// we can throw at it, and its witnesses always certify.

#include <gtest/gtest.h>

#include <thread>

#include "encode/vmc_to_cnf.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "sat/solver.hpp"
#include "support/cancellation.hpp"
#include "support/stopwatch.hpp"
#include "trace/schedule.hpp"
#include "vmc/exact.hpp"
#include "workload/random.hpp"

namespace vermem::encode {
namespace {

using vmc::Verdict;
using vmc::VmcInstance;
using workload::Fault;

VmcInstance make(const Execution& exec) { return VmcInstance{exec, 0}; }

TEST(Encode, EmptyInstance) {
  const auto enc = encode_vmc(make(Execution{}));
  EXPECT_FALSE(enc.trivially_incoherent);
  EXPECT_EQ(enc.num_writes(), 0u);
  EXPECT_EQ(check_via_sat(make(Execution{})).verdict, Verdict::kCoherent);
}

TEST(Encode, UnwrittenReadIsTriviallyIncoherent) {
  const auto exec = ExecutionBuilder().process(R(0, 9)).build();
  const auto enc = encode_vmc(make(exec));
  EXPECT_TRUE(enc.trivially_incoherent);
  EXPECT_EQ(check_via_sat(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Encode, FinalValueNeverWritten) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1)).final_value(0, 7).build();
  EXPECT_EQ(check_via_sat(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Encode, FinalValueWithNoWrites) {
  const auto ok = ExecutionBuilder().process(R(0, 0)).final_value(0, 0).build();
  EXPECT_EQ(check_via_sat(make(ok)).verdict, Verdict::kCoherent);
  const auto bad = ExecutionBuilder().process(R(0, 0)).final_value(0, 1).build();
  EXPECT_EQ(check_via_sat(make(bad)).verdict, Verdict::kIncoherent);
}

TEST(Encode, VariableAndClauseCountsAreModest) {
  Xoshiro256ss rng(3);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 8;
  const auto trace = workload::generate_coherent(params, rng);
  const auto enc = encode_vmc(make(trace.execution));
  const std::size_t w = enc.num_writes();
  EXPECT_EQ(enc.order_vars.size(), w * (w - 1) / 2);
  // O(W^3 + R*W^2) clause bound with a generous constant.
  EXPECT_LE(enc.cnf.num_clauses(), w * w * w + 32 * w * w + 64);
}

TEST(Encode, DecodeRecoversAConsistentOrder) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2))
                        .build();
  const auto enc = encode_vmc(make(exec));
  const auto solved = sat::solve(enc.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto order = enc.decode_write_order(solved.model);
  ASSERT_EQ(order.size(), 2u);
  // R(0,2) forces W(0,1) before W(0,2).
  EXPECT_EQ(order[0], (OpRef{0, 0}));
  EXPECT_EQ(order[1], (OpRef{1, 0}));
}

TEST(Encode, AgreesWithExactOnRandomTraces) {
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 2 + rng.below(6);
    params.num_values = 2 + rng.below(4);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto via_sat = check_via_sat(instance);
      const auto exact = vmc::check_exact(instance);
      ASSERT_NE(via_sat.verdict, Verdict::kUnknown) << via_sat.reason();
      EXPECT_EQ(via_sat.verdict, exact.verdict)
          << "trial " << trial << ": " << via_sat.reason();
      if (via_sat.verdict == Verdict::kCoherent) {
        const auto valid = check_coherent_schedule(exec, 0, via_sat.witness);
        EXPECT_TRUE(valid.ok) << valid.violation;
      }
    }
  }
}

TEST(Encode, AgreesWithExactOnReductionInstances) {
  // The adversarial family: SAT -> VMC -> CNF -> SAT round trip.
  Xoshiro256ss rng(13);
  for (int trial = 0; trial < 15; ++trial) {
    const auto cnf = sat::random_ksat(static_cast<sat::Var>(3 + rng.below(2)),
                                      1 + rng.below(8), 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions::sat_to_vmc(cnf);
    const auto via_sat = check_via_sat(red.instance);
    ASSERT_NE(via_sat.verdict, Verdict::kUnknown) << via_sat.reason();
    EXPECT_EQ(via_sat.verdict == Verdict::kCoherent, satisfiable);
  }
}

TEST(Encode, SolverBudgetPropagates) {
  Xoshiro256ss rng(17);
  workload::SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = 10;
  params.num_values = 2;
  const auto trace = workload::generate_coherent(params, rng);
  sat::SolverOptions options;
  options.max_conflicts = 1;
  const auto result = check_via_sat(make(trace.execution), options);
  // Either it solves within one conflict or reports unknown — never wrong.
  if (result.verdict == Verdict::kCoherent) {
    const auto valid = check_coherent_schedule(trace.execution, 0, result.witness);
    EXPECT_TRUE(valid.ok);
  }
}

// ---- Interruption: a fired token or deadline never yields a verdict --------

/// A deadline that has already expired when the callee first polls it.
Deadline expired_deadline() { return Deadline{std::chrono::nanoseconds(1)}; }

TEST(EncodeInterrupt, CancelledTokenInterruptsEncoding) {
  Xoshiro256ss rng(21);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 8;
  params.num_values = 2;
  const auto trace = workload::generate_coherent(params, rng);
  CancellationToken token;
  token.cancel();
  const auto enc = encode_vmc(make(trace.execution), OrderHints{}, &token);
  EXPECT_TRUE(enc.interrupted);
  EXPECT_FALSE(enc.trivially_incoherent);

  const auto timed_out = encode_vmc(make(trace.execution), OrderHints{},
                                    nullptr, expired_deadline());
  EXPECT_TRUE(timed_out.interrupted);

  CancellationToken idle;
  EXPECT_FALSE(encode_vmc(make(trace.execution), OrderHints{}, &idle).interrupted);
}

TEST(EncodeInterrupt, CheckViaSatNeverDecidesOnceInterrupted) {
  Xoshiro256ss rng(22);
  std::vector<Execution> cases;
  cases.push_back(Execution{});
  // Unwritten read: decided during encoding when nothing interrupts it.
  cases.push_back(ExecutionBuilder().process(R(0, 9)).build());
  for (int trial = 0; trial < 6; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 3 + rng.below(6);
    params.num_values = 1 + rng.below(3);
    const auto trace = workload::generate_coherent(params, rng);
    cases.push_back(trace.execution);
    for (const Fault f : {Fault::kStaleRead, Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
  }

  CancellationToken token;
  token.cancel();
  for (const Execution& exec : cases) {
    sat::SolverOptions cancelled;
    cancelled.cancel = &token;
    const auto stopped = check_via_sat(make(exec), cancelled);
    ASSERT_EQ(stopped.verdict, Verdict::kUnknown);
    ASSERT_NE(stopped.unknown_reason(), nullptr);
    EXPECT_EQ(stopped.unknown_reason()->reason,
              certify::UnknownReason::kCancelled);

    sat::SolverOptions late;
    late.deadline = expired_deadline();
    const auto expired = check_via_sat(make(exec), late);
    ASSERT_EQ(expired.verdict, Verdict::kUnknown);
    ASSERT_NE(expired.unknown_reason(), nullptr);
    EXPECT_EQ(expired.unknown_reason()->reason,
              certify::UnknownReason::kDeadline);
  }
}

TEST(EncodeInterrupt, CancelFromAnotherThreadStopsTheCdclRoute) {
  // ~60 writes over two values: encoding alone is O(W^3) clauses, long
  // enough that the cancel lands while check_via_sat is still working.
  Xoshiro256ss rng(24);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 30;
  params.num_values = 2;
  params.write_fraction = 0.5;
  const auto trace = workload::generate_coherent(params, rng);
  CancellationToken token;
  sat::SolverOptions options;
  options.cancel = &token;
  std::thread canceller([&] { token.cancel(); });
  const auto result = check_via_sat(make(trace.execution), options);
  canceller.join();
  // Should the thread be scheduled only after the whole check, the
  // verdict must still be the right one.
  if (result.verdict == Verdict::kUnknown) {
    ASSERT_NE(result.unknown_reason(), nullptr);
    EXPECT_EQ(result.unknown_reason()->reason,
              certify::UnknownReason::kCancelled);
  } else {
    EXPECT_EQ(result.verdict, Verdict::kCoherent);
  }
}

TEST(EncodeInterrupt, SolveWithCancelledTokenMakesNoDecisions) {
  Xoshiro256ss rng(23);
  const sat::Cnf cnf = sat::random_ksat(40, 170, 3, rng);
  ASSERT_GT(cnf.clauses.size(), 0u);
  CancellationToken token;
  token.cancel();
  sat::SolverOptions options;
  options.cancel = &token;
  const sat::SolveResult result = sat::solve(cnf, options);
  EXPECT_EQ(result.status, sat::Status::kUnknown);
  EXPECT_EQ(result.stats.decisions, 0u);

  sat::SolverOptions late;
  late.deadline = expired_deadline();
  EXPECT_EQ(sat::solve(cnf, late).status, sat::Status::kUnknown);
}

}  // namespace
}  // namespace vermem::encode
