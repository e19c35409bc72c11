// Tests for the VMC checkers: the exact frontier search, the polynomial
// special cases of Figure 5.3, and the write-order algorithm of Section
// 5.2. Every kCoherent verdict's witness is re-validated with the
// certificate checker. The whole-trace dispatcher that picks among them
// (analysis::verify_coherence_routed) is tested in analysis_test.cpp.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "trace/schedule.hpp"
#include "vmc/exact.hpp"
#include "vmc/exact_legacy.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"
#include "workload/random.hpp"

namespace vermem::vmc {
namespace {

using workload::Fault;
using workload::GeneratedTrace;
using workload::SingleAddressParams;

VmcInstance make(const Execution& exec, Addr addr = 0) {
  return VmcInstance{exec, addr};
}

void expect_valid_witness(const VmcInstance& instance, const CheckResult& result) {
  ASSERT_EQ(result.verdict, Verdict::kCoherent) << result.reason();
  const auto check =
      check_coherent_schedule(instance.execution, instance.addr, result.witness);
  EXPECT_TRUE(check.ok) << check.violation;
}

// ---- Paper Figure 4.2: the VMC instance for SAT instance Q = u --------

Execution figure_4_2() {
  // Values: d_u = 1, d_ubar = 2, d_c = 3.
  return ExecutionBuilder()
      .process(W(0, 1))                    // h1: W(d_u)
      .process(W(0, 2))                    // h2: W(d_ubar)
      .process(R(0, 1), R(0, 2), W(0, 3))  // h_u: R(d_u) R(d_ubar) W(d_c)
      .process(R(0, 2), R(0, 1))           // h_ubar: R(d_ubar) R(d_u)
      .process(R(0, 3), W(0, 1), W(0, 2))  // h3: R(d_c) W(d_u) W(d_ubar)
      .build();
}

TEST(Figure42, InstanceIsCoherent) {
  // Q = u is satisfiable, so a coherent schedule must exist.
  const auto instance = make(figure_4_2());
  const auto result = check_exact(instance);
  expect_valid_witness(instance, result);
}

TEST(Figure42, WduMustPrecedeWdubar) {
  // The paper: a coherent schedule exists iff W(d_u) from h1 precedes
  // W(d_ubar) from h2 — i.e. iff u is assigned true. Verify by checking
  // the witness ordering.
  const auto exec = figure_4_2();
  const auto result = check_exact(make(exec));
  ASSERT_EQ(result.verdict, Verdict::kCoherent);
  std::size_t pos_w1 = 0, pos_w2 = 0;
  for (std::size_t s = 0; s < result.witness.size(); ++s) {
    if (result.witness[s] == OpRef{0, 0}) pos_w1 = s;
    if (result.witness[s] == OpRef{1, 0}) pos_w2 = s;
  }
  EXPECT_LT(pos_w1, pos_w2);
}

TEST(Figure42, UnsatisfiableVariantIsIncoherent) {
  // Q = u AND NOT u: add a second "clause" history requiring the other
  // order as well. Encoded by also giving h_ubar a clause write that h3
  // must read: both orders of (W(d_u), W(d_ubar)) would be required.
  const auto exec =
      ExecutionBuilder()
          .process(W(0, 1))                    // h1
          .process(W(0, 2))                    // h2
          .process(R(0, 1), R(0, 2), W(0, 3))  // h_u writes d_c1 (u true)
          .process(R(0, 2), R(0, 1), W(0, 4))  // h_ubar writes d_c2 (u false)
          .process(R(0, 3), R(0, 4), W(0, 1), W(0, 2))  // h3 reads both
          .build();
  const auto result = check_exact(make(exec));
  EXPECT_EQ(result.verdict, Verdict::kIncoherent);
}

// ---- Exact checker basics ---------------------------------------------

TEST(Exact, EmptyInstanceIsCoherent) {
  const auto result = check_exact(make(Execution{}));
  EXPECT_EQ(result.verdict, Verdict::kCoherent);
  EXPECT_TRUE(result.witness.empty());
}

TEST(Exact, SingleReadOfInitialValue) {
  const auto exec = ExecutionBuilder().process(R(0, 7)).initial(0, 7).build();
  expect_valid_witness(make(exec), check_exact(make(exec)));
}

TEST(Exact, SingleReadOfWrongInitialValue) {
  const auto exec = ExecutionBuilder().process(R(0, 7)).initial(0, 3).build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, ReadOfNeverWrittenValue) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 9)).build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, CrossReaderOrderConflictIsIncoherent) {
  // Classic coherence violation: two readers observe the two writes in
  // opposite orders.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(Exact, SameOrderReadersAreCoherent) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .build();
  expect_valid_witness(make(exec), check_exact(make(exec)));
}

TEST(Exact, FinalValueForcesWriteOrder) {
  const auto coherent = ExecutionBuilder()
                            .process(W(0, 1))
                            .process(W(0, 2))
                            .final_value(0, 1)
                            .build();
  expect_valid_witness(make(coherent), check_exact(make(coherent)));

  // Reading 2 after 1 forces W(1) before W(2), but final value says 1 last.
  const auto conflicted = ExecutionBuilder()
                              .process(W(0, 1), R(0, 2))
                              .process(W(0, 2))
                              .final_value(0, 1)
                              .build();
  EXPECT_EQ(check_exact(make(conflicted)).verdict, Verdict::kIncoherent);
}

TEST(Exact, RmwChainNeedsExactHandoff) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .process(RW(0, 2, 3))
                        .build();
  expect_valid_witness(make(exec), check_exact(make(exec)));

  const auto broken = ExecutionBuilder()
                          .process(RW(0, 0, 1))
                          .process(RW(0, 0, 2))  // also claims to read initial
                          .build();
  EXPECT_EQ(check_exact(make(broken)).verdict, Verdict::kIncoherent);
}

TEST(Exact, StateBudgetYieldsUnknown) {
  // A moderately contended instance with a tiny budget must give up.
  Xoshiro256ss rng(5);
  SingleAddressParams params;
  params.num_histories = 6;
  params.ops_per_history = 8;
  const auto trace = workload::generate_coherent(params, rng);
  ExactOptions options;
  options.max_states = 1;
  const auto result = check_exact(make(trace.execution), options);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
}

TEST(Exact, RejectsMultiAddressInstance) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(1, 1)).build();
  EXPECT_EQ(check_exact(make(exec, 0)).verdict, Verdict::kUnknown);
}

TEST(Exact, AblationModesAgree) {
  Xoshiro256ss rng(17);
  SingleAddressParams params;
  params.num_histories = 3;
  params.ops_per_history = 5;
  params.num_values = 3;
  for (int trial = 0; trial < 25; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    // Also test perturbed (possibly incoherent) variants.
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto result = check_exact(instance);
      ASSERT_NE(result.verdict, Verdict::kUnknown);
      if (result.verdict == Verdict::kCoherent)
        expect_valid_witness(instance, result);
    }
  }
}

// ---- One-op-per-process (Figure 5.3 row 1) -----------------------------

TEST(OneOp, CoherentMix) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(R(0, 1))
                        .process(R(0, 0))  // initial
                        .process(W(0, 2))
                        .final_value(0, 2)
                        .build();
  const auto instance = make(exec);
  const auto result = check_one_op_per_process(instance);
  expect_valid_witness(instance, result);
}

TEST(OneOp, UnreadableValue) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).process(R(0, 9)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(OneOp, FinalValueNeverWritten) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1)).final_value(0, 9).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(OneOp, NotApplicableWhenHistoriesAreLong) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kUnknown);
}

TEST(OneOp, NotApplicableWithRmw) {
  const auto exec = ExecutionBuilder().process(RW(0, 0, 1)).build();
  EXPECT_EQ(check_one_op_per_process(make(exec)).verdict, Verdict::kUnknown);
}

TEST(OneOp, MatchesExactOnRandomInstances) {
  Xoshiro256ss rng(23);
  SingleAddressParams params;
  params.num_histories = 10;
  params.ops_per_history = 1;
  params.num_values = 3;
  params.rmw_fraction = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    for (const Fault f :
         {Fault::kStaleRead, Fault::kLostWrite, Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto fast = check_one_op_per_process(instance);
      const auto slow = check_exact(instance);
      ASSERT_NE(fast.verdict, Verdict::kUnknown);
      EXPECT_EQ(fast.verdict, slow.verdict);
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(instance, fast);
    }
  }
}

// ---- RMW one-op (Eulerian trail) ---------------------------------------

TEST(RmwOneOp, SimpleChain) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .final_value(0, 2)
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_one_op_per_process(instance));
}

TEST(RmwOneOp, BranchAndReturn) {
  // 0 -> 1 -> 0 -> 2: a vertex revisited; still a single trail.
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 0))
                        .process(RW(0, 0, 2))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_one_op_per_process(instance));
}

TEST(RmwOneOp, DisconnectedGraphIsIncoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 5, 6))  // unreachable island
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, UnbalancedDegreesAreIncoherent) {
  // Two RMWs read 0 but only one writes it back... (0->1, 0->2).
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 0, 2))
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, FinalValueConstrainsTrailEnd) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_EQ(check_rmw_one_op_per_process(make(exec)).verdict,
            Verdict::kIncoherent);
}

TEST(RmwOneOp, MatchesExactOnRandomInstances) {
  Xoshiro256ss rng(31);
  SingleAddressParams params;
  params.num_histories = 8;
  params.ops_per_history = 1;
  params.num_values = 3;
  params.write_fraction = 1.0;
  params.rmw_fraction = 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulted = workload::inject_fault(trace, Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulted));
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto fast = check_rmw_one_op_per_process(instance);
      const auto slow = check_exact(instance);
      ASSERT_NE(fast.verdict, Verdict::kUnknown);
      EXPECT_EQ(fast.verdict, slow.verdict);
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(instance, fast);
    }
  }
}

// ---- Read-map (unique writes) ------------------------------------------

TEST(ReadMap, CoherentClusters) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2))
                        .process(R(0, 0), R(0, 1))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_read_map(instance));
}

TEST(ReadMap, CycleIsIncoherent) {
  // P0 sees 1 before 2; P1 sees 2 before 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2), R(0, 1))
                        .build();
  // Order: W1 .. R2 requires W2 after W1's cluster... builds a 2-cycle.
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
  // Cross-check with the exact solver.
  EXPECT_EQ(check_exact(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, ReadBeforeOwnWrite) {
  const auto exec = ExecutionBuilder().process(R(0, 1), W(0, 1)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, InitialReadForcedLate) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 0)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, FinalValueMustBeLast) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(ReadMap, NotApplicableOnDoubleWrite) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).process(W(0, 1)).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kUnknown);
}

TEST(ReadMap, NotApplicableWhenWritingInitialValue) {
  const auto exec = ExecutionBuilder().process(W(0, 0)).initial(0, 0).build();
  EXPECT_EQ(check_read_map(make(exec)).verdict, Verdict::kUnknown);
}

TEST(ReadMap, NotApplicableReasonFollowsScanOrder) {
  // The first offending operation in (history, position) order names the
  // reason: a duplicate write before the first RMW or write of the
  // initial value is reported as the duplicate, and the other way round.
  const auto reason = [](const Execution& exec) {
    const CheckResult result = check_read_map(make(exec));
    EXPECT_EQ(result.verdict, Verdict::kUnknown);
    return result.unknown_reason() ? result.unknown_reason()->detail : "";
  };
  const std::string duplicate = "value written more than once";
  const std::string rmw = "instance contains read-modify-writes";
  const std::string initial =
      "a write stores the initial value (read-map ambiguous)";
  EXPECT_EQ(reason(ExecutionBuilder()
                       .process(W(0, 1), W(0, 1))
                       .process(RW(0, 1, 2))
                       .build()),
            duplicate);
  EXPECT_EQ(reason(ExecutionBuilder()
                       .process(W(0, 1))
                       .process(W(0, 1), W(0, 0))
                       .build()),
            duplicate);
  EXPECT_EQ(reason(ExecutionBuilder()
                       .process(W(0, 1), RW(0, 1, 2))
                       .process(W(0, 1))
                       .build()),
            rmw);
  EXPECT_EQ(reason(ExecutionBuilder()
                       .process(W(0, 1), W(0, 0))
                       .process(W(0, 1))
                       .build()),
            initial);
}

TEST(ReadMap, MatchesExactOnUniqueWriteInstances) {
  Xoshiro256ss rng(41);
  // Generate with many values so unique-write traces appear frequently;
  // skip trials where a value repeats.
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 4;
  params.num_values = 40;
  params.rmw_fraction = 0.0;
  int tested = 0;
  for (int trial = 0; trial < 120 && tested < 30; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    const auto instance = make(trace.execution);
    if (instance.max_writes_per_value() > 1) continue;
    ++tested;
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto inst = make(exec);
      const auto fast = check_read_map(inst);
      if (fast.verdict == Verdict::kUnknown) continue;  // mutation broke precondition
      const auto slow = check_exact(inst);
      EXPECT_EQ(fast.verdict, slow.verdict) << fast.reason();
      if (fast.verdict == Verdict::kCoherent) expect_valid_witness(inst, fast);
    }
  }
  EXPECT_GE(tested, 10);
}

// ---- RMW read-map (forced chain) ----------------------------------------

TEST(RmwReadMap, ForcedChainCoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1), RW(0, 2, 3))
                        .process(RW(0, 1, 2))
                        .build();
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_read_map(instance));
}

TEST(RmwReadMap, ChainAgainstProgramOrder) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 2, 3), RW(0, 0, 1))  // must run 2nd, 1st
                        .process(RW(0, 1, 2))
                        .build();
  EXPECT_EQ(check_rmw_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

TEST(RmwReadMap, DuplicateReaderIncoherent) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2), RW(0, 1, 3))
                        .build();
  // Value 1 is written once but read by two RMWs: only one can follow the
  // write, so the instance is incoherent.
  EXPECT_EQ(check_rmw_read_map(make(exec)).verdict, Verdict::kIncoherent);
}

// ---- Write-order algorithm (Section 5.2) --------------------------------

TEST(WriteOrder, AcceptsGeneratingOrder) {
  Xoshiro256ss rng(51);
  SingleAddressParams params;
  const auto trace = workload::generate_coherent(params, rng);
  const auto instance = make(trace.execution);
  const auto result = check_with_write_order(instance, trace.write_order);
  expect_valid_witness(instance, result);
}

TEST(WriteOrder, RejectsOrderViolatingProgramOrder) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const WriteOrder reversed{{0, 1}, {0, 0}};
  EXPECT_EQ(check_with_write_order(make(exec), reversed).verdict,
            Verdict::kIncoherent);
}

TEST(WriteOrder, RejectsIncompleteOrder) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  EXPECT_EQ(check_with_write_order(make(exec), {{0, 0}}).verdict,
            Verdict::kUnknown);
}

TEST(WriteOrder, ReadWindowIsBoundedByOwnNextWrite) {
  // P0: R(2) W(1). The read must precede W(1); with order [W(1), W(2)] the
  // value 2 is only available after the read's window closes.
  const auto exec =
      ExecutionBuilder().process(R(0, 2), W(0, 1)).process(W(0, 2)).build();
  const WriteOrder order{{0, 1}, {1, 0}};  // W(1) then W(2)
  EXPECT_EQ(check_with_write_order(make(exec), order).verdict,
            Verdict::kIncoherent);
  const WriteOrder good{{1, 0}, {0, 1}};  // W(2) then W(1)
  const auto result = check_with_write_order(make(exec), good);
  expect_valid_witness(make(exec), result);
}

TEST(WriteOrder, RmwReadComponentPinned) {
  const auto exec =
      ExecutionBuilder().process(RW(0, 0, 1)).process(RW(0, 1, 2)).build();
  const WriteOrder good{{0, 0}, {1, 0}};
  expect_valid_witness(make(exec), check_with_write_order(make(exec), good));
  const WriteOrder bad{{1, 0}, {0, 0}};
  EXPECT_EQ(check_with_write_order(make(exec), bad).verdict,
            Verdict::kIncoherent);
}

TEST(WriteOrder, FinalValueChecked) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .final_value(0, 2)
                        .build();
  EXPECT_EQ(
      check_with_write_order(make(exec), {{1, 0}, {0, 0}}).verdict,
      Verdict::kIncoherent);
  expect_valid_witness(make(exec),
                       check_with_write_order(make(exec), {{0, 0}, {1, 0}}));
}

TEST(WriteOrder, ExtractRoundTripsThroughWitness) {
  Xoshiro256ss rng(61);
  SingleAddressParams params;
  params.num_histories = 5;
  for (int trial = 0; trial < 20; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    const auto instance = make(trace.execution);
    const auto exact = check_exact(instance);
    ASSERT_EQ(exact.verdict, Verdict::kCoherent);
    // The write-order of the exact checker's own witness must verify.
    const auto order = extract_write_order(instance, exact.witness);
    const auto replay = check_with_write_order(instance, order);
    expect_valid_witness(instance, replay);
  }
}

TEST(WriteOrder, SoundWithRespectToExactOnFaultyTraces) {
  // If the write-order checker accepts, the instance is coherent; if the
  // exact checker says incoherent, the write-order checker must reject.
  Xoshiro256ss rng(71);
  SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 6;
  for (int trial = 0; trial < 40; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      auto faulted = workload::inject_fault(trace, f, rng);
      if (!faulted) continue;
      const auto instance = make(*faulted);
      const auto with_order = check_with_write_order(instance, trace.write_order);
      const auto exact = check_exact(instance);
      if (with_order.verdict == Verdict::kCoherent) {
        EXPECT_EQ(exact.verdict, Verdict::kCoherent) << to_string(f);
        expect_valid_witness(instance, with_order);
      }
      if (exact.verdict == Verdict::kIncoherent) {
        EXPECT_NE(with_order.verdict, Verdict::kCoherent) << to_string(f);
      }
    }
  }
}

TEST(RmwWriteOrder, TotalOrderScan) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1), RW(0, 2, 0))
                        .process(RW(0, 1, 2))
                        .build();
  const WriteOrder order{{0, 0}, {1, 0}, {0, 1}};
  const auto instance = make(exec);
  expect_valid_witness(instance, check_rmw_with_write_order(instance, order));
  const WriteOrder bad{{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(check_rmw_with_write_order(instance, bad).verdict,
            Verdict::kIncoherent);
}

TEST(RmwWriteOrder, NotApplicableWithPureOps) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).build();
  EXPECT_EQ(check_rmw_with_write_order(make(exec), {{0, 0}}).verdict,
            Verdict::kUnknown);
}

// ---- Differential: arena/packed-key search vs frozen legacy ----------

// The hot-path rework (arena-backed frontier, packed keys, SoA stack)
// must be invisible at the semantic level: same verdicts, same witness,
// and the same SearchStats counters — the searches explore identical
// state sequences, so any divergence is a dedup or ordering bug, not an
// acceptable "different but valid" answer.
void expect_stats_match_legacy(const SearchStats& now,
                               const SearchStats& legacy) {
  EXPECT_EQ(now.states_visited, legacy.states_visited);
  EXPECT_EQ(now.transitions, legacy.transitions);
  EXPECT_EQ(now.max_frontier, legacy.max_frontier);
  EXPECT_EQ(now.prunes, legacy.prunes);
}

TEST(ExactDifferential, MatchesLegacyOnRandomizedAndFaultedTraces) {
  Xoshiro256ss rng(97);
  for (int trial = 0; trial < 40; ++trial) {
    SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 2 + rng.below(7);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto instance = make(exec);
      const auto now = check_exact(instance);
      const auto legacy = check_exact_legacy(instance);
      ASSERT_EQ(now.verdict, legacy.verdict) << "trial " << trial;
      EXPECT_EQ(now.witness, legacy.witness);
      expect_stats_match_legacy(now.stats, legacy.stats);
      if (now.verdict == Verdict::kCoherent)
        expect_valid_witness(instance, now);
    }
  }
}

TEST(ExactDifferential, MatchesLegacyUnderAblatedOptions) {
  // A second seed and shape for the default-configuration differential.
  Xoshiro256ss rng(31);
  SingleAddressParams params;
  params.num_histories = 3;
  params.ops_per_history = 5;
  params.num_values = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulted = workload::inject_fault(trace, Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulted));
    for (const auto& exec : cases) {
      const auto now = check_exact(make(exec));
      const auto legacy = check_exact_legacy(make(exec));
      ASSERT_EQ(now.verdict, legacy.verdict);
      EXPECT_EQ(now.witness, legacy.witness);
      expect_stats_match_legacy(now.stats, legacy.stats);
    }
  }
}

TEST(ExactDifferential, ArenaStatsArePopulated) {
  // The reworked search must account its storage: any instance that
  // reaches the frontier search reserves arena space and serves at least
  // one allocation from it; the frozen legacy reports zeros by contract.
  const auto instance = make(figure_4_2());
  const auto now = check_exact(instance);
  EXPECT_GT(now.stats.arena_reserved, 0u);
  EXPECT_GT(now.stats.arena_high_water, 0u);
  EXPECT_GT(now.stats.arena_allocations, 0u);
  EXPECT_LE(now.stats.arena_high_water, now.stats.arena_reserved);
  const auto legacy = check_exact_legacy(instance);
  EXPECT_EQ(legacy.stats.arena_reserved, 0u);
}

// ---- Closure edge cases ------------------------------------------------

// The search closes over pure reads of the current value in one pass over
// a per-op run table. Each case pins verdict, witness and counters to the
// frozen legacy search, which takes the same reads one at a time.
CheckResult expect_matches_legacy(const Execution& exec) {
  const auto instance = make(exec);
  const auto now = check_exact(instance);
  const auto legacy = check_exact_legacy(instance);
  EXPECT_EQ(now.verdict, legacy.verdict);
  EXPECT_EQ(now.witness, legacy.witness);
  EXPECT_EQ(now.reason(), legacy.reason());
  expect_stats_match_legacy(now.stats, legacy.stats);
  if (now.verdict == Verdict::kCoherent) expect_valid_witness(instance, now);
  return now;
}

TEST(ExactClosure, ReadRunStopsWhereTheValueChanges) {
  // P0's first two reads see the initial value and are closed over at the
  // start; the run ends at R(0,1), which waits for P1's write.
  const auto result = expect_matches_legacy(ExecutionBuilder()
                                                .process(R(0, 0), R(0, 0), R(0, 1))
                                                .process(W(0, 1))
                                                .build());
  EXPECT_EQ(result.witness,
            (Schedule{{0, 0}, {0, 1}, {1, 0}, {0, 2}}));
  EXPECT_EQ(result.stats.transitions, 1u);
}

TEST(ExactClosure, RmwReadingTheCurrentValueBranches) {
  // Were P0's RMW taken as free (it reads the current value), P1's read
  // of 0 could never run. It is a choice, so the closure takes P1's read
  // first and the RMW follows.
  const auto result = expect_matches_legacy(
      ExecutionBuilder().process(RW(0, 0, 1)).process(R(0, 0)).build());
  EXPECT_EQ(result.witness, (Schedule{{1, 0}, {0, 0}}));
  EXPECT_EQ(result.stats.transitions, 1u);
}

TEST(ExactClosure, EmptyHistoriesAreSkipped) {
  const auto result = expect_matches_legacy(ExecutionBuilder()
                                                .process()
                                                .process(W(0, 1), R(0, 1))
                                                .process()
                                                .build());
  EXPECT_EQ(result.witness, (Schedule{{1, 0}, {1, 1}}));
  (void)expect_matches_legacy(
      ExecutionBuilder().process().process().final_value(0, 0).build());
}

TEST(ExactClosure, FinalValueNothingWritesIsRejected) {
  // Only reads of the initial value: the closure consumes them all and
  // the start state itself is rejected with the unwritable final value.
  const auto reads_only = expect_matches_legacy(ExecutionBuilder()
                                                    .process(R(0, 0), R(0, 0))
                                                    .process(R(0, 0))
                                                    .final_value(0, 7)
                                                    .build());
  ASSERT_EQ(reads_only.verdict, Verdict::kIncoherent);
  EXPECT_EQ(reads_only.incoherence()->kind,
            certify::IncoherenceKind::kUnwritableFinal);
  EXPECT_EQ(reads_only.stats.transitions, 0u);
  // With writes, no value id matches the final value and the search
  // exhausts.
  const auto written = expect_matches_legacy(
      ExecutionBuilder().process(W(0, 1)).process(R(0, 1)).final_value(0, 7).build());
  EXPECT_EQ(written.verdict, Verdict::kIncoherent);
}

TEST(ExactClosure, ExtremeValuesGetDenseIds) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const auto coherent = expect_matches_legacy(ExecutionBuilder()
                                                  .process(R(0, kMin), W(0, kMax))
                                                  .process(R(0, kMax), W(0, kMin))
                                                  .process(R(0, kMin))
                                                  .initial(0, kMin)
                                                  .final_value(0, kMin)
                                                  .build());
  EXPECT_EQ(coherent.verdict, Verdict::kCoherent);
  // A read of a value next to an extreme one is never satisfiable.
  const auto unwritten = expect_matches_legacy(ExecutionBuilder()
                                                   .process(W(0, kMax))
                                                   .process(R(0, kMax - 1))
                                                   .initial(0, kMin)
                                                   .build());
  EXPECT_EQ(unwritten.verdict, Verdict::kIncoherent);
  const auto final_max = expect_matches_legacy(ExecutionBuilder()
                                                   .process(W(0, kMax), R(0, kMax))
                                                   .process(R(0, kMin))
                                                   .initial(0, kMin)
                                                   .final_value(0, kMax)
                                                   .build());
  EXPECT_EQ(final_max.verdict, Verdict::kCoherent);
}

}  // namespace
}  // namespace vermem::vmc
