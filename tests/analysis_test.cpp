// Tests for the static trace analyzer and the coherence dispatcher:
// fragment classifier, lint rules, write-order log validation, the
// whole-trace sweep (sequential and parallel), and — the load-bearing
// part — differential agreement between every routed decider and the
// unpruned exact frontier search on randomized and faulted traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/fragment.hpp"
#include "analysis/lint.hpp"
#include "analysis/poly/write_order.hpp"
#include "analysis/router.hpp"
#include "certify/check.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/bounded.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vmc/write_order.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using analysis::Decider;
using analysis::Fragment;
using analysis::RuleId;

// --- helpers --------------------------------------------------------------

analysis::FragmentProfile classify_addr(const Execution& exec, Addr addr,
                                        bool has_write_order = false) {
  const AddressIndex index(exec);
  for (std::size_t i = 0; i < index.num_addresses(); ++i)
    if (index.entry(i).addr == addr)
      return analysis::classify(index.view_at(i), has_write_order);
  ADD_FAILURE() << "address " << addr << " not in index";
  return {};
}

/// Routed vs exact on a single-address execution: verdicts must agree,
/// and any coherent witness must validate in original coordinates.
struct Differential {
  vmc::Verdict routed = vmc::Verdict::kUnknown;
  vmc::Verdict exact = vmc::Verdict::kUnknown;
  Fragment fragment = Fragment::kGeneral;
  Decider decider = Decider::kExact;
  bool fell_back = false;
};

Differential run_differential(const Execution& exec,
                              const vmc::WriteOrderMap* orders = nullptr) {
  const AddressIndex index(exec);
  EXPECT_EQ(index.num_addresses(), 1u);
  const analysis::RoutedReport routed =
      analysis::verify_coherence_routed(index, orders);

  const Addr addr = index.entry(0).addr;
  const auto projection = index.view_at(0).materialize();
  const vmc::CheckResult exact =
      vmc::check_exact(vmc::VmcInstance{projection, addr});

  const auto& result = routed.report.addresses[0].result;
  if (result.verdict == vmc::Verdict::kCoherent) {
    const auto check = check_coherent_schedule(exec, addr, result.witness);
    EXPECT_TRUE(check.ok) << "routed witness invalid: " << check.violation;
  }
  return {routed.report.verdict, exact.verdict, routed.fragments[0],
          routed.deciders[0], false};
}

/// Unpruned per-address reference: the frontier search without the
/// saturation oracle, cross-checked by the level-synchronous BFS.
vmc::Verdict reference_verdict(const AddressIndex& index, std::size_t i) {
  const auto projection = index.view_at(i).materialize();
  const vmc::VmcInstance instance{projection, index.entry(i).addr};
  const vmc::CheckResult exact = vmc::check_exact(instance);
  EXPECT_EQ(exact.verdict, vmc::check_bounded_k(instance).verdict)
      << "@a" << instance.addr;
  return exact.verdict;
}

/// Every definite per-address verdict re-validates independently.
void expect_certified(const Execution& exec,
                      const vmc::CoherenceReport& report,
                      const std::string& label) {
  for (const auto& [addr, result] : report.addresses) {
    if (result.verdict == vmc::Verdict::kUnknown) continue;
    const certify::CheckOutcome outcome = certify::check(
        exec, certify::from_result(certify::Scope::kAddress, addr, result));
    EXPECT_TRUE(outcome.ok) << label << " @a" << addr << ": "
                            << outcome.violation;
  }
}

Execution rmw_chain_exec(std::size_t n, std::size_t histories,
                         Value cycle) {
  Execution exec;
  for (std::size_t p = 0; p < histories; ++p)
    exec.add_history(ProcessHistory{});
  for (std::size_t t = 0; t < n; ++t)
    exec.append(t % histories, RW(0, static_cast<Value>(t % cycle),
                                  static_cast<Value>((t + 1) % cycle)));
  exec.set_final_value(0, static_cast<Value>(n % cycle));
  return exec;
}

bool has_rule(const std::vector<analysis::Diagnostic>& diagnostics,
              RuleId rule) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [rule](const analysis::Diagnostic& d) { return d.rule == rule; });
}

// --- classifier -----------------------------------------------------------

TEST(Classify, SyncOnlyExecutionHasNoAddresses) {
  const Execution exec =
      ExecutionBuilder().process_ops({Acq(0), Rel(0)}).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_TRUE(report.addresses.empty());
  EXPECT_EQ(report.warning_count, 0u);
  EXPECT_FALSE(report.has_warnings());
}

TEST(Classify, SingleWrite) {
  const Execution exec = ExecutionBuilder().process_ops({W(0, 1)}).build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kOneOp);
  EXPECT_EQ(profile.num_ops, 1u);
  EXPECT_EQ(profile.num_writes, 1u);
  EXPECT_EQ(profile.num_reads, 0u);
  EXPECT_TRUE(profile.write_once);
  EXPECT_FALSE(profile.rmw_only);
}

TEST(Classify, OneOpRmw) {
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1)})
                             .process_ops({RW(0, 1, 2)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kOneOpRmw);
  EXPECT_TRUE(profile.rmw_only);
}

TEST(Classify, WriteOnce) {
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 2)})
                             .process_ops({W(0, 2), R(0, 1)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kWriteOnce);
  EXPECT_EQ(profile.max_writes_per_value, 1u);
}

TEST(Classify, WritingInitialValueDisqualifiesWriteOnce) {
  // W(0,0) re-writes the initial value: the read map is ambiguous, so
  // the instance cannot take the write-once fast path.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 0), R(0, 0)})
                             .process_ops({W(0, 1)})
                             .build();
  const auto profile = classify_addr(exec, 0);
  EXPECT_TRUE(profile.writes_initial_value);
  EXPECT_FALSE(profile.write_once);
  EXPECT_EQ(profile.fragment, Fragment::kBoundedProcesses);
}

TEST(Classify, RmwOnlyWithDuplicatesIsRmwChain) {
  const Execution exec = rmw_chain_exec(16, 4, 8);
  const auto profile = classify_addr(exec, 0);
  EXPECT_EQ(profile.fragment, Fragment::kRmwChain);
  EXPECT_TRUE(profile.rmw_only);
  EXPECT_GT(profile.max_writes_per_value, 1u);
}

TEST(Classify, WriteOrderLogPinsFragment) {
  // Shape alone says write-once, but a supplied log pins the question to
  // "coherent under this serialization" — never downgraded.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 2)})
                             .process_ops({W(0, 2)})
                             .build();
  EXPECT_EQ(classify_addr(exec, 0, false).fragment, Fragment::kWriteOnce);
  EXPECT_EQ(classify_addr(exec, 0, true).fragment, Fragment::kWriteOrder);
}

TEST(Classify, BoundedVsGeneral) {
  std::vector<std::vector<Operation>> histories(4);
  for (std::size_t p = 0; p < 4; ++p)
    histories[p] = {W(0, 1), R(0, 1), W(0, 2)};
  ExecutionBuilder bounded;
  for (std::size_t p = 0; p < analysis::kBoundedProcessLimit; ++p)
    bounded.process_ops(histories[p]);
  EXPECT_EQ(classify_addr(bounded.build(), 0).fragment,
            Fragment::kBoundedProcesses);

  ExecutionBuilder general;
  for (std::size_t p = 0; p < 4; ++p) general.process_ops(histories[p]);
  EXPECT_EQ(classify_addr(general.build(), 0).fragment, Fragment::kGeneral);
}

// --- lint rules -----------------------------------------------------------

TEST(Lint, DuplicateValueWriteFiresAtThirdWrite) {
  const Execution exec =
      ExecutionBuilder()
          .process_ops({W(0, 7), R(0, 7), W(0, 7), W(0, 7)})
          .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  ASSERT_TRUE(has_rule(diagnostics, RuleId::kDuplicateValueWrite));
  for (const auto& d : diagnostics) {
    if (d.rule != RuleId::kDuplicateValueWrite) continue;
    EXPECT_EQ(d.severity, analysis::Severity::kWarning);
    ASSERT_TRUE(d.location.has_value());
    EXPECT_EQ(*d.location, (OpRef{0, 3}));  // the third write
  }
}

TEST(Lint, UnreadWriteSkipsReadAndFinalValues) {
  // Value 5 is unread and not final -> W002. Value 9 is unread but is
  // the recorded final value -> clean. Value 1 is read -> clean.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), R(0, 1), W(0, 5), W(0, 9)})
                             .final_value(0, 9)
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  std::size_t unread = 0;
  for (const auto& d : diagnostics) {
    if (d.rule != RuleId::kUnreadWrite) continue;
    ++unread;
    ASSERT_TRUE(d.location.has_value());
    EXPECT_EQ(*d.location, (OpRef{0, 2}));  // W(0,5)
  }
  EXPECT_EQ(unread, 1u);
}

TEST(Lint, RmwCandidateOnAdjacentReadWritePair) {
  const Execution with_pair =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  EXPECT_TRUE(has_rule(
      analysis::analyze(with_pair).addresses[0].diagnostics,
      RuleId::kRmwAtomicityCandidate));

  // A real RMW is already atomic: no candidate.
  const Execution atomic =
      ExecutionBuilder().process_ops({RW(0, 0, 1)}).build();
  EXPECT_FALSE(has_rule(analysis::analyze(atomic).addresses[0].diagnostics,
                        RuleId::kRmwAtomicityCandidate));
}

TEST(Lint, InconsistentWriteOrderLog) {
  const Execution exec =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  // Log names the read: invalid, W004.
  vmc::WriteOrderMap bad{{0, {OpRef{0, 0}}}};
  EXPECT_TRUE(has_rule(
      analysis::analyze(exec, &bad).addresses[0].diagnostics,
      RuleId::kInconsistentWriteOrderLog));
  // Log names the write: valid, no W004.
  vmc::WriteOrderMap good{{0, {OpRef{0, 1}}}};
  EXPECT_FALSE(has_rule(
      analysis::analyze(exec, &good).addresses[0].diagnostics,
      RuleId::kInconsistentWriteOrderLog));
}

TEST(Lint, FragmentClassificationInfoIsAlwaysLast) {
  const Execution exec = ExecutionBuilder().process_ops({W(0, 1)}).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  ASSERT_EQ(report.addresses.size(), 1u);
  const auto& diagnostics = report.addresses[0].diagnostics;
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_EQ(diagnostics.back().rule, RuleId::kFragmentClassification);
  EXPECT_EQ(diagnostics.back().severity, analysis::Severity::kInfo);
  EXPECT_EQ(report.info_count, 1u);
}

TEST(Lint, RuleCatalogCodes) {
  EXPECT_STREQ(rule_code(RuleId::kDuplicateValueWrite), "W001");
  EXPECT_STREQ(rule_code(RuleId::kUnreadWrite), "W002");
  EXPECT_STREQ(rule_code(RuleId::kRmwAtomicityCandidate), "W003");
  EXPECT_STREQ(rule_code(RuleId::kInconsistentWriteOrderLog), "W004");
  EXPECT_STREQ(rule_code(RuleId::kFragmentClassification), "I001");
  EXPECT_EQ(rule_severity(RuleId::kFragmentClassification),
            analysis::Severity::kInfo);
  EXPECT_EQ(rule_severity(RuleId::kUnreadWrite),
            analysis::Severity::kWarning);
}

// --- write-order log validation -------------------------------------------

TEST(WriteOrderLog, RejectsEveryMalformation) {
  // P0: W(0,1) W(0,2); P1: W(1,9) — address 1 present to supply a
  // non-member ref with valid coordinates.
  const Execution exec = ExecutionBuilder()
                             .process_ops({W(0, 1), W(0, 2)})
                             .process_ops({W(1, 9)})
                             .build();
  const AddressIndex index(exec);
  ASSERT_EQ(index.entry(0).addr, 0u);
  const auto view = index.view_at(0);

  const OpRef w1{0, 0}, w2{0, 1}, other{1, 0};
  using analysis::poly::validate_write_order_log;

  EXPECT_TRUE(validate_write_order_log(view, std::vector{w1, w2}).ok);
  // Too short / too long.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1}).ok);
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, w2, w2}).ok);
  // Entry on another address.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, other}).ok);
  // Duplicate entry.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w1, w1}).ok);
  // Program-order inversion within one history.
  EXPECT_FALSE(validate_write_order_log(view, std::vector{w2, w1}).ok);
}

// --- router behavior ------------------------------------------------------

TEST(Router, EmptyExecutionVacuouslyCoherent) {
  const AddressIndex index{Execution{}};
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index);
  EXPECT_EQ(report.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_TRUE(report.fragments.empty());
}

TEST(Router, BranchingRmwChainFallsBackToExact) {
  // Two heads read the initial value, so the chain walk cannot commit;
  // the exact search must take over and still find the schedule
  // P0.0, P1.0, P2.0, P0.1.
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1), RW(0, 2, 4)})
                             .process_ops({RW(0, 1, 0)})
                             .process_ops({RW(0, 0, 2)})
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index);
  EXPECT_EQ(report.fragments[0], Fragment::kRmwChain);
  EXPECT_EQ(report.deciders[0], Decider::kExact);  // fell back
  EXPECT_EQ(report.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(report.routing.exact_routed, 1u);
}

TEST(Router, StalledRmwChainIsIncoherent) {
  // Forced prefix, then nothing reads the current value: a proof of
  // incoherence from the O(n) walk — and exact agrees.
  // Value 1 written twice keeps this out of the write-once-rmw bucket.
  const Execution exec = ExecutionBuilder()
                             .process_ops({RW(0, 0, 1), RW(0, 5, 1)})
                             .process_ops({RW(0, 1, 2)})
                             .build();
  const Differential d = run_differential(exec);
  EXPECT_EQ(d.fragment, Fragment::kRmwChain);
  EXPECT_EQ(d.decider, Decider::kRmwChain);
  EXPECT_EQ(d.routed, vmc::Verdict::kIncoherent);
  EXPECT_EQ(d.exact, vmc::Verdict::kIncoherent);
}

TEST(Router, InvalidWriteOrderLogNeverFallsBack) {
  // The question "coherent under THIS serialization" has no exact
  // fallback: an unusable log is an unknown verdict, surfaced to lint as
  // W004, exactly like the vmc write-order checker behaves.
  const Execution exec =
      ExecutionBuilder().process_ops({R(0, 0), W(0, 1)}).build();
  vmc::WriteOrderMap bad{{0, {OpRef{0, 0}}}};
  const AddressIndex index(exec);
  const analysis::RoutedReport report =
      analysis::verify_coherence_routed(index, &bad);
  EXPECT_EQ(report.fragments[0], Fragment::kWriteOrder);
  EXPECT_EQ(report.deciders[0], Decider::kWriteOrder);
  EXPECT_EQ(report.report.verdict, vmc::Verdict::kUnknown);
  // Single address, no sync ops: projected and original coordinates agree.
  EXPECT_EQ(report.report.verdict,
            vmc::check_with_write_order({exec, 0}, bad[0]).verdict);
}

// --- differential: routed deciders vs exact -------------------------------

TEST(DifferentialRouting, WriteOnceCoherentAndFaulty) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 6;
    params.ops_per_history = 10;
    params.num_values = 0;  // fresh values: the write-once regime
    params.write_fraction = 0.4;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    const Differential clean = run_differential(trace.execution);
    EXPECT_EQ(clean.fragment, Fragment::kWriteOnce) << "seed " << seed;
    EXPECT_EQ(clean.decider, Decider::kWriteOnce) << "seed " << seed;
    EXPECT_EQ(clean.routed, vmc::Verdict::kCoherent) << "seed " << seed;
    EXPECT_EQ(clean.exact, vmc::Verdict::kCoherent) << "seed " << seed;

    for (const auto fault :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead, workload::Fault::kReorderedOps}) {
      const auto faulty = workload::inject_fault(trace, fault, rng);
      if (!faulty) continue;
      const Differential d = run_differential(*faulty);
      EXPECT_EQ(d.routed, d.exact)
          << "seed " << seed << " fault " << to_string(fault);
    }
  }
}

TEST(DifferentialRouting, OneOpCoherentAndFaulty) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 24;
    params.ops_per_history = 1;
    params.num_values = 3;
    params.write_fraction = 0.5;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed * 31);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    const Differential clean = run_differential(trace.execution);
    EXPECT_EQ(clean.fragment, Fragment::kOneOp) << "seed " << seed;
    EXPECT_EQ(clean.decider, Decider::kOneOp) << "seed " << seed;
    EXPECT_EQ(clean.routed, vmc::Verdict::kCoherent) << "seed " << seed;
    EXPECT_EQ(clean.exact, vmc::Verdict::kCoherent) << "seed " << seed;

    for (const auto fault :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead}) {
      const auto faulty = workload::inject_fault(trace, fault, rng);
      if (!faulty) continue;
      const Differential d = run_differential(*faulty);
      EXPECT_EQ(d.routed, d.exact)
          << "seed " << seed << " fault " << to_string(fault);
    }
  }
}

TEST(DifferentialRouting, ForcedRmwChainMatchesExact) {
  for (const std::size_t n : {16u, 48u, 96u}) {
    const Execution exec = rmw_chain_exec(n, 8, 16);
    const Differential d = run_differential(exec);
    EXPECT_EQ(d.fragment, Fragment::kRmwChain) << "n " << n;
    EXPECT_EQ(d.decider, Decider::kRmwChain) << "n " << n;
    EXPECT_EQ(d.routed, vmc::Verdict::kCoherent) << "n " << n;
    EXPECT_EQ(d.exact, vmc::Verdict::kCoherent) << "n " << n;
  }
}

TEST(DifferentialRouting, WriteOrderMatchesVmcEntryPoint) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::SingleAddressParams params;
    params.num_histories = 6;
    params.ops_per_history = 8;
    params.num_values = 3;  // collisions: order genuinely needed
    params.write_fraction = 0.5;
    params.rmw_fraction = 0.0;
    Xoshiro256ss rng(seed * 17);
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    vmc::WriteOrderMap orders{{0, trace.write_order}};

    const AddressIndex index(trace.execution);
    const analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index, &orders);
    EXPECT_EQ(routed.fragments[0], Fragment::kWriteOrder) << "seed " << seed;
    EXPECT_EQ(routed.deciders[0], Decider::kWriteOrder) << "seed " << seed;
    EXPECT_EQ(routed.report.verdict, vmc::Verdict::kCoherent)
        << "seed " << seed;
    const auto& witness = routed.report.addresses[0].result.witness;
    const auto check = check_coherent_schedule(trace.execution, 0, witness);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;

    // Single address, no sync ops: the log needs no remapping.
    EXPECT_EQ(routed.report.verdict,
              vmc::check_with_write_order({trace.execution, 0},
                                          trace.write_order)
                  .verdict)
        << "seed " << seed;
  }
}

TEST(DifferentialRouting, MultiAddressAgreesWithExact) {
  // Every address of clean and faulted multi-address traces, with and
  // without the recorded write orders, against the unpruned per-address
  // references; every definite verdict must also certify.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::MultiAddressParams params;
    params.num_processes = 5;
    params.ops_per_process = 20;
    params.num_addresses = 6;
    params.num_values = 4;
    params.rmw_fraction = 0.2;
    Xoshiro256ss rng(seed * 101);
    const workload::GeneratedMultiTrace trace =
        workload::generate_sc(params, rng);

    // The faults perturb one read value or swap two adjacent ops of the
    // generating interleaving, which is just as meaningful across
    // addresses as on one.
    const workload::GeneratedTrace generated{trace.execution, trace.witness,
                                             {}};
    std::vector<std::pair<std::string, Execution>> cases;
    cases.emplace_back("clean", trace.execution);
    for (const auto fault :
         {workload::Fault::kStaleRead, workload::Fault::kLostWrite,
          workload::Fault::kFabricatedRead, workload::Fault::kReorderedOps}) {
      if (auto faulty = workload::inject_fault(generated, fault, rng))
        cases.emplace_back(to_string(fault), std::move(*faulty));
    }

    for (const auto& [fault, exec] : cases) {
      const std::string label = "seed " + std::to_string(seed) + " " + fault;
      const AddressIndex index(exec);
      std::vector<vmc::Verdict> reference;
      for (std::size_t i = 0; i < index.num_addresses(); ++i)
        reference.push_back(reference_verdict(index, i));

      const analysis::RoutedReport routed =
          analysis::verify_coherence_routed(index);
      ASSERT_EQ(routed.report.addresses.size(), index.num_addresses());
      for (std::size_t i = 0; i < index.num_addresses(); ++i)
        EXPECT_EQ(routed.report.addresses[i].result.verdict, reference[i])
            << label << " @a" << index.entry(i).addr;
      EXPECT_EQ(routed.routing.poly_routed + routed.routing.exact_routed,
                index.num_addresses());
      expect_certified(exec, routed.report, label);

      // A supplied log asks "coherent under THIS serialization": a yes
      // implies coherence, and an incoherent address admits no log.
      const analysis::RoutedReport logged =
          analysis::verify_coherence_routed(index, &trace.write_orders);
      ASSERT_EQ(logged.report.addresses.size(), index.num_addresses());
      for (std::size_t i = 0; i < index.num_addresses(); ++i) {
        const vmc::Verdict verdict = logged.report.addresses[i].result.verdict;
        if (verdict == vmc::Verdict::kCoherent) {
          EXPECT_EQ(reference[i], vmc::Verdict::kCoherent)
              << label << " +log @a" << index.entry(i).addr;
        }
        if (reference[i] == vmc::Verdict::kIncoherent) {
          EXPECT_NE(verdict, vmc::Verdict::kCoherent)
              << label << " +log @a" << index.entry(i).addr;
        }
      }
      if (fault == "clean") {
        EXPECT_TRUE(logged.report.coherent()) << label;
      }
      expect_certified(exec, logged.report, label + " +log");
    }
  }
}

// --- whole-trace sweep ------------------------------------------------------

/// Every address of `exec` through the router.
vmc::CoherenceReport verify(const Execution& exec) {
  const AddressIndex index(exec);
  return analysis::verify_coherence_routed(index).report;
}

/// Four addresses, each with a cross-reader conflict.
Execution every_address_incoherent() {
  ExecutionBuilder builder;
  builder.process(W(0, 1), W(1, 1), W(2, 1), W(3, 1));
  for (Addr a = 0; a < 4; ++a) {
    builder.process(W(a, 2));
    builder.process(R(a, 1), R(a, 2));
    builder.process(R(a, 2), R(a, 1));
  }
  return builder.build();
}

TEST(Router, PicksSpecialCasesAndAgreesWithExact) {
  Xoshiro256ss rng(81);
  std::uint64_t poly = 0;
  for (int trial = 0; trial < 30; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 1 + rng.below(5);
    params.num_values = 2 + rng.below(6);
    params.rmw_fraction = rng.chance(0.5) ? 1.0 : 0.0;
    if (params.rmw_fraction == 1.0) params.write_fraction = 1.0;
    const auto trace = workload::generate_coherent(params, rng);
    const AddressIndex index(trace.execution);
    const analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index);
    poly += routed.routing.poly_routed;
    EXPECT_EQ(routed.report.verdict, reference_verdict(index, 0))
        << "trial " << trial;
    for (const auto& [addr, result] : routed.report.addresses) {
      if (result.verdict != vmc::Verdict::kCoherent) continue;
      const auto check = check_coherent_schedule(trace.execution, addr,
                                                 result.witness);
      EXPECT_TRUE(check.ok) << "trial " << trial << ": " << check.violation;
    }
  }
  EXPECT_GT(poly, 0u) << "no instance took a polynomial route";
}

TEST(VerifyCoherence, MultiAddressCoherentTrace) {
  Xoshiro256ss rng(91);
  workload::MultiAddressParams params;
  const auto trace = workload::generate_sc(params, rng);
  const auto report = verify(trace.execution);
  EXPECT_TRUE(report.coherent());
  EXPECT_EQ(report.addresses.size(), trace.execution.addresses().size());
}

TEST(VerifyCoherence, DetectsPlantedViolation) {
  // Coherent on address 0, planted cross-reader conflict on address 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(W(1, 2))
                        .process(R(1, 1), R(1, 2))
                        .process(R(1, 2), R(1, 1))
                        .build();
  const auto report = verify(exec);
  EXPECT_EQ(report.verdict, vmc::Verdict::kIncoherent);
  ASSERT_NE(report.first_violation(), nullptr);
  EXPECT_EQ(report.first_violation()->addr, 1u);
}

TEST(VerifyCoherence, FirstViolationIsRecordedAtAggregation) {
  // Violations planted on addresses 2 and 5: first_violation() must be
  // the lowest offending address, located via the recorded index (no
  // rescan), and the index must agree with the report entry.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(2, 1), W(5, 1))
                        .process(R(2, 9), R(5, 9))
                        .build();
  const auto report = verify(exec);
  EXPECT_EQ(report.verdict, vmc::Verdict::kIncoherent);
  ASSERT_NE(report.first_violation_index, vmc::CoherenceReport::kNoViolation);
  ASSERT_LT(report.first_violation_index, report.addresses.size());
  ASSERT_NE(report.first_violation(), nullptr);
  EXPECT_EQ(report.first_violation()->addr, 2u);
  EXPECT_EQ(&report.addresses[report.first_violation_index],
            report.first_violation());

  // Coherent reports carry the sentinel and a null first_violation.
  const auto clean = verify(ExecutionBuilder().process(W(0, 1), R(0, 1)).build());
  EXPECT_EQ(clean.first_violation_index, vmc::CoherenceReport::kNoViolation);
  EXPECT_EQ(clean.first_violation(), nullptr);
}

TEST(VerifyCoherence, DecidesEveryAddressAfterAViolation) {
  // The sweep never stops early: an incoherent first address still
  // leaves every later address with a verdict (and hence a certificate).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1), W(2, 1), W(3, 1))
                        .process(W(0, 2))
                        .process(R(0, 1), R(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  const auto report = verify(exec);
  EXPECT_EQ(report.verdict, vmc::Verdict::kIncoherent);
  ASSERT_EQ(report.addresses.size(), 4u);
  EXPECT_EQ(report.first_violation_index, 0u);
  for (std::size_t i = 1; i < report.addresses.size(); ++i)
    EXPECT_EQ(report.addresses[i].result.verdict, vmc::Verdict::kCoherent)
        << "@a" << report.addresses[i].addr;

  const auto all_bad = verify(every_address_incoherent());
  ASSERT_EQ(all_bad.addresses.size(), 4u);
  for (const auto& address : all_bad.addresses)
    EXPECT_EQ(address.result.verdict, vmc::Verdict::kIncoherent)
        << "@a" << address.addr;
}

TEST(VerifyCoherence, OneIndexServesRepeatedSweeps) {
  Xoshiro256ss rng(127);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 24;
  params.num_addresses = 5;
  const auto trace = workload::generate_sc(params, rng);
  const AddressIndex index(trace.execution);
  const analysis::RoutedReport first = analysis::verify_coherence_routed(index);
  const analysis::RoutedReport again = analysis::verify_coherence_routed(index);
  EXPECT_EQ(again.report.verdict, first.report.verdict);
  EXPECT_EQ(again.fragments, first.fragments);
  EXPECT_EQ(again.deciders, first.deciders);
  ASSERT_EQ(again.report.addresses.size(), first.report.addresses.size());
  for (std::size_t i = 0; i < first.report.addresses.size(); ++i) {
    EXPECT_EQ(again.report.addresses[i].addr, first.report.addresses[i].addr);
    EXPECT_EQ(again.report.addresses[i].result.verdict,
              first.report.addresses[i].result.verdict);
    EXPECT_EQ(again.report.addresses[i].result.witness,
              first.report.addresses[i].result.witness);
  }
}

TEST(VerifyCoherenceWithWriteOrder, UsesRecordedOrders) {
  Xoshiro256ss rng(101);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 30;
  const auto trace = workload::generate_sc(params, rng);
  const AddressIndex index(trace.execution);
  const analysis::RoutedReport routed =
      analysis::verify_coherence_routed(index, &trace.write_orders);
  EXPECT_TRUE(routed.report.coherent());
  for (const Decider decider : routed.deciders)
    EXPECT_EQ(decider, Decider::kWriteOrder);
  // Witnesses come back in original coordinates and validate per address.
  for (const auto& [addr, result] : routed.report.addresses) {
    const auto check =
        check_coherent_schedule(trace.execution, addr, result.witness);
    EXPECT_TRUE(check.ok) << check.violation;
  }
}

TEST(VerifyCoherenceWithWriteOrder, BadOrderRejects) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  vmc::WriteOrderMap orders;
  orders[0] = {{0, 1}, {0, 0}};
  const AddressIndex index(exec);
  EXPECT_EQ(analysis::verify_coherence_routed(index, &orders).report.verdict,
            vmc::Verdict::kIncoherent);
}

TEST(Aggregation, PeakProvenanceTracksOwningAddress) {
  // Two addresses with very different search sizes: the peaks in the
  // merged effort must be attributed to the address that produced them.
  Xoshiro256ss rng(7);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 6;
  params.num_values = 3;
  params.addr = 1;  // address 0 stays trivial
  const auto trace = workload::generate_coherent(params, rng);
  Execution merged = trace.execution;
  merged.add_history(ProcessHistory{std::vector<Operation>{W(0, 1)}});

  const auto report = verify(merged);
  ASSERT_EQ(report.addresses.size(), 2u);
  // Address 1 (index 1 in sorted order) did the real search work.
  if (report.effort.states_visited > 0) {
    ASSERT_NE(report.peak_visited_index, vmc::CoherenceReport::kNoViolation);
    EXPECT_EQ(report.addresses[report.peak_visited_index].addr, 1u);
  }
  if (report.effort.arena_high_water > 0) {
    ASSERT_NE(report.peak_arena_index, vmc::CoherenceReport::kNoViolation);
    EXPECT_EQ(report.addresses[report.peak_arena_index].addr, 1u);
  }
  // The merged effort is the sum over addresses, never a dropped share.
  std::uint64_t states = 0;
  for (const auto& address : report.addresses)
    states += address.result.stats.states_visited;
  EXPECT_EQ(report.effort.states_visited, states);
}

}  // namespace
