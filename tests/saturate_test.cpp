// Tests for the coherence-order saturation tier: the constraint-graph
// engine itself (cycle / forced-total / partial / contradiction
// outcomes), the typed certificates it produces through the router and
// their independent re-checking, the must-precede pruning oracle's
// bit-identical-search guarantee, the CNF order hints, and the
// graph-derived lint rules W005/W006 plus the W002 final-section
// regression, a field-by-field differential against the frozen
// reference pass in saturate_reference.cpp, the view and instance entry
// points of the exact tier and of the read-map decider against each
// other, and analyze()'s reuse of the routing pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/router.hpp"
#include "analysis/saturate/core.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/gen.hpp"
#include "sat/solver.hpp"
#include "saturate_reference.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "trace/text_io.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vmc/special.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using analysis::Decider;
using analysis::RuleId;
using certify::IncoherenceKind;
using saturate::Status;

// --- helpers --------------------------------------------------------------

saturate::Result saturate_addr(const Execution& exec, Addr addr) {
  const AddressIndex index(exec);
  return saturate::saturate(index.view(addr));
}

bool has_rule(const analysis::AnalysisReport& report, RuleId rule) {
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == rule) return true;
  return false;
}

std::size_t count_rule(const analysis::AnalysisReport& report, RuleId rule) {
  std::size_t n = 0;
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == rule) ++n;
  return n;
}

/// Builds the must-precede oracle an exact search would receive for this
/// view, in the materialized instance's (local) coordinates.
vmc::MustPrecede oracle_for(const saturate::Result& sat,
                            const vmc::VmcInstance& instance) {
  vmc::MustPrecede oracle;
  for (const auto& [a, b] : sat.edges)
    oracle.add_edge(sat.writes_local[a], sat.writes_local[b]);
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t p = 0; p < instance.execution.num_processes(); ++p)
    sizes.push_back(
        static_cast<std::uint32_t>(instance.execution.history(p).size()));
  oracle.finalize(sizes);
  return oracle;
}

// --- engine outcomes ------------------------------------------------------

TEST(Saturate, CrossReadCycle) {
  // Each read pins the other history's write between its neighbours:
  // W(0,1) -> W(0,2) from P0's read and W(0,2) -> W(0,1) from P1's.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2))
                             .process(W(0, 2), R(0, 1))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kCycle);
  ASSERT_GE(result.cycle.size(), 2u);
  // Every consecutive cycle edge must be derivable from the direct graph.
  for (std::size_t i = 0; i < result.cycle.size(); ++i)
    EXPECT_TRUE(saturate::reaches(result, result.cycle[i],
                                  result.cycle[(i + 1) % result.cycle.size()]));
}

TEST(Saturate, ForcedTotalOrderFromProgramOrder) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 2), R(0, 1))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kForcedTotal);
  ASSERT_EQ(result.forced.size(), 2u);
  EXPECT_EQ(result.writes[result.forced[0]], (OpRef{0, 0}));
  EXPECT_EQ(result.writes[result.forced[1]], (OpRef{0, 1}));
  EXPECT_EQ(result.branch_points, 0u);
}

TEST(Saturate, IndependentChainsStayPartial) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(W(0, 3), W(0, 4))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kPartial);
  EXPECT_GE(result.branch_points, 1u);
  EXPECT_GE(result.max_concurrent, 2u);
  const auto [a, b] = result.unordered_example;
  EXPECT_NE(a, b);
  EXPECT_FALSE(saturate::reaches(result, a, b));
  EXPECT_FALSE(saturate::reaches(result, b, a));
}

TEST(Saturate, SccCondensationCollapsesTransientCycle) {
  // P0/P1's reads pin each other's write into a two-node cycle mid-round
  // (the classic CrossReadCycle shape); P1's trailing R(0,3) then issues
  // an R2 reachability query with two candidates {P2, P3}. That query
  // reads descendant rows rebuilt AFTER the cycle-closing pin, so the
  // rebuild must converge on a cyclic graph. The post-round cycle check
  // still refutes the address.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2))
                             .process(W(0, 2), R(0, 1), R(0, 3))
                             .process(W(0, 3))
                             .process(W(0, 3))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kCycle);
  EXPECT_EQ(result.num_writes(), 4u);
  EXPECT_GE(result.reach_queries, 1u);
}

TEST(Saturate, SccCondensationTrivialOnAcyclicGraph) {
  // Same query shape without the cycle: the rows are exact after one
  // rebuild pass, and R2 leaves the genuine choice open.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2), W(0, 3))
                             .process(W(0, 2))
                             .process(W(0, 3))
                             .process(W(0, 5), R(0, 3))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kPartial);
  EXPECT_GE(result.reach_queries, 1u);
}

TEST(Saturate, ContradictionKinds) {
  {
    const Execution exec = ExecutionBuilder().process(R(0, 5)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    ASSERT_TRUE(result.contradiction.has_value());
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kUnwrittenRead);
  }
  {
    // Initial-value read after an own earlier write, with no write of
    // the initial value anywhere.
    const Execution exec =
        ExecutionBuilder().process(W(0, 1), R(0, 0)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kStaleInitialRead);
  }
  {
    // The value's unique write follows the read in program order.
    const Execution exec =
        ExecutionBuilder().process(R(0, 1), W(0, 1)).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kReadBeforeWrite);
  }
  {
    const Execution exec =
        ExecutionBuilder().process(W(0, 1)).final_value(0, 2).build();
    const auto result = saturate_addr(exec, 0);
    ASSERT_EQ(result.status, Status::kContradiction);
    EXPECT_EQ(result.contradiction->kind,
              saturate::ContradictionKind::kUnwritableFinal);
  }
}

// Every derived must-edge is *necessary*, so it must hold in the
// generator's ground-truth write order of any coherent-by-construction
// trace — the strongest cheap soundness check we have.
TEST(Saturate, MustEdgesHoldInGeneratingWriteOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 10;
    params.num_values = 3;  // contended: duplicate values, general shape
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    const AddressIndex index(trace.execution);
    if (index.num_addresses() == 0) continue;
    const auto result = saturate::saturate(index.view_at(0));
    EXPECT_NE(result.status, Status::kCycle) << "seed " << seed;
    EXPECT_NE(result.status, Status::kContradiction) << "seed " << seed;
    EXPECT_FALSE(result.pruned_empty_read) << "seed " << seed;

    std::unordered_map<std::uint64_t, std::size_t> pos;
    const auto key = [](OpRef ref) {
      return (static_cast<std::uint64_t>(ref.process) << 32) | ref.index;
    };
    for (std::size_t i = 0; i < trace.write_order.size(); ++i)
      pos.emplace(key(trace.write_order[i]), i);
    for (const auto& [a, b] : result.edges) {
      const auto pa = pos.find(key(result.writes[a]));
      const auto pb = pos.find(key(result.writes[b]));
      ASSERT_NE(pa, pos.end());
      ASSERT_NE(pb, pos.end());
      EXPECT_LT(pa->second, pb->second)
          << "seed " << seed << ": derived edge contradicts the "
          << "generating write order — unsound";
    }
  }
}

// --- router + certificates ------------------------------------------------

TEST(SaturateRouting, CycleYieldsCheckableCertificate) {
  // Duplicate value 3 defeats the write-once fragment so the trace
  // routes through the saturation tier.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2), W(0, 3))
                             .process(W(0, 2), R(0, 1), W(0, 3))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kIncoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.routing.saturate_decided, 1u);
  EXPECT_EQ(routed.routing.saturate_cycles, 1u);

  const vmc::CheckResult& result = routed.report.addresses[0].result;
  ASSERT_NE(result.incoherence(), nullptr);
  EXPECT_EQ(result.incoherence()->kind, IncoherenceKind::kSaturationCycle);

  const certify::Certificate cert =
      certify::from_result(certify::Scope::kAddress, 0, result);
  EXPECT_TRUE(certify::check(exec, cert).ok);

  // Mutations: a truncated cycle and a non-write op must both be
  // rejected by the independent checker.
  certify::Certificate truncated = cert;
  std::get<certify::Incoherence>(truncated.evidence).ops.pop_back();
  EXPECT_FALSE(certify::check(exec, truncated).ok);

  certify::Certificate nonwrite = cert;
  std::get<certify::Incoherence>(nonwrite.evidence).ops[0] = OpRef{0, 1};
  EXPECT_FALSE(certify::check(exec, nonwrite).ok);
}

TEST(SaturateRouting, ForcedOrderRefutationCertificate) {
  // The write order is fully forced (program order + pinned reads), and
  // the Section 5.2 re-run under it refutes the address.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 2), R(0, 1), W(0, 3), W(0, 3))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kIncoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.routing.saturate_forced, 1u);

  const vmc::CheckResult& result = routed.report.addresses[0].result;
  ASSERT_NE(result.incoherence(), nullptr);
  EXPECT_EQ(result.incoherence()->kind,
            IncoherenceKind::kForcedOrderRefutation);

  const certify::Certificate cert =
      certify::from_result(certify::Scope::kAddress, 0, result);
  EXPECT_TRUE(certify::check(exec, cert).ok);

  // A transposed forced order no longer matches the re-derived one.
  certify::Certificate swapped = cert;
  auto& order = std::get<certify::Incoherence>(swapped.evidence).write_order;
  ASSERT_GE(order.size(), 2u);
  std::swap(order[0], order[1]);
  EXPECT_FALSE(certify::check(exec, swapped).ok);
}

TEST(SaturateRouting, ForcedOrderCoherentDecidedWithoutSearch) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .process(R(0, 1), R(0, 2), W(0, 2))
                             .build();
  const AddressIndex index(exec);
  const analysis::RoutedReport routed = analysis::verify_coherence_routed(index);
  ASSERT_EQ(routed.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(routed.deciders[0], Decider::kSaturate);
  EXPECT_EQ(routed.routing.saturate_decided, 1u);
  EXPECT_EQ(routed.routing.exact_routed, 0u);
  const vmc::CheckResult& result = routed.report.addresses[0].result;
  const auto check = check_coherent_schedule(exec, 0, result.witness);
  EXPECT_TRUE(check.ok) << check.violation;
}

// --- differential: routed (with saturation tier) vs exact ----------------

TEST(SaturateDifferential, RoutedMatchesExactOnRandomTraces) {
  std::size_t saturate_routed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Xoshiro256ss rng(seed * 0xd1342543de82ef95ull);
    workload::SingleAddressParams params;
    params.num_histories = 3 + seed % 3;
    params.ops_per_history = 8;
    params.num_values = 2 + seed % 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    const auto fault = static_cast<workload::Fault>(seed % 4);
    if (auto faulty = workload::inject_fault(trace, fault, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const analysis::RoutedReport routed =
          analysis::verify_coherence_routed(index);
      if (routed.routing.saturate_ran > 0) ++saturate_routed;

      const Addr addr = index.entry(0).addr;
      const auto projection = index.view_at(0).materialize();
      const vmc::CheckResult exact =
          vmc::check_exact(vmc::VmcInstance{projection, addr});
      EXPECT_EQ(routed.report.verdict, exact.verdict) << "seed " << seed;

      const vmc::CheckResult& result = routed.report.addresses[0].result;
      if (result.verdict == vmc::Verdict::kCoherent) {
        const auto check = check_coherent_schedule(exec, addr, result.witness);
        EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.violation;
      } else if (result.verdict == vmc::Verdict::kIncoherent) {
        const certify::Certificate cert =
            certify::from_result(certify::Scope::kAddress, addr, result);
        EXPECT_TRUE(certify::check(exec, cert).ok) << "seed " << seed;
      }
    }
  }
  // The parameter mix must actually exercise the new tier.
  EXPECT_GT(saturate_routed, 0u);
}

// --- must-precede pruning oracle ------------------------------------------

TEST(SaturateOracle, PrunedSearchIsBitIdentical) {
  std::uint64_t total_oracle_prunes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256ss rng(seed * 0xbf58476d1ce4e5b9ull);
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 10;
    params.num_values = 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    if (auto faulty = workload::inject_fault(
            trace, workload::Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const auto view = index.view_at(0);
      const auto sat = saturate::saturate(view);
      if (sat.edges.empty()) continue;
      const auto projection = view.materialize();
      const vmc::VmcInstance instance{projection,
                                      index.entry(0).addr};
      const vmc::MustPrecede oracle = oracle_for(sat, instance);

      const vmc::CheckResult plain = vmc::check_exact(instance);
      vmc::ExactOptions with_oracle;
      with_oracle.pruner = &oracle;
      const vmc::CheckResult pruned = vmc::check_exact(instance, with_oracle);

      EXPECT_EQ(plain.verdict, pruned.verdict) << "seed " << seed;
      EXPECT_EQ(plain.witness, pruned.witness) << "seed " << seed;
      if (plain.verdict == vmc::Verdict::kIncoherent) {
        EXPECT_EQ(plain.incoherence()->kind, pruned.incoherence()->kind);
      }
      EXPECT_LE(pruned.stats.states_visited, plain.stats.states_visited);
      total_oracle_prunes += pruned.stats.oracle_prunes;
      EXPECT_EQ(plain.stats.oracle_prunes, 0u);
    }
  }
  // The oracle must actually cut branches somewhere in the mix.
  EXPECT_GT(total_oracle_prunes, 0u);
}

TEST(PruneOracle, ProgramOrderEdgesNeverPrune) {
  // Every same-history pair (p, j) -> (p, i), j < i, as a must-precede
  // edge: next() offers (p, i) only after (p, j), so no branch is cut and
  // the search is the unpruned one, field for field.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    workload::SingleAddressParams params;
    params.num_histories = 2 + seed % 4;
    params.ops_per_history = 6 + seed % 5;
    params.num_values = 2 + seed % 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulty = workload::inject_fault(
            trace, static_cast<workload::Fault>(seed % 4), rng))
      cases.push_back(std::move(*faulty));
    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const vmc::VmcInstance instance{index.view_at(0).materialize(),
                                      index.entry(0).addr};
      vmc::MustPrecede oracle;
      std::vector<std::uint32_t> sizes;
      for (std::uint32_t p = 0; p < instance.execution.num_processes(); ++p) {
        const auto n = static_cast<std::uint32_t>(
            instance.execution.history(p).size());
        sizes.push_back(n);
        for (std::uint32_t i = 0; i < n; ++i)
          for (std::uint32_t j = 0; j < i; ++j)
            oracle.add_edge(OpRef{p, j}, OpRef{p, i});
      }
      oracle.finalize(sizes);
      ASSERT_FALSE(oracle.empty());
      vmc::ExactOptions with_oracle;
      with_oracle.pruner = &oracle;
      const vmc::CheckResult plain = vmc::check_exact(instance);
      const vmc::CheckResult pruned = vmc::check_exact(instance, with_oracle);
      EXPECT_EQ(plain.verdict, pruned.verdict) << "seed " << seed;
      EXPECT_EQ(plain.witness, pruned.witness) << "seed " << seed;
      EXPECT_EQ(plain.reason(), pruned.reason()) << "seed " << seed;
      EXPECT_EQ(plain.stats, pruned.stats) << "seed " << seed;
      EXPECT_EQ(pruned.stats.oracle_prunes, 0u) << "seed " << seed;
    }
  }
}

// --- CNF order hints ------------------------------------------------------

TEST(SaturateEncode, HintedEncodingPreservesSatisfiability) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256ss rng(seed * 0x94d049bb133111ebull);
    workload::SingleAddressParams params;
    params.num_histories = 3;
    params.ops_per_history = 6;
    params.num_values = 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);

    std::vector<Execution> cases;
    cases.push_back(trace.execution);
    if (auto faulty = workload::inject_fault(
            trace, workload::Fault::kFabricatedRead, rng))
      cases.push_back(std::move(*faulty));

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      if (index.num_addresses() == 0) continue;
      const auto view = index.view_at(0);
      const auto sat = saturate::saturate(view);
      const auto projection = view.materialize();
      const vmc::VmcInstance instance{projection,
                                      index.entry(0).addr};

      encode::OrderHints hints;
      for (const auto& [a, b] : sat.edges)
        hints.must.emplace_back(sat.writes_local[a], sat.writes_local[b]);

      const encode::VmcEncoding plain = encode::encode_vmc(instance);
      const encode::VmcEncoding hinted = encode::encode_vmc(instance, hints);
      if (plain.trivially_incoherent) {
        EXPECT_TRUE(hinted.trivially_incoherent);
        continue;
      }
      const sat::SolveResult a = sat::solve(plain.cnf);
      const sat::SolveResult b = sat::solve(hinted.cnf);
      ASSERT_NE(a.status, sat::Status::kUnknown);
      EXPECT_EQ(a.status, b.status) << "seed " << seed
                                    << ": order hints changed the verdict";
    }
  }
}

// --- lint: W002 regression, W005, W006 ------------------------------------

TEST(LintW002, ValueInFinalSectionIsExempt) {
  const Execution exec =
      ExecutionBuilder().process(W(0, 5)).final_value(0, 5).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_FALSE(has_rule(report, RuleId::kUnreadWrite));
}

TEST(LintW002, NoRecordedFinalLastWriteIsExempt) {
  // No final section: value 2 is produced by the history's last write,
  // so it may legitimately be the end state — W002 must stay quiet for
  // it. Value 1 is unread AND overwritten within its history: fires.
  const Execution exec =
      ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_EQ(count_rule(report, RuleId::kUnreadWrite), 1u);
  for (const analysis::AddressAnalysis& address : report.addresses)
    for (const analysis::Diagnostic& d : address.diagnostics)
      if (d.rule == RuleId::kUnreadWrite) {
        ASSERT_TRUE(d.location.has_value());
        EXPECT_EQ(*d.location, (OpRef{0, 0}));
      }
}

TEST(LintW002, RecordedFinalMismatchStillFires) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2))
                             .final_value(0, 2)
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_EQ(count_rule(report, RuleId::kUnreadWrite), 1u);
}

TEST(LintW005, UnorderedConcurrentWritesFlagged) {
  // Value 3 written twice defeats write-once; two independent chains
  // stay unordered after saturation.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 3))
                             .process(W(0, 2), W(0, 3))
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_TRUE(has_rule(report, RuleId::kUnorderedWritePair));
  ASSERT_FALSE(report.addresses.empty());
  EXPECT_TRUE(report.addresses[0].saturation.has_value());
}

TEST(LintW005, ForcedOrderDoesNotFire) {
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), W(0, 2), W(0, 2))
                             .build();
  const analysis::AnalysisReport report = analysis::analyze(exec);
  EXPECT_FALSE(has_rule(report, RuleId::kUnorderedWritePair));
}

TEST(LintW006, ShapeValidLogContradictedBySaturation) {
  // The trace forces W(2,1) -> W(2,2) (P0's read of 2 sits after its
  // write of 1), but the log orders them the other way. The log is
  // shape-valid (a permutation respecting program order), so W004 stays
  // quiet and W006 fires.
  const Execution exec = ExecutionBuilder()
                             .process(W(2, 1), R(2, 2))
                             .process(W(2, 2))
                             .build();
  vmc::WriteOrderMap orders;
  orders[2] = {OpRef{1, 0}, OpRef{0, 0}};
  const analysis::AnalysisReport report = analysis::analyze(exec, &orders);
  EXPECT_FALSE(has_rule(report, RuleId::kInconsistentWriteOrderLog));
  EXPECT_TRUE(has_rule(report, RuleId::kSaturationContradictedLog));
}

TEST(LintW006, ConsistentLogDoesNotFire) {
  const Execution exec = ExecutionBuilder()
                             .process(W(2, 1), R(2, 2))
                             .process(W(2, 2))
                             .build();
  vmc::WriteOrderMap orders;
  orders[2] = {OpRef{0, 0}, OpRef{1, 0}};
  const analysis::AnalysisReport report = analysis::analyze(exec, &orders);
  EXPECT_FALSE(has_rule(report, RuleId::kSaturationContradictedLog));
}

// --- reference differential ----------------------------------------------

/// The first Result field where the production pass and the reference
/// disagree, or empty when every shared field matches.
std::string first_difference(const saturate::Result& got,
                             const saturate_reference::Result& want) {
  if (static_cast<int>(got.status) != static_cast<int>(want.status))
    return "status";
  if (got.writes != want.writes) return "writes";
  if (got.writes_local != want.writes_local) return "writes_local";
  if (got.edges != want.edges) return "edges";
  if (got.cycle != want.cycle) return "cycle";
  if (got.forced != want.forced) return "forced";
  if (got.contradiction.has_value() != want.contradiction.has_value())
    return "contradiction";
  if (got.contradiction &&
      (static_cast<int>(got.contradiction->kind) !=
           static_cast<int>(want.contradiction->kind) ||
       got.contradiction->read != want.contradiction->read ||
       got.contradiction->other != want.contradiction->other ||
       got.contradiction->value != want.contradiction->value))
    return "contradiction";
  if (got.rounds != want.rounds) return "rounds";
  if (got.reach_queries != want.reach_queries) return "reach_queries";
  if (got.branch_points != want.branch_points) return "branch_points";
  if (got.max_concurrent != want.max_concurrent) return "max_concurrent";
  if (got.unordered_example != want.unordered_example)
    return "unordered_example";
  if (got.budget_hit != want.budget_hit) return "budget_hit";
  if (got.pruned_empty_read != want.pruned_empty_read)
    return "pruned_empty_read";
  return {};
}

/// Runs both passes on every address of `exec` and records the outcome.
struct Differential {
  std::size_t addresses = 0;
  std::size_t statuses[4] = {};
  std::size_t with_queries = 0;
  std::vector<std::string> mismatches;
  std::size_t reference_budget_hits = 0;

  void check(const Execution& exec, const std::string& label) {
    const AddressIndex index(exec);
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const ProjectedView view = index.view_at(i);
      const saturate::Result got = saturate::saturate(view);
      const saturate_reference::Result want = saturate_reference::saturate(view);
      ++addresses;
      ++statuses[static_cast<int>(want.status)];
      if (want.reach_queries > 0) ++with_queries;
      if (want.budget_hit) ++reference_budget_hits;
      if (const std::string field = first_difference(got, want); !field.empty())
        mismatches.push_back(label + " addr " + std::to_string(view.addr()) +
                             ": " + field);
    }
  }
};

/// One pure read, chosen by `rng`, rewritten to the value `pick()`
/// returns; nullopt without a pure read.
template <typename Pick>
std::optional<Execution> with_read_rewritten(const Execution& exec,
                                             Xoshiro256ss& rng, Pick pick) {
  std::vector<OpRef> reads;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p)
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i)
      if (exec.op({p, i}).kind == OpKind::kRead) reads.push_back({p, i});
  if (reads.empty()) return std::nullopt;
  const OpRef target = reads[rng.below(reads.size())];
  ExecutionBuilder builder;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    std::vector<Operation> ops = exec.history(p).ops();
    if (p == target.process) ops[target.index].value_read = pick();
    builder.process_ops(std::move(ops));
  }
  for (const auto& [addr, value] : exec.initial_values())
    builder.initial(addr, value);
  for (const auto& [addr, value] : exec.final_values())
    builder.final_value(addr, value);
  return builder.build();
}

/// One pure read rewritten to a value no write produces (the
/// `unwritten-read` shape), chosen by `rng`; nullopt without a pure read.
std::optional<Execution> with_fabricated_read(const Execution& exec,
                                              Xoshiro256ss& rng) {
  return with_read_rewritten(exec, rng, [&rng] {
    return -1 - static_cast<Value>(rng.below(1000));
  });
}

/// bench_saturate's forced-order zip: P1 pins every P0 write between two
/// of its own.
Execution zip_trace(std::size_t rungs) {
  std::vector<Operation> p0, p1;
  for (std::size_t k = 1; k <= rungs; ++k) {
    p0.push_back(W(0, static_cast<Value>(2 * k - 1)));
    p1.push_back(R(0, static_cast<Value>(2 * k - 1)));
    p1.push_back(W(0, static_cast<Value>(2 * k)));
  }
  p1.push_back(W(0, static_cast<Value>(2 * rungs)));
  return ExecutionBuilder()
      .process_ops(std::move(p0))
      .process_ops(std::move(p1))
      .final_value(0, static_cast<Value>(2 * rungs))
      .build();
}

/// bench_saturate's chain: history h ends reading history h-1's middle
/// value.
Execution chain_trace(std::size_t histories, std::size_t writes) {
  ExecutionBuilder builder;
  const auto value_of = [&](std::size_t h, std::size_t i) {
    return static_cast<Value>(h * writes + i + 1);
  };
  for (std::size_t h = 0; h < histories; ++h) {
    std::vector<Operation> ops;
    for (std::size_t i = 0; i < writes; ++i) ops.push_back(W(0, value_of(h, i)));
    if (h > 0) ops.push_back(R(0, value_of(h - 1, writes / 2)));
    builder.process_ops(std::move(ops));
  }
  builder.final_value(0, value_of(0, writes - 1));
  return builder.build();
}

/// Calls `visit(exec, label)` on every shape SaturateReference.MatchesParent
/// checks; returns how many committed text traces it visited.
template <typename Visit>
std::size_t for_each_reference_shape(Visit&& visit) {
  // The contended_exact shape (4 x 48 ops, 3 addresses, 2 values) and
  // the fleet_text shapes, each with a fabricated read in every fourth
  // trace.
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    workload::MultiAddressParams params;
    if (seed % 2 == 0) {
      params.num_processes = 4;
      params.ops_per_process = 48;
      params.num_addresses = 3;
      params.num_values = 2;
    } else {
      params.num_processes = static_cast<std::size_t>(rng.range(2, 4));
      params.ops_per_process = static_cast<std::size_t>(rng.range(32, 80));
      params.num_addresses = static_cast<std::size_t>(rng.range(4, 8));
      params.num_values = seed % 3 == 0 ? 0 : 6;
    }
    const auto trace = workload::generate_sc(params, rng);
    const std::string label = "sc seed " + std::to_string(seed);
    visit(trace.execution, label);
    if (seed % 4 < 2)
      if (auto faulty = with_fabricated_read(trace.execution, rng))
        visit(*faulty, label + " fabricated");
  }

  // Single-address coherent traces (4 x 10 ops, 3 values; every tenth
  // 6 x 60 ops with 8 values, so the rows span several 64-bit words),
  // plus each injectable fault so cycles and pruned-empty reads show up.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Xoshiro256ss rng(seed * 0xd1342543de82ef95ull);
    const bool wide = seed % 10 == 0;
    workload::SingleAddressParams params;
    params.num_histories = wide ? 6 : 4;
    params.ops_per_history = wide ? 60 : 10;
    params.num_values = wide ? 8 : 3;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    const std::string label = "coherent seed " + std::to_string(seed);
    visit(trace.execution, label);
    for (int f = 0; f < 4; ++f) {
      const auto fault = static_cast<workload::Fault>(f);
      if (auto faulty = workload::inject_fault(trace, fault, rng))
        visit(*faulty, label + " " + workload::to_string(fault));
    }
  }

  // Uniformly random operations on one address (coherent or not): most
  // cycles, transient ones included, come from here.
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Xoshiro256ss rng(seed * 0xbf58476d1ce4e5b9ull);
    ExecutionBuilder builder;
    const auto histories = rng.range(2, 5);
    for (std::int64_t h = 0; h < histories; ++h) {
      std::vector<Operation> ops;
      const auto length = rng.range(2, 8);
      for (std::int64_t i = 0; i < length; ++i) {
        const auto value = static_cast<Value>(rng.range(0, 3));
        switch (rng.below(5)) {
          case 0: case 1: ops.push_back(W(0, value)); break;
          case 2: ops.push_back(RW(0, value, static_cast<Value>(rng.range(0, 3)))); break;
          default: ops.push_back(R(0, value)); break;
        }
      }
      builder.process_ops(std::move(ops));
    }
    if (rng.chance(0.5))
      builder.final_value(0, static_cast<Value>(rng.range(0, 3)));
    visit(builder.build(), "random seed " + std::to_string(seed));
  }

  for (const std::size_t rungs : {32u, 64u, 128u, 256u, 512u, 1024u})
    visit(zip_trace(rungs), "zip " + std::to_string(rungs));
  visit(chain_trace(2, 12), "chain k2 w12");
  visit(chain_trace(3, 8), "chain k3 w8");
  visit(chain_trace(3, 12), "chain k3 w12");

  // The transient-cycle fixture of SccCondensationCollapsesTransientCycle.
  visit(ExecutionBuilder()
            .process(W(0, 1), R(0, 2))
            .process(W(0, 2), R(0, 1), R(0, 3))
            .process(W(0, 3))
            .process(W(0, 3))
            .build(),
        "transient cycle");

  // Every address of the committed text traces (write-order lines are
  // the log, not part of the execution).
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(VERMEM_TRACES_DIR)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path());
    std::string text, line;
    while (std::getline(in, line))
      if (line.rfind("wo ", 0) != 0) text += line + "\n";
    const ParseResult parsed = parse_execution(text);
    EXPECT_TRUE(parsed.ok()) << entry.path() << ": " << parsed.error;
    if (!parsed.ok()) continue;
    visit(parsed.execution, entry.path().filename().string());
    ++files;
  }
  return files;
}

TEST(SaturateReference, MatchesParent) {
  Differential diff;
  const std::size_t files = for_each_reference_shape(
      [&](const Execution& exec, const std::string& label) {
        diff.check(exec, label);
      });
  EXPECT_GE(files, 6u);

  EXPECT_TRUE(diff.mismatches.empty())
      << diff.mismatches.size() << " mismatches, first: "
      << diff.mismatches.front();
  // The reference's DFS budget (and round cap) never bound, so its
  // results are the complete closure the rows must reproduce.
  EXPECT_EQ(diff.reference_budget_hits, 0u);
  // Every outcome is exercised, and R2 queries ran.
  for (const std::size_t count : diff.statuses) EXPECT_GT(count, 0u);
  EXPECT_GT(diff.with_queries, 0u);
}

// --- inertness: when the router may skip the pass -------------------------

/// Checks saturate::inert on every address of an execution: whenever it
/// holds, the full pass must return kPartial with same-history edges only,
/// and the exact search must not notice that oracle (verdict, witness,
/// evidence and every SearchStats field equal the unpruned run's).
/// classify's folded copy must agree on the fragments that reach the tier.
struct InertCheck {
  static constexpr std::uint64_t kStates = 4096;
  std::size_t addresses = 0;
  std::size_t inert = 0;
  std::vector<std::string> failures;

  void check(const Execution& exec, const std::string& label) {
    const AddressIndex index(exec);
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const ProjectedView view = index.view_at(i);
      const std::string where = label + " addr " + std::to_string(view.addr());
      ++addresses;
      const bool skip = saturate::inert(view);
      const analysis::FragmentProfile profile = analysis::classify(view);
      if (!analysis::is_polynomial(profile.fragment) &&
          profile.saturation_inert != skip)
        failures.push_back(where + ": classify disagrees");
      if (!skip) continue;
      ++inert;
      const saturate::Result sat = saturate::saturate(view);
      if (sat.status != Status::kPartial) {
        failures.push_back(where + ": status " + saturate::to_string(sat.status));
        continue;
      }
      for (const auto& [a, b] : sat.edges)
        if (sat.writes_local[a].process != sat.writes_local[b].process)
          failures.push_back(where + ": cross-history edge");
      const vmc::VmcInstance instance{view.materialize(), view.addr()};
      const vmc::MustPrecede oracle = oracle_for(sat, instance);
      // Both runs share a state budget: a search it stops must stop at
      // the same point, and wide addresses stay cheap.
      vmc::ExactOptions unpruned;
      unpruned.max_states = kStates;
      vmc::ExactOptions with_oracle = unpruned;
      with_oracle.pruner = &oracle;
      const vmc::CheckResult plain = vmc::check_exact(instance, unpruned);
      const vmc::CheckResult pruned = vmc::check_exact(instance, with_oracle);
      if (plain.verdict != pruned.verdict || plain.witness != pruned.witness ||
          plain.reason() != pruned.reason() || !(plain.stats == pruned.stats))
        failures.push_back(where + ": the oracle changed the search");
    }
  }
};

TEST(Saturate, InertAddressesDeriveOnlyProgramOrder) {
  InertCheck inert;
  const auto visit = [&](const Execution& exec, const std::string& label) {
    inert.check(exec, label);
  };
  for_each_reference_shape(visit);

  // Read-mutated contended traces: one read moved to another value of
  // the domain, so reads change their candidate counts at random.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Xoshiro256ss rng(seed * 0x94d049bb133111ebull);
    workload::MultiAddressParams params;
    params.num_processes = 4;
    params.ops_per_process = 12;
    params.num_addresses = 2;
    params.num_values = 3;
    params.rmw_fraction = seed % 3 == 0 ? 0.3 : 0.0;
    params.record_final_values = seed % 2 == 0;
    const auto trace = workload::generate_sc(params, rng);
    const auto pick = [&rng] { return static_cast<Value>(rng.range(0, 3)); };
    if (auto mutated = with_read_rewritten(trace.execution, rng, pick))
      visit(*mutated, "mutated seed " + std::to_string(seed));
  }

  // One fixture per clause: each satisfies the other two clauses, and
  // the pass derives more than program order, so deleting the clause
  // from inert() fails the checks above.
  // (a) one writing history: a single write is a forced total order.
  visit(ExecutionBuilder().process(W(0, 1)).process(R(0, 0)).build(),
        "clause a: one writing history");
  // (b) a unique final writer is pinned after every other history.
  visit(ExecutionBuilder()
            .process(W(0, 1))
            .process(W(0, 2))
            .final_value(0, 2)
            .build(),
        "clause b: unique final writer");
  // (c) one candidate in another history: R1 pins W(2) -> W(1).
  visit(ExecutionBuilder()
            .process(W(0, 1))
            .process(W(0, 2), R(0, 1))
            .build(),
        "clause c: one cross-history candidate");

  EXPECT_TRUE(inert.failures.empty())
      << inert.failures.size() << " failures, first: " << inert.failures.front();
  // Both answers occur in the mix.
  EXPECT_GT(inert.inert, 0u);
  EXPECT_LT(inert.inert, inert.addresses);
}

// --- the exact tier's two entry points ------------------------------------

/// The reductions StagedPortfolio uses: a seeded random 3-SAT formula
/// over three variables, one address that saturation leaves to the
/// exact tier.
Execution reduction_trace(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto cnf = sat::random_ksat(3, 12, 3, rng);
  return reductions::sat_to_vmc(cnf).instance.execution;
}

/// Every address of an execution through check_exact's view overload and
/// its VmcInstance overload, with and without the saturation pass's edges
/// as a pruner, under a generous and a 64-state budget. A third run pads
/// the instance with an empty history in front, which the adapter's view
/// drops, so its renumbering of the pruner and of the witness shows.
/// Verdict, witness, evidence and every SearchStats field but the three
/// arena ones must agree (the padded key is one word wider).
struct OverloadCheck {
  static constexpr std::uint64_t kStates = 1u << 15;
  static constexpr std::uint64_t kFewStates = 64;
  std::size_t runs = 0;
  std::size_t unknown = 0;
  std::size_t oracle_pruned = 0;
  std::vector<std::string> failures;

  static vmc::SearchStats without_arena(vmc::SearchStats stats) {
    stats.arena_reserved = stats.arena_high_water = stats.arena_allocations = 0;
    return stats;
  }

  void compare(const vmc::CheckResult& got, const vmc::CheckResult& want,
               const std::string& where) {
    if (got.verdict != want.verdict || got.witness != want.witness ||
        got.reason() != want.reason() ||
        !(without_arena(got.stats) == without_arena(want.stats)))
      failures.push_back(where);
  }

  void check(const Execution& exec, const std::string& label) {
    const AddressIndex index(exec);
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const ProjectedView view = index.view_at(i);
      const ValueTable values(view);
      const vmc::VmcInstance instance{view.materialize(), view.addr()};
      vmc::VmcInstance padded{Execution{}, view.addr()};
      padded.execution.add_history(ProcessHistory{});
      for (const auto& history : instance.execution.histories())
        padded.execution.add_history(history);
      padded.execution.set_initial_value(view.addr(), view.initial_value());
      if (const auto fin = view.final_value())
        padded.execution.set_final_value(view.addr(), *fin);

      const saturate::Result sat = saturate::saturate(view);
      const vmc::MustPrecede oracle = oracle_for(sat, instance);
      saturate::Result shifted = sat;
      for (OpRef& ref : shifted.writes_local) ++ref.process;
      const vmc::MustPrecede padded_oracle = oracle_for(shifted, padded);

      for (const bool prune : {false, true}) {
        for (const std::uint64_t states : {kStates, kFewStates}) {
          const std::string where = label + " addr " +
                                    std::to_string(view.addr()) +
                                    (prune ? " pruned" : "") + " budget " +
                                    std::to_string(states);
          vmc::ExactOptions options;
          options.max_states = states;
          options.pruner = prune ? &oracle : nullptr;
          const vmc::CheckResult via_view =
              vmc::check_exact(view, values, options);
          compare(vmc::check_exact(instance, options), via_view, where);
          options.pruner = prune ? &padded_oracle : nullptr;
          vmc::CheckResult via_padded = vmc::check_exact(padded, options);
          for (OpRef& ref : via_padded.witness) --ref.process;
          compare(via_padded, via_view, where + " padded");
          ++runs;
          if (via_view.verdict == vmc::Verdict::kUnknown) ++unknown;
          if (via_view.stats.oracle_prunes > 0) ++oracle_pruned;
        }
      }
    }
  }
};

TEST(ExactOverloads, ViewAndInstanceEntryPointsAgree) {
  OverloadCheck check;
  for_each_reference_shape([&](const Execution& exec, const std::string& label) {
    check.check(exec, label);
  });
  for (const std::uint64_t seed : {1u, 3u, 5u, 16u})
    check.check(reduction_trace(seed), "reduction seed " + std::to_string(seed));
  EXPECT_TRUE(check.failures.empty())
      << check.failures.size() << " mismatches, first: "
      << check.failures.front();
  // Budgets bind on some runs and the oracle prunes on some.
  EXPECT_GT(check.unknown, 0u);
  EXPECT_LT(check.unknown, check.runs);
  EXPECT_GT(check.oracle_pruned, 0u);
}

// --- check_read_map: the view decider and its instance adapter ------------

std::uint64_t fold(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return (h ^ 0x100) * 0x100000001b3ULL;
}

TEST(ReadMapOverloads, ViewAndInstanceEntryPointsAgree) {
  // Every address of every reference shape: the view overload answers in
  // view coordinates, the instance overload in the instance's, which for
  // a materialized view are the same, and for an instance with a leading
  // empty history are shifted by one. The instance overload's answers are
  // also folded into a digest pinned from the hash-grouping decider the
  // view overload replaced.
  std::vector<std::string> failures;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t outcomes[3] = {0, 0, 0};
  std::size_t not_applicable = 0;
  const auto compare = [&](const vmc::CheckResult& got,
                           const vmc::CheckResult& want,
                           const std::string& where) {
    if (got.verdict != want.verdict || got.witness != want.witness ||
        got.reason() != want.reason())
      failures.push_back(where);
  };
  for_each_reference_shape([&](const Execution& exec, const std::string& label) {
    const AddressIndex index(exec);
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const ProjectedView view = index.view_at(i);
      const vmc::VmcInstance instance{view.materialize(), view.addr()};
      vmc::VmcInstance padded{Execution{}, view.addr()};
      padded.execution.add_history(ProcessHistory{});
      for (const auto& history : instance.execution.histories())
        padded.execution.add_history(history);
      padded.execution.set_initial_value(view.addr(), view.initial_value());
      if (const auto fin = view.final_value())
        padded.execution.set_final_value(view.addr(), *fin);

      const std::string where = label + " addr " + std::to_string(view.addr());
      const vmc::CheckResult via_view = vmc::check_read_map(view, ValueTable(view));
      const vmc::CheckResult via_instance = vmc::check_read_map(instance);
      compare(via_instance, via_view, where);
      vmc::CheckResult via_padded = vmc::check_read_map(padded);
      for (OpRef& ref : via_padded.witness) --ref.process;
      certify::for_each_ref(via_padded.evidence, [](OpRef& ref) { --ref.process; });
      compare(via_padded, via_view, where + " padded");

      ++outcomes[static_cast<std::size_t>(via_instance.verdict)];
      const certify::Unknown* why = via_instance.unknown_reason();
      if (why != nullptr && why->reason == certify::UnknownReason::kNotApplicable)
        ++not_applicable;
      digest = fold(digest, vmc::to_string(via_instance.verdict));
      digest = fold(digest, via_instance.reason());
      for (const OpRef ref : via_instance.witness)
        digest = fold(digest, std::to_string(ref.process) + ":" +
                                  std::to_string(ref.index));
    }
  });
  EXPECT_TRUE(failures.empty()) << failures.size() << " mismatches, first: "
                                << failures.front();
  // The shapes reach every outcome, and the read map applies to many.
  EXPECT_GT(outcomes[static_cast<std::size_t>(vmc::Verdict::kCoherent)], 100u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(vmc::Verdict::kIncoherent)], 20u);
  EXPECT_GT(not_applicable, 100u);
  EXPECT_EQ(digest, 0x88dbc2a7bde7bec6ULL) << std::hex << "digest 0x" << digest << std::dec
                            << " (" << outcomes[0] << " coherent, "
                            << outcomes[1] << " incoherent, " << outcomes[2]
                            << " unknown)";
}

// --- analyze() on top of routing ------------------------------------------

bool same_diagnostics(const analysis::AddressAnalysis& a,
                      const analysis::AddressAnalysis& b) {
  if (a.diagnostics.size() != b.diagnostics.size()) return false;
  for (std::size_t d = 0; d < a.diagnostics.size(); ++d) {
    const analysis::Diagnostic& x = a.diagnostics[d];
    const analysis::Diagnostic& y = b.diagnostics[d];
    if (x.rule != y.rule || x.severity != y.severity || x.addr != y.addr ||
        x.location != y.location || x.message != y.message)
      return false;
  }
  return a.profile.summary() == b.profile.summary() &&
         a.saturation.has_value() == b.saturation.has_value();
}

TEST(AnalyzeReuse, TakesProfilesAndSaturationFromRouting) {
  // analyze() handed routing's facts reports exactly what it reports
  // alone. Where routing ran the pass, the result analyze lints with is
  // routing's: a marker planted in it reaches W005's message, which a
  // recomputed pass would not carry. Inert addresses, which routing
  // never saturates, still get the pass from analyze itself.
  constexpr std::uint64_t kMarker = 987654321;
  std::size_t reused = 0, ran_itself = 0;
  search::Limits limits;
  limits.max_states = 4096;
  for_each_reference_shape([&](const Execution& exec, const std::string& label) {
    const AddressIndex index(exec);
    const analysis::AnalysisReport alone = analysis::analyze(index);
    analysis::RoutedReport routed =
        analysis::verify_coherence_routed(index, nullptr, limits);
    auto facts = routed.facts;
    const analysis::AnalysisReport shared =
        analysis::analyze(index, nullptr, facts);
    ASSERT_EQ(shared.addresses.size(), alone.addresses.size()) << label;
    std::vector<std::size_t> planted;
    for (std::size_t i = 0; i < alone.addresses.size(); ++i) {
      EXPECT_TRUE(same_diagnostics(shared.addresses[i], alone.addresses[i]))
          << label << " address " << i;
      if (!alone.addresses[i].saturation) continue;
      auto& fact = routed.facts[i];
      if (!fact || !fact->saturation) {
        ++ran_itself;
        continue;
      }
      fact->saturation->branch_points = kMarker;
      fact->saturation->unordered_example = {0, 1};
      planted.push_back(i);
    }
    if (planted.empty()) return;
    const analysis::AnalysisReport marked =
        analysis::analyze(index, nullptr, routed.facts);
    for (const std::size_t i : planted) {
      bool found = false;
      for (const analysis::Diagnostic& d : marked.addresses[i].diagnostics)
        found = found || (d.rule == RuleId::kUnorderedWritePair &&
                          d.message.find(std::to_string(kMarker)) !=
                              std::string::npos);
      EXPECT_TRUE(found) << label << " address " << i
                         << ": analyze recomputed what routing saturated";
      ++reused;
    }
  });
  EXPECT_GT(reused, 0u);
  EXPECT_GT(ran_itself, 0u);
}

}  // namespace
