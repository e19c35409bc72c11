// Tests for the coherence-order saturation tier: the constraint-graph
// engine itself (cycle / forced-total / partial / contradiction
// outcomes), the typed certificates it produces through the router and
// their independent re-checking, the must-precede pruning oracle's
// bit-identical-search guarantee, the CNF order hints, and the
// graph-derived lint rules W005/W006 plus the W002 final-section
// regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/router.hpp"
#include "analysis/saturate/core.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "sat/solver.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
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
  // runs on the SCC condensation built AFTER the cycle-closing pin, so
  // the four writes collapse to three components: {W(0,1), W(0,2)} as
  // one cluster plus the two W(0,3) singletons. The post-round cycle
  // check still refutes the address.
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
  ASSERT_GE(result.scc_builds, 1u);
  EXPECT_EQ(result.scc_components, 3u);
}

TEST(Saturate, SccCondensationTrivialOnAcyclicGraph) {
  // Same query shape without the cycle: every write is its own
  // component, so the condensation is the graph itself and R2 pruning
  // behaves exactly as the raw walk did.
  const Execution exec = ExecutionBuilder()
                             .process(W(0, 1), R(0, 2), W(0, 3))
                             .process(W(0, 2))
                             .process(W(0, 3))
                             .process(W(0, 5), R(0, 3))
                             .build();
  const auto result = saturate_addr(exec, 0);
  ASSERT_EQ(result.status, Status::kPartial);
  ASSERT_GE(result.scc_builds, 1u);
  EXPECT_EQ(result.scc_components, result.num_writes());
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
          vmc::check_exact(vmc::VmcInstance{projection.execution, addr});
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
      const vmc::VmcInstance instance{projection.execution,
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
      const vmc::VmcInstance instance{projection.execution,
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

}  // namespace
