// Differential fuzzing across every VMC decision procedure in the
// repository. For a large battery of seeded random instances — coherent
// by construction, mutated, and adversarial (reduction-generated) — all
// applicable checkers must return identical verdicts, and every witness
// must certify. This is the suite that makes a silent divergence between
// two implementations practically impossible to ship.

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "encode/naive.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/gen.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/bounded.hpp"
#include "vmc/exact.hpp"
#include "vmc/online.hpp"
#include "vmc/write_order.hpp"
#include "vsc/exact.hpp"
#include "vsc/vscc.hpp"
#include "workload/random.hpp"

namespace vermem {
namespace {

using vmc::Verdict;
using vmc::VmcInstance;
using workload::Fault;

struct Verdicts {
  std::string checker;
  vmc::CheckResult result;
};

/// The production dispatcher (fragment routing, saturation, pruned exact
/// search) on the instance's address; an untouched address is vacuous.
vmc::CheckResult routed(const VmcInstance& instance) {
  const AddressIndex index(instance.execution);
  for (std::size_t i = 0; i < index.num_addresses(); ++i)
    if (index.entry(i).addr == instance.addr)
      return analysis::check_routed(index.view_at(i), nullptr).result;
  return vmc::CheckResult::yes({});
}

/// Runs every total checker on the instance; returns the list. The
/// unpruned frontier search comes first and is the reference.
std::vector<Verdicts> run_all(const VmcInstance& instance) {
  std::vector<Verdicts> all;
  all.push_back({"exact-dfs", vmc::check_exact(instance)});
  all.push_back({"bounded-k-bfs", vmc::check_bounded_k(instance)});
  all.push_back({"sat-production", encode::check_via_sat(instance)});
  all.push_back({"sat-naive", encode::check_via_sat_naive(instance)});
  all.push_back({"router", routed(instance)});
  return all;
}

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSweep, AllCheckersAgreeOnSeededBattery) {
  Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(4);
    params.ops_per_history = 1 + rng.below(6);
    params.num_values = 1 + rng.below(5);
    params.write_fraction = 0.2 + rng.uniform01() * 0.6;
    params.rmw_fraction = rng.uniform01() * 0.6;
    params.record_final_value = rng.chance(0.7);
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<std::pair<std::string, Execution>> cases;
    cases.emplace_back("clean", trace.execution);
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.emplace_back(to_string(f), std::move(*faulted));
    }

    for (const auto& [label, exec] : cases) {
      const VmcInstance instance{exec, 0};
      const auto verdicts = run_all(instance);
      const Verdict expected = verdicts.front().result.verdict;
      ASSERT_NE(expected, Verdict::kUnknown);
      for (const auto& [checker, result] : verdicts) {
        EXPECT_EQ(result.verdict, expected)
            << checker << " diverges on " << label << " (seed " << GetParam()
            << " trial " << trial << "): " << result.reason();
        if (result.verdict == Verdict::kCoherent) {
          const auto valid = check_coherent_schedule(exec, 0, result.witness);
          EXPECT_TRUE(valid.ok) << checker << ": " << valid.violation;
        }
      }

      // The write-order path must be sound w.r.t. the consensus verdict:
      // if it accepts the generating order, the instance is coherent.
      if (label == "clean") {
        const auto with_order =
            vmc::check_with_write_order(instance, trace.write_order);
        EXPECT_EQ(with_order.verdict, Verdict::kCoherent) << with_order.reason();
      }

      // The online checker on the generating stream must agree with the
      // batch write-order checker fed the same serialization.
      if (exec == trace.execution) {
        vmc::OnlineCoherenceChecker online(
            static_cast<std::uint32_t>(exec.num_processes()),
            {exec.initial_values().begin(), exec.initial_values().end()});
        for (const OpRef ref : trace.witness)
          if (!online.observe(ref.process, exec.op(ref))) break;
        if (online.ok()) online.finish(exec.final_values());
        EXPECT_TRUE(online.ok())
            << "online rejected a clean stream: " << online.violation()->reason;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, DifferentialSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

TEST(DifferentialReductions, AllCheckersAgreeOnAdversarialInstances) {
  // Reduction-generated instances are the adversarial family: tiny
  // formulas keep the exact searches feasible while still exercising the
  // gadget structure.
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    const auto cnf = sat::random_ksat(3, 1 + rng.below(4), 3, rng);
    const auto red = reductions::sat_to_vmc(cnf);
    const auto verdicts = run_all(red.instance);
    const Verdict expected = verdicts.front().result.verdict;
    for (const auto& [checker, result] : verdicts) {
      EXPECT_EQ(result.verdict, expected) << checker;
    }
  }
}

// ---- Multi-address differential: SC deciders ------------------------------

/// Flips one random read's observed value to a random other value present
/// in the trace (may or may not break SC).
std::optional<Execution> flip_read(const workload::GeneratedMultiTrace& trace,
                                   Xoshiro256ss& rng) {
  std::vector<OpRef> reads;
  std::vector<Value> values{0};
  for (std::uint32_t p = 0; p < trace.execution.num_processes(); ++p) {
    for (std::uint32_t i = 0; i < trace.execution.history(p).size(); ++i) {
      const Operation& op = trace.execution.history(p)[i];
      if (op.kind == OpKind::kRead) reads.push_back(OpRef{p, i});
      if (op.writes_memory()) values.push_back(op.value_written);
    }
  }
  if (reads.empty()) return std::nullopt;
  const OpRef target = reads[rng.below(reads.size())];
  const Value new_value = values[rng.below(values.size())];

  std::vector<ProcessHistory> histories;
  for (std::uint32_t p = 0; p < trace.execution.num_processes(); ++p) {
    auto ops = trace.execution.history(p).ops();
    if (p == target.process) ops[target.index].value_read = new_value;
    histories.emplace_back(std::move(ops));
  }
  Execution out{std::move(histories)};
  for (const auto& [a, v] : trace.execution.initial_values())
    out.set_initial_value(a, v);
  for (const auto& [a, v] : trace.execution.final_values())
    out.set_final_value(a, v);
  return out;
}

class ScDifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScDifferentialSweep, ScDecidersAgree) {
  Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(5);
    params.num_addresses = 1 + rng.below(3);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_sc(params, rng);

    std::vector<Execution> cases{trace.execution};
    if (auto flipped = flip_read(trace, rng)) cases.push_back(std::move(*flipped));

    for (const Execution& exec : cases) {
      const auto exact = vsc::check_sc_exact(exec);
      const auto via_sat = encode::check_sc_via_sat(exec);
      ASSERT_NE(exact.verdict, vmc::Verdict::kUnknown);
      ASSERT_NE(via_sat.verdict, vmc::Verdict::kUnknown) << via_sat.reason();
      EXPECT_EQ(via_sat.verdict, exact.verdict) << via_sat.reason();
      if (via_sat.verdict == vmc::Verdict::kCoherent) {
        const auto valid = check_sc_schedule(exec, via_sat.witness);
        EXPECT_TRUE(valid.ok) << valid.violation;
      }
      // VSCC must agree with exact SC whenever coherence is decidable.
      const auto pipeline = vsc::check_vscc(exec);
      if (pipeline.sc.verdict != vmc::Verdict::kUnknown) {
        EXPECT_EQ(pipeline.sc.verdict, exact.verdict) << pipeline.sc.reason();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, ScDifferentialSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- AddressIndex vs legacy projection -----------------------------------

/// The single-pass index must reproduce Execution::project() *exactly* —
/// histories, origin refs, initial and final values — on randomized
/// workloads, or every consumer rewired onto it silently diverges.
class ProjectionDifferentialSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProjectionDifferentialSweep, IndexMatchesLegacyProject) {
  Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 1 + rng.below(6);
    params.ops_per_process = 1 + rng.below(40);
    params.num_addresses = 1 + rng.below(12);
    params.num_values = 2 + rng.below(6);
    params.rmw_fraction = rng.chance(0.3) ? 0.5 : 0.0;
    params.record_final_values = rng.chance(0.5);
    const auto trace = workload::generate_sc(params, rng);
    const Execution& exec = trace.execution;

    const AddressIndex index(exec);
    const auto legacy_addrs = exec.addresses();
    ASSERT_EQ(std::vector<Addr>(index.addresses().begin(),
                                index.addresses().end()),
              legacy_addrs);

    for (const Addr addr : legacy_addrs) {
      const auto legacy = exec.project(addr);
      const ProjectedView view = index.view(addr);
      ASSERT_EQ(view.materialize(), legacy.execution) << "addr " << addr;

      // Stats agree with the materialized instance, and the coordinate
      // maps round-trip for every projected operation: original_of
      // matches the projection's origin table entry for entry.
      EXPECT_EQ(view.num_ops(), legacy.execution.num_operations());
      EXPECT_EQ(view.num_histories(), legacy.execution.num_processes());
      std::size_t writes = 0;
      bool rmw_only = true;
      for (std::uint32_t h = 0; h < legacy.origin.size(); ++h) {
        for (std::uint32_t i = 0; i < legacy.origin[h].size(); ++i) {
          const OpRef original = legacy.origin[h][i];
          const auto projected = view.projected_of(original);
          ASSERT_TRUE(projected.has_value());
          EXPECT_EQ(*projected, (OpRef{h, i}));
          EXPECT_EQ(view.original_of(*projected), original);
          const Operation& op = exec.op(original);
          writes += op.writes_memory();
          rmw_only &= op.kind == OpKind::kRmw;
        }
      }
      EXPECT_EQ(view.stats().write_count, writes);
      EXPECT_EQ(view.stats().rmw_only, rmw_only);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, ProjectionDifferentialSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace vermem
