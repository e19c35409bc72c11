// Tests for the consistency-model checkers: the litmus suite pins the
// operational semantics to community expectations, monotonicity relates
// the models, and the single-location restriction realizes the paper's
// Section 6.2 argument in code.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/router.hpp"
#include "models/checker.hpp"
#include "models/litmus.hpp"
#include "models/lrc.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "reductions/sync_wrap.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "trace/address_index.hpp"
#include "vmc/checker.hpp"
#include "workload/random.hpp"

namespace vermem::models {
namespace {

using vmc::Verdict;

/// A TSO/PSO witness is the issue order of the program operations: every
/// operation appears exactly once, each process's in program order.
void expect_valid_issue_order(const Execution& exec, const Schedule& witness) {
  std::vector<std::uint32_t> next(exec.num_processes(), 0);
  for (const OpRef ref : witness) {
    ASSERT_LT(ref.process, exec.num_processes());
    ASSERT_EQ(ref.index, next[ref.process])
        << "P" << ref.process << " issued out of program order";
    ++next[ref.process];
  }
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p)
    EXPECT_EQ(next[p], exec.history(p).size()) << "P" << p << " not fully issued";
}

class LitmusSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LitmusSuite, MatchesExpectedAdmissibility) {
  const auto suite = standard_litmus_suite();
  const LitmusTest& test = suite[GetParam()];
  for (const Model m : kAllModels) {
    const auto result = check_model(test.execution, m);
    ASSERT_NE(result.verdict, Verdict::kUnknown)
        << test.name << " under " << to_string(m) << ": " << result.reason();
    EXPECT_EQ(result.verdict == Verdict::kCoherent, test.allowed_under(m))
        << test.name << " under " << to_string(m);
    if ((m == Model::kTso || m == Model::kPso) && result.coherent())
      expect_valid_issue_order(test.execution, result.witness);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Standard, LitmusSuite,
    ::testing::Range<std::size_t>(0, standard_litmus_suite().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      std::string name = standard_litmus_suite()[param_info.param].name;
      for (char& c : name)
        if (c == '+' || c == '-') c = '_';
      return name;
    });

TEST(ModelHierarchy, AcceptanceIsMonotoneOnLitmusSuite) {
  // SC-admissible => TSO-admissible => PSO-admissible => coherent.
  for (const auto& test : standard_litmus_suite()) {
    bool weaker_must_accept = false;
    for (const Model m : kAllModels) {
      if (weaker_must_accept) {
        EXPECT_TRUE(test.allowed_under(m))
            << test.name << ": hierarchy broken at " << to_string(m);
      }
      weaker_must_accept |= test.allowed_under(m);
    }
  }
}

TEST(ModelHierarchy, MonotoneOnRandomScTraces) {
  // Anything generated by an SC interleaving must pass every model.
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(5);
    params.num_addresses = 2;
    const auto trace = workload::generate_sc(params, rng);
    for (const Model m : kAllModels) {
      const auto result = check_model(trace.execution, m);
      EXPECT_EQ(result.verdict, Verdict::kCoherent)
          << to_string(m) << ": " << result.reason();
    }
  }
}

TEST(Restriction, SingleLocationReducesToCoherence) {
  // Section 6.2: on one shared location every hardware model collapses to
  // memory coherence. Verify all four checkers agree with the coherence
  // verdict on random single-address traces (including faulted ones).
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(2);
    params.ops_per_history = 2 + rng.below(4);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const workload::Fault f :
         {workload::Fault::kStaleRead, workload::Fault::kFabricatedRead}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const auto coherent =
          check_model(exec, Model::kCoherenceOnly).verdict == Verdict::kCoherent;
      for (const Model m : kAllModels) {
        const auto result = check_model(exec, m);
        ASSERT_NE(result.verdict, Verdict::kUnknown) << result.reason();
        EXPECT_EQ(result.verdict == Verdict::kCoherent, coherent)
            << to_string(m) << " diverges from coherence on one location";
      }
    }
  }
}

TEST(ModelCheck, FinalOnUntouchedAddressIsChecked) {
  // Address 7 has a recorded final value but no operation: it keeps its
  // initial value, so every operational model rejects a different final.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(R(0, 1))
                        .final_value(7, 3)
                        .build();
  for (const Model m : {Model::kSc, Model::kTso, Model::kPso})
    EXPECT_EQ(check_model(exec, m).verdict, Verdict::kIncoherent) << to_string(m);
  const auto kept = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(R(0, 1))
                        .final_value(7, 0)
                        .build();
  for (const Model m : {Model::kSc, Model::kTso, Model::kPso})
    EXPECT_EQ(check_model(kept, m).verdict, Verdict::kCoherent) << to_string(m);
}

TEST(Tso, ForwardingWorks) {
  // P0 forwards its own store while P1 still sees the old value; then the
  // store drains. Accepted by TSO (and, here, by SC too — the SC/TSO
  // separation with forwarding is the SB+fwd litmus above).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 1))
                        .process(R(0, 0), R(0, 1))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kTso).verdict, Verdict::kCoherent);
  EXPECT_EQ(check_model(exec, Model::kSc).verdict, Verdict::kCoherent);
}

TEST(Tso, BudgetYieldsUnknown) {
  Xoshiro256ss rng(13);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 8;
  const auto trace = workload::generate_sc(params, rng);
  ModelCheckOptions options;
  options.max_states = 1;
  EXPECT_EQ(check_model(trace.execution, Model::kTso, options).verdict,
            Verdict::kUnknown);
}

TEST(Pso, RmwActsAsFence) {
  // MP with an RMW between the stores: PSO must reject (the atomic
  // flushes the buffer, restoring order).
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), RW(2, 0, 1), W(1, 1))
                        .process(R(1, 1), R(0, 0))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kPso).verdict, Verdict::kIncoherent);
  // Without the RMW it is the plain MP shape, which PSO allows.
  const auto plain = ExecutionBuilder()
                         .process(W(0, 1), W(1, 1))
                         .process(R(1, 1), R(0, 0))
                         .build();
  EXPECT_EQ(check_model(plain, Model::kPso).verdict, Verdict::kCoherent);
}

TEST(Pso, SameAddressStoresStayOrdered) {
  // P0 writes 1 then 2 to x; P1 must never observe 2 then 1.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2))
                        .process(R(0, 2), R(0, 1))
                        .build();
  EXPECT_EQ(check_model(exec, Model::kPso).verdict, Verdict::kIncoherent);
}

TEST(CoherenceOnly, DeadlineKeepsReasonAndEffort) {
  // Coherence of this trace decides an UNSAT pigeonhole formula, so the
  // exact tier is still searching when the deadline fires: the verdict
  // must carry the address's own reason and the effort spent so far.
  const auto exec = reductions::sat_to_vmc(sat::pigeonhole(5)).instance.execution;
  ModelCheckOptions options;
  options.deadline = Deadline::after_ms(50);
  const auto result = check_model(exec, Model::kCoherenceOnly, options);
  ASSERT_EQ(result.verdict, Verdict::kUnknown);
  ASSERT_NE(result.unknown_reason(), nullptr);
  EXPECT_EQ(result.unknown_reason()->reason, certify::UnknownReason::kDeadline);
  EXPECT_GT(result.stats.states_visited, 0u);
}

TEST(CoherenceOnly, DefiniteVerdictsCarryTheRoutersEffort) {
  // Coherent and incoherent verdicts report the per-trace effort the
  // coherence router spent, not an empty SearchStats.
  Xoshiro256ss rng(17);
  std::uint64_t searched = 0;
  for (int trial = 0; trial < 8; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 4;
    params.ops_per_history = 6;
    params.num_values = 2;
    const auto trace = workload::generate_coherent(params, rng);
    std::vector<Execution> cases{trace.execution};
    if (auto faulted =
            workload::inject_fault(trace, workload::Fault::kStaleRead, rng))
      cases.push_back(std::move(*faulted));
    for (const auto& exec : cases) {
      const auto result = check_model(exec, Model::kCoherenceOnly);
      ASSERT_NE(result.verdict, Verdict::kUnknown) << result.reason();
      const AddressIndex index(exec);
      const auto routed =
          analysis::verify_coherence_routed(index, nullptr, {}).report;
      EXPECT_EQ(result.stats.states_visited, routed.effort.states_visited);
      EXPECT_EQ(result.stats.transitions, routed.effort.transitions);
      EXPECT_EQ(result.stats.max_frontier, routed.effort.max_frontier);
      searched += result.stats.states_visited;
    }
  }
  EXPECT_GT(searched, 0u) << "no trial reached a frontier search";
}

// --- TSO/PSO golden table ---------------------------------------------------

/// Inputs of the TSO/PSO golden table: the litmus suite, 30 seeded SC
/// traces, and 30 seeded traces with one fault planted (the four fault
/// kinds in turn; a trace with no site for its fault is skipped).
std::vector<std::pair<std::string, Execution>> golden_inputs() {
  std::vector<std::pair<std::string, Execution>> inputs;
  for (auto& test : standard_litmus_suite())
    inputs.emplace_back("litmus/" + test.name, std::move(test.execution));
  Xoshiro256ss rng(71);
  const auto params = [&rng] {
    workload::MultiAddressParams p;
    p.num_processes = 2 + rng.below(3);
    p.ops_per_process = 2 + rng.below(4);
    p.num_addresses = 1 + rng.below(3);
    p.num_values = 2 + rng.below(2);
    return p;
  };
  for (int i = 0; i < 30; ++i)
    inputs.emplace_back("sc/" + std::to_string(i),
                        workload::generate_sc(params(), rng).execution);
  constexpr workload::Fault kFaults[] = {
      workload::Fault::kStaleRead, workload::Fault::kLostWrite,
      workload::Fault::kFabricatedRead, workload::Fault::kReorderedOps};
  for (int attempt = 0, made = 0; made < 30; ++attempt) {
    auto sc = workload::generate_sc(params(), rng);
    const workload::GeneratedTrace trace{std::move(sc.execution),
                                         std::move(sc.witness), {}};
    const workload::Fault fault = kFaults[attempt % 4];
    if (auto faulted = workload::inject_fault(trace, fault, rng))
      inputs.emplace_back("fault/" + std::to_string(made++) + "/" +
                              workload::to_string(fault),
                          std::move(*faulted));
  }
  return inputs;
}

struct GoldenRow {
  const char* input;
  Model model;
  Verdict verdict;
  const char* witness;
  std::uint64_t states_visited;
  std::uint64_t transitions;
  std::uint64_t max_frontier;
};

constexpr GoldenRow kGolden[] = {
#include "data/models_tso_pso_golden.inc"
};

std::string render(const Schedule& witness) {
  std::string out;
  for (const OpRef ref : witness) {
    if (!out.empty()) out += ' ';
    out += std::to_string(ref.process) + ":" + std::to_string(ref.index);
  }
  return out;
}

TEST(ModelGolden, TsoPsoMatchRecordedTable) {
  const auto inputs = golden_inputs();
  ASSERT_EQ(std::size(kGolden), 2 * inputs.size());
  std::size_t row = 0;
  for (const auto& [name, exec] : inputs) {
    for (const Model m : {Model::kTso, Model::kPso}) {
      const GoldenRow& want = kGolden[row++];
      ASSERT_EQ(name, want.input);
      ASSERT_EQ(m, want.model);
      const auto got = check_model(exec, m);
      EXPECT_EQ(got.verdict, want.verdict) << name << " " << to_string(m);
      EXPECT_EQ(render(got.witness), want.witness) << name << " " << to_string(m);
      EXPECT_EQ(got.stats.states_visited, want.states_visited)
          << name << " " << to_string(m);
      EXPECT_EQ(got.stats.transitions, want.transitions)
          << name << " " << to_string(m);
      EXPECT_EQ(got.stats.max_frontier, want.max_frontier)
          << name << " " << to_string(m);
      if (got.coherent()) expect_valid_issue_order(exec, got.witness);
    }
  }
}

// --- Lazy Release Consistency (Figure 6.1) --------------------------------

TEST(Lrc, ShapeDetection) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  EXPECT_FALSE(is_fully_wrapped(exec, 9));
  const auto wrapped = reductions::wrap_with_synchronization(exec, 9);
  EXPECT_TRUE(is_fully_wrapped(wrapped, 9));
  EXPECT_FALSE(is_fully_wrapped(wrapped, 8));  // wrong lock
  EXPECT_EQ(check_lrc_wrapped(exec, 9).verdict, vmc::Verdict::kUnknown);
}

TEST(Lrc, WrappedReductionTracksSatisfiability) {
  // The Figure 6.1 argument end to end: wrap the Figure 4.1 instance and
  // decide it under LRC; the verdict must equal the formula's
  // satisfiability.
  Xoshiro256ss rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cnf = sat::random_ksat(3, 1 + rng.below(6), 2 + rng.below(2), rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions::sat_to_vmc(cnf);
    const auto wrapped =
        reductions::wrap_with_synchronization(red.instance.execution, 999);
    const auto verdict = check_lrc_wrapped(wrapped, 999);
    ASSERT_NE(verdict.verdict, vmc::Verdict::kUnknown) << verdict.reason();
    EXPECT_EQ(verdict.verdict == vmc::Verdict::kCoherent, satisfiable);
  }
}

TEST(Lrc, MultiAddressWrappedTraces) {
  // LRC on wrapped traces equals per-address coherence of the stripped
  // execution.
  Xoshiro256ss rng(53);
  for (int trial = 0; trial < 8; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 3;
    params.ops_per_process = 6;
    params.num_addresses = 2;
    const auto trace = workload::generate_sc(params, rng);
    const auto wrapped =
        reductions::wrap_with_synchronization(trace.execution, 999);
    EXPECT_EQ(check_lrc_wrapped(wrapped, 999).verdict, vmc::Verdict::kCoherent);
  }
}

}  // namespace
}  // namespace vermem::models
