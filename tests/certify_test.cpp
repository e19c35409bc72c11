// Tests for the certification layer: RUP proof logging/checking, the
// naive whole-order encoding as an independent oracle, the bounded-k
// BFS checker against the DFS exact search, and the first-class
// certificate layer (typed evidence, the independent certify::check()
// re-validator, and the text round-trip behind vermemcert).

#include <gtest/gtest.h>

#include "analysis/router.hpp"
#include "certify/check.hpp"
#include "certify/text.hpp"
#include "encode/naive.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "sat/brute.hpp"
#include "sat/gen.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "vmc/bounded.hpp"
#include "vmc/checker.hpp"
#include "vmc/exact.hpp"
#include "vmc/special.hpp"
#include "vmc/write_order.hpp"
#include "vsc/exact.hpp"
#include "vsc/vscc.hpp"
#include "workload/random.hpp"

#include "reductions/sat_to_vscc.hpp"

namespace vermem {
namespace {

using workload::Fault;

Execution reductions_vscc(const sat::Cnf& cnf) {
  return reductions::sat_to_vscc(cnf).execution;
}

// ---- RUP proofs ----------------------------------------------------------

TEST(RupProof, PigeonholeRefutationsCheck) {
  for (const std::size_t holes : {2, 3, 4, 5}) {
    const sat::Cnf cnf = sat::pigeonhole(holes);
    sat::SolverOptions options;
    options.log_proof = true;
    const auto result = sat::solve(cnf, options);
    ASSERT_EQ(result.status, sat::Status::kUnsat);
    ASSERT_FALSE(result.proof.empty());
    EXPECT_TRUE(result.proof.back().empty());
    EXPECT_TRUE(sat::check_rup_proof(cnf, result.proof)) << "holes=" << holes;
  }
}

TEST(RupProof, RandomUnsatRefutationsCheck) {
  Xoshiro256ss rng(3);
  int unsat_seen = 0;
  for (int trial = 0; trial < 60 && unsat_seen < 15; ++trial) {
    const auto nvars = static_cast<sat::Var>(5 + rng.below(8));
    const sat::Cnf cnf = sat::random_ksat(nvars, nvars * 6, 3, rng);
    sat::SolverOptions options;
    options.log_proof = true;
    const auto result = sat::solve(cnf, options);
    if (result.status != sat::Status::kUnsat) continue;
    ++unsat_seen;
    EXPECT_TRUE(sat::check_rup_proof(cnf, result.proof));
  }
  EXPECT_GE(unsat_seen, 5);
}

TEST(RupProof, FeatureVariantsStillProduceValidProofs) {
  const sat::Cnf cnf = sat::pigeonhole(4);
  for (const bool vsids : {true, false}) {
    for (const bool minimize : {true, false}) {
      sat::SolverOptions options;
      options.log_proof = true;
      options.use_vsids = vsids;
      options.minimize_learned = minimize;
      const auto result = sat::solve(cnf, options);
      ASSERT_EQ(result.status, sat::Status::kUnsat);
      EXPECT_TRUE(sat::check_rup_proof(cnf, result.proof))
          << "vsids=" << vsids << " minimize=" << minimize;
    }
  }
}

TEST(RupProof, RejectsBogusSteps) {
  const sat::Cnf cnf = sat::pigeonhole(3);
  // A non-RUP first step: a fresh unit clause unrelated to the formula.
  sat::Proof bogus{{sat::pos(0)}, {}};
  EXPECT_FALSE(sat::check_rup_proof(cnf, bogus));
  // A proof that never derives the empty clause fails too.
  sat::SolverOptions options;
  options.log_proof = true;
  auto result = sat::solve(cnf, options);
  ASSERT_EQ(result.status, sat::Status::kUnsat);
  auto truncated = result.proof;
  truncated.pop_back();
  // Dropping the empty clause may leave a "proof" whose steps all check
  // but which concludes nothing.
  EXPECT_FALSE(sat::check_rup_proof(cnf, truncated));
}

TEST(RupProof, SatisfiableFormulaHasNoRefutation) {
  sat::Cnf cnf;
  cnf.reserve_vars(2);
  cnf.add_binary(sat::pos(0), sat::pos(1));
  // The empty clause is not RUP for a satisfiable formula.
  EXPECT_FALSE(sat::check_rup_proof(cnf, {{}}));
}

TEST(RupProof, ConflictingUnitsProofChecks) {
  sat::Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_unit(sat::pos(0));
  cnf.add_unit(sat::neg(0));
  sat::SolverOptions options;
  options.log_proof = true;
  const auto result = sat::solve(cnf, options);
  ASSERT_EQ(result.status, sat::Status::kUnsat);
  EXPECT_TRUE(sat::check_rup_proof(cnf, result.proof));
}

// ---- Naive encoding as independent oracle ---------------------------------

TEST(NaiveEncoding, AgreesWithProductionEncoderAndExact) {
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 2 + rng.below(4);
    params.num_values = 2 + rng.below(3);
    params.rmw_fraction = rng.uniform01() * 0.4;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const vmc::VmcInstance instance{exec, 0};
      const auto naive = encode::check_via_sat_naive(instance);
      const auto production = encode::check_via_sat(instance);
      const auto exact = vmc::check_exact(instance);
      ASSERT_NE(naive.verdict, vmc::Verdict::kUnknown) << naive.reason();
      EXPECT_EQ(naive.verdict, exact.verdict);
      EXPECT_EQ(production.verdict, exact.verdict);
      if (naive.verdict == vmc::Verdict::kCoherent) {
        const auto valid = check_coherent_schedule(exec, 0, naive.witness);
        EXPECT_TRUE(valid.ok) << valid.violation;
      }
    }
  }
}

TEST(NaiveEncoding, ProductionEncodingIsSmaller) {
  Xoshiro256ss rng(11);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 8;
  params.write_fraction = 0.3;  // read-heavy: where the gap is largest
  const auto trace = workload::generate_coherent(params, rng);
  const vmc::VmcInstance instance{trace.execution, 0};
  const auto naive = encode::encode_vmc_naive(instance);
  const auto production = encode::encode_vmc(instance);
  EXPECT_LT(production.cnf.num_vars, naive.cnf.num_vars);
  EXPECT_LT(production.cnf.num_clauses(), naive.cnf.num_clauses());
}

TEST(NaiveEncoding, TrivialRejections) {
  const auto exec = ExecutionBuilder().process(R(0, 9)).build();
  EXPECT_EQ(encode::check_via_sat_naive({exec, 0}).verdict,
            vmc::Verdict::kIncoherent);
  const auto final_bad =
      ExecutionBuilder().process(W(0, 1)).final_value(0, 7).build();
  EXPECT_EQ(encode::check_via_sat_naive({final_bad, 0}).verdict,
            vmc::Verdict::kIncoherent);
}

// ---- Bounded-k BFS vs DFS exact -------------------------------------------

TEST(BoundedK, AgreesWithExactOnRandomTraces) {
  Xoshiro256ss rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 2 + rng.below(6);
    params.num_values = 2 + rng.below(3);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kFabricatedRead,
                          Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const auto& exec : cases) {
      const vmc::VmcInstance instance{exec, 0};
      const auto bfs = vmc::check_bounded_k(instance);
      const auto dfs = vmc::check_exact(instance);
      ASSERT_NE(bfs.verdict, vmc::Verdict::kUnknown);
      EXPECT_EQ(bfs.verdict, dfs.verdict);
      if (bfs.verdict == vmc::Verdict::kCoherent) {
        const auto valid = check_coherent_schedule(exec, 0, bfs.witness);
        EXPECT_TRUE(valid.ok) << valid.violation;
      }
    }
  }
}

TEST(BoundedK, HonorsHistoryCap) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1)).process(W(0, 2)).process(R(0, 1)).build();
  vmc::BoundedKOptions options;
  options.max_histories = 2;
  EXPECT_EQ(vmc::check_bounded_k({exec, 0}, options).verdict,
            vmc::Verdict::kUnknown);
}

TEST(BoundedK, EmptyAndFinalValueEdges) {
  EXPECT_EQ(vmc::check_bounded_k({Execution{}, 0}).verdict,
            vmc::Verdict::kCoherent);
  auto exec = ExecutionBuilder().process(W(0, 1)).process(W(0, 2)).build();
  exec.set_final_value(0, 1);
  const auto result = vmc::check_bounded_k({exec, 0});
  ASSERT_EQ(result.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(exec.op(result.witness.back()), W(0, 1));
}

TEST(BoundedK, StateBudgetYieldsUnknown) {
  Xoshiro256ss rng(17);
  workload::SingleAddressParams params;
  params.num_histories = 6;
  params.ops_per_history = 8;
  const auto trace = workload::generate_coherent(params, rng);
  vmc::BoundedKOptions options;
  options.max_states = 2;
  EXPECT_EQ(vmc::check_bounded_k({trace.execution, 0}, options).verdict,
            vmc::Verdict::kUnknown);
}

// ---- SC via SAT -----------------------------------------------------------

TEST(ScViaSat, AgreesWithExactScOnGeneratedTraces) {
  Xoshiro256ss rng(19);
  for (int trial = 0; trial < 12; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(5);
    params.num_addresses = 1 + rng.below(3);
    const auto trace = workload::generate_sc(params, rng);
    const auto via_sat = encode::check_sc_via_sat(trace.execution);
    ASSERT_NE(via_sat.verdict, vmc::Verdict::kUnknown) << via_sat.reason();
    EXPECT_EQ(via_sat.verdict, vmc::Verdict::kCoherent);
    const auto valid = check_sc_schedule(trace.execution, via_sat.witness);
    EXPECT_TRUE(valid.ok) << valid.violation;
  }
}

TEST(ScViaSat, RejectsClassicLitmusViolations) {
  // MP and SB shapes (non-SC but coherent) must come back unsatisfiable.
  const auto mp = ExecutionBuilder()
                      .process(W(0, 1), W(1, 1))
                      .process(R(1, 1), R(0, 0))
                      .build();
  EXPECT_EQ(encode::check_sc_via_sat(mp).verdict, vmc::Verdict::kIncoherent);
  const auto sb = ExecutionBuilder()
                      .process(W(0, 1), R(1, 0))
                      .process(W(1, 1), R(0, 0))
                      .build();
  EXPECT_EQ(encode::check_sc_via_sat(sb).verdict, vmc::Verdict::kIncoherent);
  const auto iriw = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(1, 1))
                        .process(R(0, 1), R(1, 0))
                        .process(R(1, 1), R(0, 0))
                        .build();
  EXPECT_EQ(encode::check_sc_via_sat(iriw).verdict, vmc::Verdict::kIncoherent);
}

TEST(ScViaSat, AgreesWithExactOnVsccReductions) {
  Xoshiro256ss rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const auto cnf = sat::random_ksat(3, 1 + rng.below(4), 3, rng);
    const bool satisfiable = sat::solve_brute(cnf).has_value();
    const auto red = reductions_vscc(cnf);
    const auto via_sat = encode::check_sc_via_sat(red);
    ASSERT_NE(via_sat.verdict, vmc::Verdict::kUnknown) << via_sat.reason();
    EXPECT_EQ(via_sat.verdict == vmc::Verdict::kCoherent, satisfiable);
  }
}

TEST(ScViaSat, FinalValuesRespected) {
  auto exec = ExecutionBuilder().process(W(0, 1)).process(W(0, 2)).build();
  exec.set_final_value(0, 1);
  const auto result = encode::check_sc_via_sat(exec);
  ASSERT_EQ(result.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(exec.op(result.witness.back()), W(0, 1));
  exec.set_final_value(0, 9);
  EXPECT_EQ(encode::check_sc_via_sat(exec).verdict, vmc::Verdict::kIncoherent);
}

TEST(ScViaSat, SyncOpsOrderOnly) {
  const auto exec = ExecutionBuilder()
                        .process(Acq(9), W(0, 1), Rel(9))
                        .process(Acq(9), R(0, 1), Rel(9))
                        .build();
  EXPECT_EQ(encode::check_sc_via_sat(exec).verdict, vmc::Verdict::kCoherent);
}

// ---- Certificate layer ----------------------------------------------------

certify::Certificate address_cert(Addr addr, const vmc::CheckResult& result) {
  return certify::from_result(certify::Scope::kAddress, addr, result);
}

certify::Certificate execution_cert(const vmc::CheckResult& result) {
  return certify::from_result(certify::Scope::kExecution, 0, result);
}

void expect_checks(const Execution& exec, const certify::Certificate& cert,
                   const std::string& what) {
  const certify::CheckOutcome outcome = certify::check(exec, cert);
  EXPECT_TRUE(outcome.ok) << what << " [" << certify::to_string(cert.evidence)
                          << "]: " << outcome.violation;
}

TEST(Certificates, HandcraftedPolyKindsCheck) {
  // One deterministic trace per polynomial evidence kind; each decides
  // kIncoherent through the special-case checker its shape selects and
  // its certificate re-validates.
  using Checker = vmc::CheckResult (*)(const vmc::VmcInstance&);
  struct Case {
    const char* name;
    Execution exec;
    Checker checker;
    std::optional<certify::IncoherenceKind> kind;  ///< asserted when stable
  };
  std::vector<Case> cases;
  cases.push_back({"unwritten read",
                   ExecutionBuilder().process(R(0, 9)).build(),
                   vmc::check_one_op_per_process,
                   certify::IncoherenceKind::kUnwrittenRead});
  cases.push_back({"unwritable final",
                   ExecutionBuilder().process(W(0, 1)).final_value(0, 7).build(),
                   vmc::check_one_op_per_process,
                   certify::IncoherenceKind::kUnwritableFinal});
  cases.push_back({"read before write",
                   ExecutionBuilder().process(R(0, 5), W(0, 5)).build(),
                   vmc::check_read_map,
                   certify::IncoherenceKind::kReadBeforeWrite});
  cases.push_back({"stale initial read",
                   ExecutionBuilder().process(W(0, 1), R(0, 0)).build(),
                   vmc::check_read_map,
                   certify::IncoherenceKind::kStaleInitialRead});
  cases.push_back({"cluster cycle",
                   ExecutionBuilder()
                       .process(R(0, 1), R(0, 2))
                       .process(R(0, 2), R(0, 1))
                       .process(W(0, 1))
                       .process(W(0, 2))
                       .build(),
                   vmc::check_read_map,
                   certify::IncoherenceKind::kClusterCycle});
  cases.push_back({"final not last",
                   ExecutionBuilder()
                       .process(W(0, 1), W(0, 2))
                       .final_value(0, 1)
                       .build(),
                   vmc::check_read_map,
                   certify::IncoherenceKind::kFinalNotLast});
  // All-RMW shapes: only the verdict and the certificate's checkability
  // are pinned down.
  cases.push_back({"value imbalance",
                   ExecutionBuilder().process(RW(0, 0, 1)).process(RW(0, 0, 2)).build(),
                   vmc::check_rmw_one_op_per_process, std::nullopt});
  cases.push_back({"chain stall",
                   ExecutionBuilder().process(RW(0, 0, 1), RW(0, 2, 3)).build(),
                   vmc::check_rmw_read_map, std::nullopt});
  cases.push_back({"chain end mismatch",
                   ExecutionBuilder().process(RW(0, 0, 1)).final_value(0, 0).build(),
                   vmc::check_rmw_one_op_per_process, std::nullopt});
  cases.push_back({"unreachable value",
                   ExecutionBuilder().process(RW(0, 0, 1)).process(RW(0, 5, 6)).build(),
                   vmc::check_rmw_one_op_per_process, std::nullopt});
  for (const Case& test : cases) {
    const vmc::CheckResult result = test.checker({test.exec, 0});
    ASSERT_EQ(result.verdict, vmc::Verdict::kIncoherent) << test.name;
    ASSERT_NE(result.incoherence(), nullptr) << test.name;
    if (test.kind) {
      EXPECT_EQ(result.incoherence()->kind, *test.kind) << test.name;
    }
    expect_checks(test.exec, address_cert(0, result), test.name);
  }
}

TEST(Certificates, WriteOrderKindsCheck) {
  struct Case {
    const char* name;
    Execution exec;
    vmc::WriteOrder order;
    certify::IncoherenceKind kind;
  };
  std::vector<Case> cases;
  cases.push_back({"program-order conflict",
                   ExecutionBuilder().process(W(0, 1), W(0, 2)).build(),
                   {OpRef{0, 1}, OpRef{0, 0}},
                   certify::IncoherenceKind::kOrderProgramConflict});
  cases.push_back({"rmw mismatch",
                   ExecutionBuilder().process(W(0, 1)).process(RW(0, 0, 5)).build(),
                   {OpRef{0, 0}, OpRef{1, 0}},
                   certify::IncoherenceKind::kOrderRmwMismatch});
  cases.push_back({"read window failure",
                   ExecutionBuilder().process(W(0, 1), W(0, 2), R(0, 1)).build(),
                   {OpRef{0, 0}, OpRef{0, 1}},
                   certify::IncoherenceKind::kOrderReadWindow});
  {
    auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).final_value(0, 1).build();
    cases.push_back({"final mismatch", std::move(exec),
                     {OpRef{0, 0}, OpRef{0, 1}},
                     certify::IncoherenceKind::kOrderFinalMismatch});
  }
  for (const Case& test : cases) {
    const vmc::CheckResult result =
        vmc::check_with_write_order({test.exec, 0}, test.order);
    ASSERT_EQ(result.verdict, vmc::Verdict::kIncoherent) << test.name;
    ASSERT_NE(result.incoherence(), nullptr) << test.name;
    EXPECT_EQ(result.incoherence()->kind, test.kind) << test.name;
    expect_checks(test.exec, address_cert(0, result), test.name);
  }
}

TEST(Certificates, SatRouteCertificatesCheck) {
  // A non-trivially-refutable incoherent instance: the SAT route must
  // produce a RUP refutation the checker can replay against its own
  // re-encoding.
  const auto cycle = ExecutionBuilder()
                         .process(R(0, 1), R(0, 2))
                         .process(R(0, 2), R(0, 1))
                         .process(W(0, 1))
                         .process(W(0, 2))
                         .build();
  const vmc::CheckResult via_sat = encode::check_via_sat({cycle, 0});
  ASSERT_EQ(via_sat.verdict, vmc::Verdict::kIncoherent);
  ASSERT_NE(via_sat.incoherence(), nullptr);
  EXPECT_EQ(via_sat.incoherence()->kind, certify::IncoherenceKind::kRupRefutation);
  EXPECT_FALSE(via_sat.incoherence()->proof.empty());
  expect_checks(cycle, address_cert(0, via_sat), "vmc rup");

  // Trivially refuted instances route through typed trivial evidence.
  const auto trivial = ExecutionBuilder().process(R(0, 9)).build();
  const vmc::CheckResult refuted = encode::check_via_sat({trivial, 0});
  ASSERT_EQ(refuted.verdict, vmc::Verdict::kIncoherent);
  expect_checks(trivial, address_cert(0, refuted), "vmc trivial via sat");

  // Execution scope: a classic non-SC litmus shape via the SC encoder.
  const auto sb = ExecutionBuilder()
                      .process(W(0, 1), R(1, 0))
                      .process(W(1, 1), R(0, 0))
                      .build();
  const vmc::CheckResult sc = encode::check_sc_via_sat(sb);
  ASSERT_EQ(sc.verdict, vmc::Verdict::kIncoherent);
  ASSERT_NE(sc.incoherence(), nullptr);
  EXPECT_EQ(sc.incoherence()->kind, certify::IncoherenceKind::kRupRefutation);
  expect_checks(sb, execution_cert(sc), "sc rup");
}

TEST(Certificates, ExactSearchCertificatesCheck) {
  const auto cycle = ExecutionBuilder()
                         .process(R(0, 1), R(0, 2))
                         .process(R(0, 2), R(0, 1))
                         .process(W(0, 1))
                         .process(W(0, 2))
                         .build();
  const vmc::CheckResult exact = vmc::check_exact({cycle, 0});
  ASSERT_EQ(exact.verdict, vmc::Verdict::kIncoherent);
  ASSERT_NE(exact.incoherence(), nullptr);
  EXPECT_EQ(exact.incoherence()->kind,
            certify::IncoherenceKind::kSearchExhaustion);
  expect_checks(cycle, address_cert(0, exact), "vmc exhaustion");

  const auto sb = ExecutionBuilder()
                      .process(W(0, 1), R(1, 0))
                      .process(W(1, 1), R(0, 0))
                      .build();
  const vmc::CheckResult sc = vsc::check_sc_exact(sb);
  ASSERT_EQ(sc.verdict, vmc::Verdict::kIncoherent);
  expect_checks(sb, execution_cert(sc), "sc exhaustion");

  // A kCoherent exact result certifies through its witness schedule.
  const auto fine = ExecutionBuilder().process(W(0, 1)).process(R(0, 1)).build();
  const vmc::CheckResult coherent = vmc::check_exact({fine, 0});
  ASSERT_EQ(coherent.verdict, vmc::Verdict::kCoherent);
  expect_checks(fine, address_cert(0, coherent), "coherent witness");

  // An unknown verdict (budget) certifies vacuously but must carry a
  // typed reason.
  vmc::ExactOptions tiny;
  tiny.max_states = 1;
  const vmc::CheckResult unknown = vmc::check_exact({cycle, 0}, tiny);
  ASSERT_EQ(unknown.verdict, vmc::Verdict::kUnknown);
  ASSERT_NE(unknown.unknown_reason(), nullptr);
  expect_checks(cycle, address_cert(0, unknown), "unknown budget");
}

TEST(Certificates, RoutedRandomTracesAllCertify) {
  Xoshiro256ss rng(29);
  std::size_t incoherent_seen = 0;
  for (int trial = 0; trial < 20; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 2 + rng.below(5);
    params.num_values = 2 + rng.below(3);
    params.rmw_fraction = rng.uniform01() * 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
    for (const Execution& exec : cases) {
      const analysis::RoutedReport routed =
          analysis::verify_coherence_routed(AddressIndex(exec));
      for (const auto& address : routed.report.addresses) {
        if (address.result.verdict == vmc::Verdict::kIncoherent)
          ++incoherent_seen;
        // Every verdict carries checkable typed evidence (or a witness).
        if (address.result.verdict != vmc::Verdict::kCoherent) {
          EXPECT_FALSE(std::holds_alternative<std::monostate>(
              address.result.evidence));
        }
        expect_checks(exec, address_cert(address.addr, address.result),
                      "routed address");
      }
    }
  }
  EXPECT_GT(incoherent_seen, 0u);
}

TEST(Certificates, VsccPipelineCertifies) {
  Xoshiro256ss rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 2 + rng.below(4);
    params.num_addresses = 1 + rng.below(3);
    const auto trace = workload::generate_sc(params, rng);
    const vsc::VsccReport report = vsc::check_vscc(trace.execution);
    for (const auto& address : report.coherence.addresses)
      expect_checks(trace.execution, address_cert(address.addr, address.result),
                    "vscc address");
    expect_checks(trace.execution, execution_cert(report.sc), "vscc sc");
  }

  // A non-SC execution: the pipeline's execution-scope refutation checks.
  const auto sb = ExecutionBuilder()
                      .process(W(0, 1), R(1, 0))
                      .process(W(1, 1), R(0, 0))
                      .build();
  const vsc::VsccReport bad = vsc::check_vscc(sb);
  ASSERT_EQ(bad.sc.verdict, vmc::Verdict::kIncoherent);
  expect_checks(sb, execution_cert(bad.sc), "vscc sc refutation");
}

TEST(Certificates, MutatedCertificatesAreRejected) {
  // Gather genuine certificates from the deterministic incoherent shapes
  // plus a coherent one, then corrupt each in a kind-appropriate way and
  // require the checker to reject every mutant.
  struct Bundle {
    Execution exec;
    certify::Certificate cert;
  };
  std::vector<Bundle> bundles;
  const auto collect = [&](Execution exec,
                           vmc::CheckResult (*checker)(const vmc::VmcInstance&)) {
    const vmc::CheckResult result = checker({exec, 0});
    ASSERT_EQ(result.verdict, vmc::Verdict::kIncoherent);
    bundles.push_back({exec, address_cert(0, result)});
  };
  collect(ExecutionBuilder().process(R(0, 9)).build(),
          vmc::check_one_op_per_process);
  collect(ExecutionBuilder().process(R(0, 5), W(0, 5)).build(),
          vmc::check_read_map);
  collect(ExecutionBuilder().process(W(0, 1), R(0, 0)).build(),
          vmc::check_read_map);
  collect(ExecutionBuilder()
              .process(R(0, 1), R(0, 2))
              .process(R(0, 2), R(0, 1))
              .process(W(0, 1))
              .process(W(0, 2))
              .build(),
          vmc::check_read_map);
  collect(ExecutionBuilder().process(W(0, 1), W(0, 2)).final_value(0, 1).build(),
          vmc::check_read_map);

  for (Bundle& bundle : bundles) {
    auto* evidence = std::get_if<certify::Incoherence>(&bundle.cert.evidence);
    ASSERT_NE(evidence, nullptr);
    const std::string name = to_string(evidence->kind);
    // Dangling operation reference.
    if (!evidence->ops.empty()) {
      certify::Certificate mutant = bundle.cert;
      std::get<certify::Incoherence>(mutant.evidence).ops[0].index = 1000000;
      EXPECT_FALSE(certify::check(bundle.exec, mutant).ok)
          << name << ": dangling ref accepted";
    }
    // Edited value claim.
    if (!evidence->values.empty()) {
      certify::Certificate mutant = bundle.cert;
      std::get<certify::Incoherence>(mutant.evidence).values[0] += 1000000;
      EXPECT_FALSE(certify::check(bundle.exec, mutant).ok)
          << name << ": edited value accepted";
    }
    // Swapped edge direction breaks program order.
    if (!evidence->edges.empty()) {
      certify::Certificate mutant = bundle.cert;
      auto& edge = std::get<certify::Incoherence>(mutant.evidence).edges[0];
      std::swap(edge.before, edge.after);
      EXPECT_FALSE(certify::check(bundle.exec, mutant).ok)
          << name << ": reversed edge accepted";
    }
    // Incoherent verdict with the evidence stripped.
    {
      certify::Certificate mutant = bundle.cert;
      mutant.evidence = std::monostate{};
      EXPECT_FALSE(certify::check(bundle.exec, mutant).ok)
          << name << ": missing evidence accepted";
    }
  }

  // RUP proof mutations: truncating the derivation or editing a clause.
  const auto cycle = ExecutionBuilder()
                         .process(R(0, 1), R(0, 2))
                         .process(R(0, 2), R(0, 1))
                         .process(W(0, 1))
                         .process(W(0, 2))
                         .build();
  const vmc::CheckResult via_sat = encode::check_via_sat({cycle, 0});
  ASSERT_EQ(via_sat.verdict, vmc::Verdict::kIncoherent);
  certify::Certificate rup = address_cert(0, via_sat);
  {
    certify::Certificate mutant = rup;
    std::get<certify::Incoherence>(mutant.evidence).proof.pop_back();
    EXPECT_FALSE(certify::check(cycle, mutant).ok) << "truncated proof accepted";
  }
  {
    certify::Certificate mutant = rup;
    std::get<certify::Incoherence>(mutant.evidence).proof.front() = {
        sat::pos(0)};
    EXPECT_FALSE(certify::check(cycle, mutant).ok) << "edited proof accepted";
  }

  // Witness mutations: truncation and claiming coherence of an
  // incoherent trace.
  const auto fine = ExecutionBuilder().process(W(0, 1)).process(R(0, 1)).build();
  const vmc::CheckResult coherent = vmc::check_exact({fine, 0});
  ASSERT_EQ(coherent.verdict, vmc::Verdict::kCoherent);
  {
    certify::Certificate mutant = address_cert(0, coherent);
    mutant.witness.pop_back();
    EXPECT_FALSE(certify::check(fine, mutant).ok) << "truncated witness accepted";
  }
  {
    certify::Certificate lie = address_cert(0, coherent);
    lie.witness = {OpRef{0, 0}};  // drop the read from the schedule
    EXPECT_FALSE(certify::check(fine, lie).ok) << "partial witness accepted";
  }
  // Write-order truncation.
  const auto two_writes = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const vmc::CheckResult order_result =
      vmc::check_with_write_order({two_writes, 0}, {OpRef{0, 1}, OpRef{0, 0}});
  ASSERT_EQ(order_result.verdict, vmc::Verdict::kIncoherent);
  {
    certify::Certificate mutant = address_cert(0, order_result);
    std::get<certify::Incoherence>(mutant.evidence).write_order.pop_back();
    EXPECT_FALSE(certify::check(two_writes, mutant).ok)
        << "truncated write order accepted";
  }
}

TEST(Certificates, RandomMutantsNeverUpgradeVerdicts) {
  // Adversarial sweep: randomized op/value edits on genuine incoherent
  // certificates must never make the checker accept evidence that the
  // (unchanged) trace does not support, unless the mutation happens to
  // produce another genuinely valid certificate of the same claim — the
  // claim itself (this trace is incoherent) stays true, so acceptance is
  // sound either way. Here we only require no crash and a boolean
  // verdict; soundness spot checks are above.
  Xoshiro256ss rng(37);
  const auto cycle = ExecutionBuilder()
                         .process(R(0, 1), R(0, 2))
                         .process(R(0, 2), R(0, 1))
                         .process(W(0, 1))
                         .process(W(0, 2))
                         .build();
  const vmc::CheckResult result = vmc::check_read_map({cycle, 0});
  ASSERT_EQ(result.verdict, vmc::Verdict::kIncoherent);
  const certify::Certificate genuine = address_cert(0, result);
  for (int trial = 0; trial < 200; ++trial) {
    certify::Certificate mutant = genuine;
    auto& evidence = std::get<certify::Incoherence>(mutant.evidence);
    switch (rng.below(4)) {
      case 0:
        if (!evidence.edges.empty()) {
          auto& edge = evidence.edges[rng.below(evidence.edges.size())];
          edge.after.index = static_cast<std::uint32_t>(rng.below(8));
        }
        break;
      case 1:
        if (!evidence.edges.empty()) {
          auto& edge = evidence.edges[rng.below(evidence.edges.size())];
          edge.before.process = static_cast<std::uint32_t>(rng.below(8));
        }
        break;
      case 2:
        evidence.addr = static_cast<Addr>(rng.below(2));
        mutant.addr = evidence.addr;
        break;
      case 3:
        if (!evidence.edges.empty()) evidence.edges.pop_back();
        break;
    }
    const certify::CheckOutcome outcome = certify::check(cycle, mutant);
    if (outcome.ok) {
      // Acceptance is only sound if the certificate still checks against
      // the real trace semantics; re-run the strictest possible probe:
      // the evidence must still denote a genuine contradiction, which for
      // this trace means the verdict claim matches the exact decider.
      EXPECT_EQ(vmc::check_exact({cycle, 0}).verdict,
                vmc::Verdict::kIncoherent);
    }
  }
}

// ---- Text round-trip -------------------------------------------------------

TEST(CertificateText, RoundTripsEveryPayloadShape) {
  std::vector<certify::Certificate> certs;
  {
    certify::Certificate coherent;
    coherent.scope = certify::Scope::kAddress;
    coherent.addr = 3;
    coherent.verdict = vmc::Verdict::kCoherent;
    coherent.witness = {OpRef{0, 0}, OpRef{1, 2}, OpRef{0, 1}};
    certs.push_back(coherent);
  }
  {
    certify::Certificate incoherent;
    incoherent.scope = certify::Scope::kAddress;
    incoherent.addr = 7;
    incoherent.verdict = vmc::Verdict::kIncoherent;
    certify::Incoherence evidence =
        certify::read_before_write(7, OpRef{0, 1}, OpRef{0, 4}, -12);
    incoherent.evidence = evidence;
    certs.push_back(incoherent);
  }
  {
    certify::Certificate cycle;
    cycle.scope = certify::Scope::kAddress;
    cycle.addr = 0;
    cycle.verdict = vmc::Verdict::kIncoherent;
    cycle.evidence = certify::cluster_cycle(
        0, {{OpRef{0, 0}, OpRef{0, 1}}, {OpRef{1, 0}, OpRef{1, 1}}});
    certs.push_back(cycle);
  }
  {
    certify::Certificate order;
    order.scope = certify::Scope::kAddress;
    order.addr = 2;
    order.verdict = vmc::Verdict::kIncoherent;
    order.evidence = certify::order_final_mismatch(
        2, 5, 6, {OpRef{0, 0}, OpRef{1, 3}});
    certs.push_back(order);
  }
  {
    certify::Certificate rup;
    rup.scope = certify::Scope::kExecution;
    rup.verdict = vmc::Verdict::kIncoherent;
    sat::Proof proof;
    proof.push_back({sat::pos(0), sat::neg(3)});
    proof.push_back({sat::neg(1)});
    proof.push_back({});  // the empty clause
    rup.evidence = certify::rup_refutation(0, std::move(proof));
    certs.push_back(rup);
  }
  {
    certify::Certificate exhaustion;
    exhaustion.scope = certify::Scope::kAddress;
    exhaustion.addr = 1;
    exhaustion.verdict = vmc::Verdict::kIncoherent;
    exhaustion.evidence = certify::search_exhaustion(1, 42, 99);
    certs.push_back(exhaustion);
  }
  {
    certify::Certificate unknown;
    unknown.scope = certify::Scope::kExecution;
    unknown.verdict = vmc::Verdict::kUnknown;
    unknown.evidence =
        certify::Unknown{certify::UnknownReason::kBudget,
                         "state budget exhausted after 10 states"};
    certs.push_back(unknown);
  }

  const std::string text = certify::dump(certs);
  const certify::ParseResult parsed = certify::parse_certificates(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.certs.size(), certs.size());
  // dump(parse(dump(x))) == dump(x): the format is canonical.
  EXPECT_EQ(certify::dump(parsed.certs), text);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    EXPECT_EQ(parsed.certs[i].scope, certs[i].scope) << i;
    EXPECT_EQ(parsed.certs[i].addr, certs[i].addr) << i;
    EXPECT_EQ(parsed.certs[i].verdict, certs[i].verdict) << i;
    EXPECT_EQ(parsed.certs[i].witness, certs[i].witness) << i;
  }
  const auto* rbw = std::get_if<certify::Incoherence>(&parsed.certs[1].evidence);
  ASSERT_NE(rbw, nullptr);
  EXPECT_EQ(rbw->kind, certify::IncoherenceKind::kReadBeforeWrite);
  EXPECT_EQ(rbw->values, (std::vector<Value>{-12}));
  EXPECT_EQ(rbw->ops, (std::vector<OpRef>{OpRef{0, 1}, OpRef{0, 4}}));
  const auto* proof = std::get_if<certify::Incoherence>(&parsed.certs[4].evidence);
  ASSERT_NE(proof, nullptr);
  ASSERT_EQ(proof->proof.size(), 3u);
  EXPECT_EQ(proof->proof[0], (sat::Clause{sat::pos(0), sat::neg(3)}));
  EXPECT_TRUE(proof->proof[2].empty());
  const auto* unk = std::get_if<certify::Unknown>(&parsed.certs[6].evidence);
  ASSERT_NE(unk, nullptr);
  EXPECT_EQ(unk->reason, certify::UnknownReason::kBudget);
  EXPECT_EQ(unk->detail, "state budget exhausted after 10 states");
}

TEST(CertificateText, CheckedAfterRoundTrip) {
  // End-to-end: a genuine certificate survives serialization and still
  // checks against the raw trace (the vermemcert pipeline in-process).
  const auto cycle = ExecutionBuilder()
                         .process(R(0, 1), R(0, 2))
                         .process(R(0, 2), R(0, 1))
                         .process(W(0, 1))
                         .process(W(0, 2))
                         .build();
  const vmc::CheckResult result = encode::check_via_sat({cycle, 0});
  ASSERT_EQ(result.verdict, vmc::Verdict::kIncoherent);
  const std::string text = certify::dump(address_cert(0, result));
  const certify::ParseResult parsed = certify::parse_certificates(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.certs.size(), 1u);
  expect_checks(cycle, parsed.certs[0], "round-tripped rup");
}

TEST(CertificateText, ExecutionScopeKeepsEvidenceAddress) {
  // An execution-scope certificate may reuse an address-level refutation
  // verbatim (the vscc path does exactly that); the text round-trip must
  // not re-anchor the evidence at the header's address 0.
  const Execution exec = ExecutionBuilder()
                             .process(W(2, 1), R(2, 2))
                             .process(W(2, 2))
                             .build();
  vmc::WriteOrderMap orders;
  orders[2] = {OpRef{1, 0}, OpRef{0, 0}};
  const AddressIndex index(exec);
  const vmc::CoherenceReport report =
      analysis::verify_coherence_routed(index, &orders).report;
  ASSERT_EQ(report.verdict, vmc::Verdict::kIncoherent);
  const auto* violation = report.first_violation();
  ASSERT_NE(violation, nullptr);
  ASSERT_NE(violation->result.incoherence(), nullptr);

  certify::Certificate cert;
  cert.scope = certify::Scope::kExecution;
  cert.verdict = vmc::Verdict::kIncoherent;
  certify::Incoherence evidence = *violation->result.incoherence();
  evidence.addr = violation->addr;
  cert.evidence = std::move(evidence);
  expect_checks(exec, cert, "execution-scope order refutation");

  const std::string text = certify::dump(cert);
  EXPECT_NE(text.find("addr 2"), std::string::npos)
      << "evidence address missing from the serialized form:\n" << text;
  const certify::ParseResult parsed = certify::parse_certificates(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.certs.size(), 1u);
  const auto* round =
      std::get_if<certify::Incoherence>(&parsed.certs[0].evidence);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->addr, 2u);
  expect_checks(exec, parsed.certs[0], "round-tripped execution scope");
}

TEST(CertificateText, RejectsMalformedInput) {
  EXPECT_FALSE(certify::parse_certificates("cert bogus 0 coherent\nend\n").ok);
  EXPECT_FALSE(certify::parse_certificates("cert address 0 maybe\nend\n").ok);
  EXPECT_FALSE(certify::parse_certificates("cert address 0 coherent\n").ok);
  EXPECT_FALSE(
      certify::parse_certificates("cert address 0 coherent\nwitness Px#1\nend\n")
          .ok);
  EXPECT_FALSE(certify::parse_certificates(
                   "cert address 0 incoherent\nincoherent no-such-kind\nend\n")
                   .ok);
  EXPECT_FALSE(certify::parse_certificates(
                   "cert execution 0 unknown\nunknown why-not\nend\n")
                   .ok);
  EXPECT_FALSE(certify::parse_certificates(
                   "cert address 0 incoherent\nincoherent rup-refutation\n"
                   "clause 1 0 2\nend\n")
                   .ok);
  // Comments and blank lines are fine.
  const certify::ParseResult ok = certify::parse_certificates(
      "# a comment\n\ncert address 0 coherent\nend\n");
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.certs.size(), 1u);
}

}  // namespace
}  // namespace vermem
