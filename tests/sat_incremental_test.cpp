// Randomized differential suite for the incremental SAT core. Every
// incremental mechanism — solve-under-assumptions, learned-clause
// retention across calls, push/pop stack frames, explicit activation
// frames — must produce verdicts identical to a scratch sat::solve of
// the equivalent one-shot formula, on generated k-SAT instances and on
// encoder-produced CNFs from coherent and fault-injected traces.
// Per-call RUP proofs replay via sat::check_rup_proof against
// formula_with(assumptions), and full incoherence certificates produced
// through the incremental-backed SAT route replay via certify::check().
// The warm kVscc sweep (fresh, suffix-extended, and reused) is checked
// against the cold per-address and whole-trace deciders, and the
// exact-tier portfolio against the default (unraced) routing: stage 1
// bit for bit inside its state budget, the race past it.
//
// CI runs this suite under TSan and ASan in addition to the plain jobs:
// the portfolio race and the retained-solver paths are exactly where a
// data race or a use-after-retirement would hide.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/router.hpp"
#include "certify/certificate.hpp"
#include "certify/check.hpp"
#include "encode/sweep.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/gen.hpp"
#include "sat/incremental.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "vmc/instance.hpp"
#include "vsc/vscc.hpp"
#include "workload/random.hpp"

namespace vermem {
namespace {

using workload::Fault;

/// Scratch oracle: the formula plus one unit per assumption, solved cold.
sat::Status scratch_status(const sat::Cnf& base,
                           const std::vector<sat::Lit>& assumptions) {
  sat::Cnf cnf = base;
  for (const sat::Lit a : assumptions) cnf.add_unit(a);
  return sat::solve(cnf).status;
}

std::vector<sat::Lit> random_assumptions(sat::Var num_vars, double density,
                                         Xoshiro256ss& rng) {
  std::vector<sat::Lit> assumptions;
  for (sat::Var v = 0; v < num_vars; ++v) {
    if (rng.chance(density))
      assumptions.push_back(rng.chance(0.5) ? sat::pos(v) : sat::neg(v));
  }
  return assumptions;
}

// ---- Assumptions vs scratch ----------------------------------------------

TEST(IncrementalAssumptions, MatchesScratchOnRandomKsat) {
  Xoshiro256ss rng(31);
  for (int trial = 0; trial < 16; ++trial) {
    const auto num_vars = static_cast<sat::Var>(6 + rng.below(10));
    const auto num_clauses =
        static_cast<std::size_t>(1 + rng.below(5 * num_vars));
    const sat::Cnf cnf = sat::random_ksat(num_vars, num_clauses, 3, rng);

    sat::IncrementalSolver inc;
    inc.add_cnf(cnf);
    // Several warm calls on one solver: later calls start from the
    // learned clauses and saved phases of the earlier ones.
    for (int round = 0; round < 6; ++round) {
      const auto assumptions = random_assumptions(num_vars, 0.25, rng);
      const sat::SolveResult warm = inc.solve(assumptions);
      ASSERT_NE(warm.status, sat::Status::kUnknown);
      ASSERT_EQ(warm.status, scratch_status(cnf, assumptions))
          << "trial " << trial << " round " << round;

      if (warm.status == sat::Status::kSat) {
        EXPECT_TRUE(inc.formula_with(assumptions).satisfied_by(warm.model));
      } else {
        // The failed-assumption core must itself suffice for UNSAT: the
        // formula plus the core assumptions (negations of the conflict
        // clause's literals) has no model.
        std::vector<sat::Lit> core;
        for (const sat::Lit l : warm.conflict) {
          core.push_back(~l);
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), ~l),
                    assumptions.end())
              << "core literal not among the assumptions";
        }
        EXPECT_EQ(scratch_status(cnf, core), sat::Status::kUnsat);
      }
    }
  }
}

// ---- Learned-clause retention on a growing formula -----------------------

TEST(IncrementalRetention, GrowingFormulaMatchesScratchAtEveryStep) {
  Xoshiro256ss rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const auto num_vars = static_cast<sat::Var>(8 + rng.below(8));
    // Over-constrained: the stream crosses from SAT into UNSAT, so the
    // sweep exercises verdict flips under retained clauses.
    const sat::Cnf full = sat::random_ksat(
        num_vars, static_cast<std::size_t>(6) * num_vars, 3, rng);

    sat::IncrementalSolver inc;
    inc.reserve_vars(num_vars);
    sat::Cnf prefix;
    prefix.reserve_vars(num_vars);
    std::size_t next = 0;
    std::uint64_t solves = 0;
    while (next < full.clauses.size()) {
      const std::size_t batch = 1 + rng.below(8);
      for (std::size_t i = 0; i < batch && next < full.clauses.size(); ++i) {
        inc.add_clause(full.clauses[next]);
        prefix.add_clause(full.clauses[next]);
        ++next;
      }
      const sat::SolveResult warm = inc.solve();
      ASSERT_EQ(warm.status, sat::solve(prefix).status)
          << "trial " << trial << " after " << next << " clauses";
      ++solves;
      // Once the prefix is UNSAT the incremental solver is permanently
      // so (ok() false, further adds ignored) — and the scratch oracle
      // agrees because clause addition is monotone.
      if (warm.status == sat::Status::kUnsat) {
        EXPECT_FALSE(inc.ok());
      }
    }
    EXPECT_EQ(inc.num_solves(), solves);
  }
}

// ---- Push/pop stack frames -----------------------------------------------

TEST(IncrementalFrames, PushPopSequencesMatchScratch) {
  Xoshiro256ss rng(123);
  for (int trial = 0; trial < 12; ++trial) {
    const auto num_vars = static_cast<sat::Var>(6 + rng.below(8));
    sat::IncrementalSolver inc;
    inc.reserve_vars(num_vars);
    // Mirror: stack of clause groups; the live formula is their union.
    std::vector<std::vector<sat::Clause>> stack(1);

    for (int step = 0; step < 48; ++step) {
      const auto action = rng.below(10);
      if (action < 2 && stack.size() < 5) {
        (void)inc.push();
        stack.emplace_back();
      } else if (action < 4 && stack.size() > 1) {
        inc.pop();
        stack.pop_back();
      } else if (action < 8) {
        sat::Clause clause;
        const std::size_t width = 1 + rng.below(3);
        while (clause.size() < width) {
          const auto v = static_cast<sat::Var>(rng.below(num_vars));
          const sat::Lit l = rng.chance(0.5) ? sat::pos(v) : sat::neg(v);
          if (std::find_if(clause.begin(), clause.end(), [&](sat::Lit c) {
                return c.var() == v;
              }) == clause.end())
            clause.push_back(l);
        }
        inc.add_clause(clause);
        stack.back().push_back(std::move(clause));
      } else {
        sat::Cnf scratch;
        scratch.reserve_vars(num_vars);
        for (const auto& frame : stack)
          for (const auto& clause : frame) scratch.add_clause(clause);
        const sat::SolveResult warm = inc.solve();
        ASSERT_EQ(warm.status, sat::solve(scratch).status)
            << "trial " << trial << " step " << step << " depth "
            << stack.size() - 1;
        if (warm.status == sat::Status::kSat) {
          // Restricted to the original variables (activation literals
          // live above them), the warm model satisfies the scratch CNF.
          const std::vector<bool> restricted(warm.model.begin(),
                                             warm.model.begin() + num_vars);
          EXPECT_TRUE(scratch.satisfied_by(restricted));
        }
      }
    }
    EXPECT_EQ(inc.depth(), stack.size() - 1);
  }
}

// ---- Explicit activation frames (the sweep's mechanism) ------------------

TEST(IncrementalFrames, GuardedSubsetsAndRetirementMatchScratch) {
  Xoshiro256ss rng(55);
  constexpr std::size_t kGroups = 4;
  for (int trial = 0; trial < 8; ++trial) {
    const auto num_vars = static_cast<sat::Var>(8 + rng.below(6));
    const sat::Cnf base = sat::random_ksat(
        num_vars, static_cast<std::size_t>(2) * num_vars, 3, rng);
    std::array<sat::Cnf, kGroups> groups;
    for (auto& group : groups)
      group = sat::random_ksat(num_vars, 1 + rng.below(2 * num_vars), 3, rng);

    sat::IncrementalSolver inc;
    inc.add_cnf(base);
    std::array<sat::Var, kGroups> act{};
    for (std::size_t g = 0; g < kGroups; ++g) {
      act[g] = inc.new_activation();
      for (const auto& clause : groups[g].clauses)
        inc.add_guarded(act[g], clause);
    }

    const auto check_subset = [&](std::uint64_t mask) {
      std::vector<sat::Lit> assumptions;
      sat::Cnf scratch = base;
      for (std::size_t g = 0; g < kGroups; ++g) {
        if (!(mask & (1u << g))) continue;
        assumptions.push_back(sat::pos(act[g]));
        for (const auto& clause : groups[g].clauses)
          scratch.add_clause(clause);
      }
      const sat::SolveResult warm = inc.solve(assumptions);
      ASSERT_EQ(warm.status, sat::solve(scratch).status)
          << "trial " << trial << " mask " << mask;
    };

    // Arbitrary subsets, in arbitrary order — exactly the kVscc sweep's
    // access pattern (per-address singletons, then the all-frames call).
    for (int round = 0; round < 10; ++round) check_subset(rng.below(16));
    check_subset((1u << kGroups) - 1);

    // Retiring a frame permanently disables its clauses; the remaining
    // subsets still answer as if the group never existed.
    inc.retire(act[0]);
    for (int round = 0; round < 6; ++round)
      check_subset(rng.below(8) << 1);  // subsets of groups 1..3
  }
}

// ---- RUP proof replay across retained solves -----------------------------

TEST(IncrementalProofs, RupReplayUnderAssumptionsAndRetention) {
  sat::SolverOptions options;
  options.log_proof = true;
  Xoshiro256ss rng(99);
  int unsat_replayed = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto num_vars = static_cast<sat::Var>(8 + rng.below(6));
    const sat::Cnf cnf = sat::random_ksat(
        num_vars, static_cast<std::size_t>(1 + rng.below(5 * num_vars)), 3,
        rng);
    sat::IncrementalSolver inc(options);
    inc.add_cnf(cnf);
    for (int round = 0; round < 6; ++round) {
      const auto assumptions = random_assumptions(num_vars, 0.35, rng);
      const sat::SolveResult result = inc.solve(assumptions);
      if (result.status != sat::Status::kUnsat) continue;
      // The per-call refutation (cumulative retained log + the empty
      // clause) must replay against the formula-plus-assumption-units —
      // even though earlier calls, under different assumptions,
      // contributed the retained prefix of the log.
      EXPECT_TRUE(sat::check_rup_proof(inc.formula_with(assumptions),
                                       result.proof))
          << "trial " << trial << " round " << round;
      ++unsat_replayed;
    }
  }
  EXPECT_GT(unsat_replayed, 0) << "battery produced no UNSAT calls";

  // Unconditionally UNSAT formula, solved twice: the second call's proof
  // is the grown log and must still replay.
  sat::IncrementalSolver inc(options);
  inc.add_cnf(sat::pigeonhole(4));
  const sat::SolveResult first = inc.solve();
  ASSERT_EQ(first.status, sat::Status::kUnsat);
  EXPECT_TRUE(sat::check_rup_proof(inc.formula(), first.proof));
  const sat::SolveResult second = inc.solve();
  ASSERT_EQ(second.status, sat::Status::kUnsat);
  EXPECT_TRUE(sat::check_rup_proof(inc.formula(), second.proof));
}

// ---- Encoder CNFs: trace-shaped formulas through the warm solver ---------

TEST(IncrementalEncoders, TraceCnfsMatchScratchAndCertify) {
  Xoshiro256ss rng(2024);
  for (int trial = 0; trial < 6; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 2 + rng.below(3);
    params.ops_per_history = 2 + rng.below(4);
    params.num_values = 1 + rng.below(4);
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }

    for (const Execution& exec : cases) {
      const vmc::VmcInstance instance{exec, params.addr};
      const encode::VmcEncoding enc = encode::encode_vmc(instance);
      const sat::Status cold = enc.trivially_incoherent
                                   ? sat::Status::kUnsat
                                   : sat::solve(enc.cnf).status;

      sat::IncrementalSolver inc;
      inc.add_cnf(enc.cnf);
      // Two warm calls: the second re-solves entirely from retained
      // state and must not drift.
      EXPECT_EQ(inc.solve().status, cold);
      EXPECT_EQ(inc.solve().status, cold);

      // Assuming one order variable each way stays consistent with the
      // scratch formula plus that unit (one direction may be UNSAT, but
      // never both on a satisfiable encoding).
      if (cold == sat::Status::kSat && !enc.order_vars.empty()) {
        const sat::Var v = enc.order_vars[rng.below(enc.order_vars.size())];
        for (const sat::Lit l : {sat::pos(v), sat::neg(v)}) {
          EXPECT_EQ(inc.solve({l}).status, scratch_status(enc.cnf, {l}));
        }
      }

      // End-to-end certificate replay: the SAT-route verdict (solved by
      // the incremental engine behind sat::solve) is re-validated by the
      // independent checker, including RUP refutations for incoherent
      // verdicts.
      const vmc::CheckResult via_sat = encode::check_via_sat(instance);
      ASSERT_NE(via_sat.verdict, vmc::Verdict::kUnknown);
      const auto cert =
          certify::from_result(certify::Scope::kAddress, params.addr, via_sat);
      const auto outcome = certify::check(exec, cert);
      EXPECT_TRUE(outcome.ok) << outcome.violation;
    }
  }
}

// ---- Warm kVscc sweep vs cold deciders -----------------------------------

Execution truncated_prefix(const Execution& exec, Xoshiro256ss& rng) {
  std::vector<ProcessHistory> histories;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    auto ops = exec.history(p).ops();
    ops.resize(1 + rng.below(ops.size()));
    histories.emplace_back(std::move(ops));
  }
  Execution out{std::move(histories)};
  for (const auto& [addr, value] : exec.initial_values())
    out.set_initial_value(addr, value);
  // No final values: a truncated trace need not end where the full run
  // did, and the sweep treats the final-value change as part of the
  // suffix extension's frame re-emission anyway.
  return out;
}

void expect_sweep_matches_cold(encode::VscSweep& sweep, const Execution& exec) {
  // Whole-trace SC query vs the cold one-shot encoding.
  const auto all = sweep.solve_all();
  const vmc::CheckResult cold_sc = encode::check_sc_via_sat(exec);
  ASSERT_NE(all.status, sat::Status::kUnknown);
  ASSERT_NE(cold_sc.verdict, vmc::Verdict::kUnknown);
  EXPECT_EQ(all.status == sat::Status::kSat,
            cold_sc.verdict == vmc::Verdict::kCoherent)
      << cold_sc.reason();
  if (all.status == sat::Status::kSat) {
    const auto valid = check_sc_schedule(exec, all.schedule);
    EXPECT_TRUE(valid.ok) << valid.violation;
  }

  // Per-address queries vs the independent exact coherence search on the
  // projection (per-address VSC of the full trace == coherence of the
  // address's projection).
  const AddressIndex index(exec);
  const std::set<Addr> indexed(index.addresses().begin(),
                               index.addresses().end());
  for (std::size_t i = 0; i < sweep.num_addresses(); ++i) {
    const Addr addr = sweep.address(i);
    if (indexed.count(addr) == 0) continue;
    const auto outcome = sweep.solve_address(i);
    ASSERT_NE(outcome.status, sat::Status::kUnknown);
    const auto materialized = index.view(addr).materialize();
    const vmc::CheckResult exact =
        vmc::check_exact(vmc::VmcInstance{materialized.execution, addr});
    ASSERT_NE(exact.verdict, vmc::Verdict::kUnknown);
    EXPECT_EQ(outcome.status == sat::Status::kSat,
              exact.verdict == vmc::Verdict::kCoherent)
        << "addr " << addr << ": " << exact.reason();
  }
}

TEST(SweepDifferential, WarmFreshExtendedReusedMatchColdDeciders) {
  Xoshiro256ss rng(606);
  for (int trial = 0; trial < 5; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2 + rng.below(2);
    params.ops_per_process = 3 + rng.below(3);
    params.num_addresses = 1 + rng.below(3);
    params.num_values = 2 + rng.below(3);
    const auto trace = workload::generate_sc(params, rng);
    const Execution prefix = truncated_prefix(trace.execution, rng);

    encode::VscSweep sweep;
    ASSERT_EQ(sweep.prepare(prefix), encode::VscSweep::Prepare::kFresh);
    expect_sweep_matches_cold(sweep, prefix);

    // Suffix extension: same solver, skeleton extended in place, frames
    // re-emitted — verdicts must match a cold solve of the full trace.
    ASSERT_EQ(sweep.prepare(trace.execution),
              encode::VscSweep::Prepare::kExtended);
    expect_sweep_matches_cold(sweep, trace.execution);

    // Identical re-prepare is a no-op and keeps answering correctly.
    ASSERT_EQ(sweep.prepare(trace.execution),
              encode::VscSweep::Prepare::kReused);
    expect_sweep_matches_cold(sweep, trace.execution);

    EXPECT_GT(sweep.num_solves(), 0u);
  }
}

TEST(SweepDifferential, FaultedScPipelineSweepAgreesWithCold) {
  Xoshiro256ss rng(707);
  for (int trial = 0; trial < 4; ++trial) {
    workload::MultiAddressParams params;
    params.num_processes = 2;
    params.ops_per_process = 3 + rng.below(3);
    params.num_addresses = 1 + rng.below(2);
    params.num_values = 2;
    const auto trace = workload::generate_sc(params, rng);

    vsc::VsccOptions warm;
    warm.use_sat_sweep = true;
    const vsc::VsccReport swept = vsc::check_vscc(trace.execution, warm);
    const vsc::VsccReport cold =
        vsc::check_vscc(trace.execution, vsc::VsccOptions{});
    EXPECT_TRUE(swept.used_sat_sweep);
    if (swept.sc.verdict != vmc::Verdict::kUnknown &&
        cold.sc.verdict != vmc::Verdict::kUnknown) {
      EXPECT_EQ(swept.sc.verdict, cold.sc.verdict) << swept.sc.reason();
    }
    EXPECT_EQ(swept.coherence.verdict, cold.coherence.verdict);
  }
}

// ---- Cooperative interruption --------------------------------------------

TEST(IncrementalInterrupt, CancelHonoredWhenCumulativeConflictsAreOffPeriod) {
  // First call: a pigeonhole frame, UNSAT under its activation literal
  // only after some conflicts.
  sat::IncrementalSolver solver;
  const sat::Cnf pigeons = sat::pigeonhole(4);
  solver.reserve_vars(pigeons.num_vars);
  const sat::Var act = solver.new_activation();
  for (const sat::Clause& clause : pigeons.clauses)
    ASSERT_TRUE(solver.add_guarded(act, clause));
  const sat::SolveResult first = solver.solve({sat::pos(act)});
  ASSERT_EQ(first.status, sat::Status::kUnsat);
  const std::uint64_t conflicts = solver.cumulative_stats().conflicts;
  ASSERT_GT(conflicts, 0u);
  ASSERT_NE(conflicts % 1024, 0u)
      << "the first call must leave the count off a multiple of 1024";

  // A second formula that needs decisions: free variables in a 3-SAT
  // clause set, with the pigeonhole frame left unassumed.
  std::vector<sat::Var> free;
  for (int v = 0; v < 12; ++v) free.push_back(solver.new_var());
  for (std::size_t v = 0; v + 2 < free.size(); ++v)
    ASSERT_TRUE(solver.add_ternary(sat::pos(free[v]), sat::neg(free[v + 1]),
                                   sat::pos(free[v + 2])));
  CancellationToken token;
  token.cancel();
  solver.options().cancel = &token;
  const sat::SolveResult second = solver.solve();
  EXPECT_EQ(second.status, sat::Status::kUnknown);
  EXPECT_EQ(second.stats.decisions, 0u);

  // The same call with the token withdrawn decides the formula.
  solver.options().cancel = nullptr;
  EXPECT_EQ(solver.solve().status, sat::Status::kSat);
}

// ---- Exact-tier portfolio vs default routing -----------------------------

TEST(PortfolioDifferential, RacedVerdictsMatchDefaultRouting) {
  Xoshiro256ss rng(404);
  std::uint64_t races = 0;
  std::uint64_t wins = 0;
  for (int trial = 0; trial < 8; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 3 + rng.below(3);
    params.ops_per_history = 3 + rng.below(4);
    // Heavy value collisions keep instances in the general fragment,
    // where the exact tier (and hence the race) actually runs.
    params.num_values = 1 + rng.below(3);
    params.write_fraction = 0.5;
    const auto trace = workload::generate_coherent(params, rng);

    std::vector<Execution> cases{trace.execution};
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite,
                          Fault::kFabricatedRead, Fault::kReorderedOps}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }

    for (const Execution& exec : cases) {
      const AddressIndex index(exec);
      const auto base = analysis::verify_coherence_routed(index);
      analysis::PortfolioOptions portfolio;
      portfolio.enabled = true;
      const auto raced =
          analysis::verify_coherence_routed(index, nullptr, {}, portfolio);

      EXPECT_EQ(raced.report.verdict, base.report.verdict);
      ASSERT_EQ(raced.report.addresses.size(), base.report.addresses.size());
      for (std::size_t i = 0; i < base.report.addresses.size(); ++i) {
        EXPECT_EQ(raced.report.addresses[i].result.verdict,
                  base.report.addresses[i].result.verdict)
            << "addr " << base.report.addresses[i].addr;
      }
      races += raced.routing.portfolio_races;
      for (const std::uint64_t w : raced.routing.engine_wins) wins += w;
    }
  }
  // The battery is tuned so at least some instances reach the exact
  // tier; every decided race records exactly one winner.
  EXPECT_GT(races, 0u);
  EXPECT_EQ(wins, races);
}

TEST(PortfolioDifferential, ForcedEngineRecordsItselfAsWinner) {
  Xoshiro256ss rng(505);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 5;
  params.num_values = 2;
  params.write_fraction = 0.5;
  const auto trace = workload::generate_coherent(params, rng);
  const AddressIndex index(trace.execution);
  const auto base = analysis::verify_coherence_routed(index);

  for (const analysis::Engine engine :
       {analysis::Engine::kExactSearch, analysis::Engine::kCdcl,
        analysis::Engine::kBoundedK}) {
    analysis::PortfolioOptions portfolio;
    portfolio.enabled = true;
    portfolio.only = engine;
    const auto forced =
        analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
    EXPECT_EQ(forced.report.verdict, base.report.verdict)
        << to_string(engine);
    for (std::size_t e = 0; e < analysis::kNumEngines; ++e) {
      if (e != static_cast<std::size_t>(engine)) {
        EXPECT_EQ(forced.routing.engine_wins[e], 0u) << to_string(engine);
      }
    }
    EXPECT_EQ(forced.routing.engine_wins[static_cast<std::size_t>(engine)],
              forced.routing.portfolio_races);
  }
}

/// Best-of-`runs` wall time of `work`, in seconds.
template <typename Work>
double best_seconds(int runs, Work&& work) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < runs; ++r) {
    const Stopwatch clock;
    work();
    best = std::min(best, clock.seconds());
  }
  return best;
}

TEST(PortfolioDifferential, RaceCostsItsWinnerNotItsSlowestLoser) {
  // One contended address with ~60 writes over two values: the frontier
  // search decides it quickly, while the CDCL arm's O(W^3) encoding
  // alone takes far longer.
  Xoshiro256ss rng(606);
  workload::SingleAddressParams params;
  params.num_histories = 4;
  params.ops_per_history = 30;
  params.num_values = 2;
  params.write_fraction = 0.5;
  const auto trace = workload::generate_coherent(params, rng);
  const vmc::VmcInstance instance{trace.execution, 0};

  const double cdcl_s =
      best_seconds(3, [&] { (void)encode::check_via_sat(instance); });
  const double exact_s =
      best_seconds(3, [&] { (void)vmc::check_exact(instance); });
  ASSERT_GE(cdcl_s, 20 * exact_s)
      << "the instance no longer separates the engines";

  const AddressIndex index(trace.execution);
  const auto base = analysis::verify_coherence_routed(index);
  analysis::PortfolioOptions portfolio;
  portfolio.enabled = true;
  analysis::RoutedReport raced;
  const double race_s = best_seconds(3, [&] {
    raced = analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
  });

  ASSERT_EQ(raced.routing.portfolio_races, 1u);
  ASSERT_EQ(raced.report.addresses.size(), 1u);
  const vmc::CheckResult& got = raced.report.addresses[0].result;
  const vmc::CheckResult& want = base.report.addresses[0].result;
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.witness, want.witness);
  EXPECT_LT(race_s, cdcl_s / 4)
      << "race " << race_s << " s, solo CDCL " << cdcl_s << " s, solo exact "
      << exact_s << " s";
}

TEST(PortfolioDifferential, AdversarialReductionInstancesAgree) {
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const auto cnf = sat::random_ksat(3, 1 + rng.below(4), 3, rng);
    const auto red = reductions::sat_to_vmc(cnf);
    const Execution& exec = red.instance.execution;
    const AddressIndex index(exec);
    const auto base = analysis::verify_coherence_routed(index);
    analysis::PortfolioOptions portfolio;
    portfolio.enabled = true;
    const auto raced =
        analysis::verify_coherence_routed(index, nullptr, {}, portfolio);
    EXPECT_EQ(raced.report.verdict, base.report.verdict) << "trial " << trial;
  }
}

// ---- Staged portfolio: stage 1 alone, stage 2 only on a spent budget ----

void expect_same_stats(const vmc::SearchStats& got,
                       const vmc::SearchStats& want) {
  EXPECT_EQ(got.states_visited, want.states_visited);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.max_frontier, want.max_frontier);
  EXPECT_EQ(got.prunes, want.prunes);
  EXPECT_EQ(got.oracle_prunes, want.oracle_prunes);
  EXPECT_EQ(got.arena_reserved, want.arena_reserved);
  EXPECT_EQ(got.arena_high_water, want.arena_high_water);
  EXPECT_EQ(got.arena_allocations, want.arena_allocations);
}

analysis::PortfolioOptions staged_portfolio() {
  analysis::PortfolioOptions portfolio;
  portfolio.enabled = true;
  return portfolio;
}

/// The reduction of a seeded random 3-SAT formula over `num_vars`
/// variables: one address that saturation leaves to the exact tier.
Execution reduction_instance(std::uint64_t seed, sat::Var num_vars) {
  Xoshiro256ss rng(seed);
  const auto cnf = sat::random_ksat(num_vars, 4 * num_vars, 3, rng);
  return reductions::sat_to_vmc(cnf).instance.execution;
}

TEST(StagedPortfolio, InsideTheBudgetMatchesTheUnracedSearchBitForBit) {
  // Small contended traces and small reduction instances: every address
  // that reaches the exact tier decides within kSoloStates, so stage 1
  // alone must answer exactly as the unraced route (vmc::check_exact
  // under the same saturation pruner) does.
  Xoshiro256ss rng(707);
  std::vector<Execution> cases;
  for (int trial = 0; trial < 6; ++trial) {
    workload::SingleAddressParams params;
    params.num_histories = 3 + rng.below(3);
    params.ops_per_history = 3 + rng.below(4);
    params.num_values = 1 + rng.below(2);
    params.write_fraction = 0.5;
    const auto trace = workload::generate_coherent(params, rng);
    cases.push_back(trace.execution);
    for (const Fault f : {Fault::kStaleRead, Fault::kLostWrite}) {
      if (auto faulted = workload::inject_fault(trace, f, rng))
        cases.push_back(std::move(*faulted));
    }
  }
  for (const std::uint64_t seed : {1u, 16u})
    cases.push_back(reduction_instance(seed, 3));

  std::uint64_t compared = 0;
  analysis::RouteTally tally;
  for (const Execution& exec : cases) {
    const AddressIndex index(exec);
    for (std::size_t i = 0; i < index.num_addresses(); ++i) {
      const auto view = index.view_at(i);
      const auto base = analysis::check_routed(view, nullptr);
      if (base.decider != analysis::Decider::kExact) continue;
      ASSERT_LT(base.result.stats.states_visited, analysis::kSoloStates);
      const auto staged =
          analysis::check_routed(view, nullptr, {}, staged_portfolio());
      tally.add(staged);
      ++compared;
      EXPECT_TRUE(staged.portfolio_ran);
      EXPECT_FALSE(staged.portfolio_escalated);
      EXPECT_EQ(staged.portfolio_winner, analysis::Engine::kExactSearch);
      EXPECT_EQ(staged.result.verdict, base.result.verdict);
      EXPECT_EQ(staged.result.witness, base.result.witness);
      EXPECT_EQ(staged.result.reason(), base.result.reason());
      expect_same_stats(staged.result.stats, base.result.stats);
      expect_same_stats(staged.wasted_effort, {});
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(tally.portfolio_races, compared);
  EXPECT_EQ(tally.portfolio_escalations, 0u);
  EXPECT_EQ(tally.wasted_effort.states_visited, 0u);
}

TEST(StagedPortfolio, BeyondTheBudgetEscalatesToTheRace) {
  // Seeds 3 and 5 reduce to instances the unraced search decides in
  // ~15k (incoherent) and ~5k (coherent) states: past kSoloStates.
  for (const std::uint64_t seed : {3u, 5u}) {
    const Execution exec = reduction_instance(seed, 3);
    const AddressIndex index(exec);
    const auto base = analysis::verify_coherence_routed(index);
    ASSERT_EQ(base.routing.exact_routed, 1u) << "seed " << seed;
    ASSERT_GT(base.report.effort.states_visited, analysis::kSoloStates)
        << "seed " << seed << ": the instance no longer exceeds the budget";

    const auto raced =
        analysis::verify_coherence_routed(index, nullptr, {}, staged_portfolio());
    EXPECT_EQ(raced.routing.portfolio_races, 1u) << "seed " << seed;
    EXPECT_EQ(raced.routing.portfolio_escalations, 1u) << "seed " << seed;
    EXPECT_GE(raced.routing.wasted_effort.states_visited, analysis::kSoloStates)
        << "seed " << seed;
    ASSERT_EQ(raced.report.addresses.size(), 1u);
    const auto& address = raced.report.addresses[0];
    EXPECT_EQ(address.result.verdict, base.report.addresses[0].result.verdict)
        << "seed " << seed;
    ASSERT_NE(address.result.verdict, vmc::Verdict::kUnknown);
    const auto cert = certify::from_result(certify::Scope::kAddress,
                                           address.addr, address.result);
    const auto outcome = certify::check(exec, cert);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << ": " << outcome.violation;
  }
}

TEST(StagedPortfolio, DeadlineAndCancellationReturnWithoutEscalating) {
  const Execution exec = reduction_instance(3, 3);
  const AddressIndex index(exec);
  ASSERT_EQ(index.num_addresses(), 1u);
  const auto view = index.view_at(0);

  vmc::ExactOptions expired;
  expired.deadline = Deadline(std::chrono::nanoseconds(1));
  while (!expired.deadline.expired()) {
  }
  CancellationToken token;
  token.cancel();
  vmc::ExactOptions cancelled;
  cancelled.cancel = &token;

  for (const auto& [options, reason] :
       {std::pair{expired, certify::UnknownReason::kDeadline},
        std::pair{cancelled, certify::UnknownReason::kCancelled}}) {
    const auto staged =
        analysis::check_routed(view, nullptr, options, staged_portfolio());
    ASSERT_EQ(staged.decider, analysis::Decider::kExact);
    EXPECT_EQ(staged.result.verdict, vmc::Verdict::kUnknown);
    const certify::Unknown* why = staged.result.unknown_reason();
    ASSERT_NE(why, nullptr);
    EXPECT_EQ(why->reason, reason) << certify::to_string(reason);
    analysis::RouteTally tally;
    tally.add(staged);
    EXPECT_EQ(tally.portfolio_races, 1u);
    EXPECT_EQ(tally.portfolio_escalations, 0u);
    EXPECT_EQ(tally.wasted_effort.states_visited, 0u);
  }
}

TEST(StagedPortfolio, CallerBudgetBelowTheSoloBudgetStillDecides) {
  // A caller budget of 64 states (or transitions) stops the frontier
  // search in stage 1; it would stop it again in a race, so only CDCL
  // and bounded-k race, and the verdict is the one the three-engine
  // race reaches: CDCL's, which neither budget limits.
  vmc::ExactOptions few_states;
  few_states.max_states = 64;
  vmc::ExactOptions few_transitions;
  few_transitions.max_transitions = 64;
  for (const std::uint64_t seed : {1u, 3u}) {
    const Execution exec = reduction_instance(seed, 3);
    const AddressIndex index(exec);
    const auto base = analysis::verify_coherence_routed(index);
    for (const vmc::ExactOptions& tight : {few_states, few_transitions}) {
      const auto raced = analysis::verify_coherence_routed(
          index, nullptr, tight, staged_portfolio());
      EXPECT_EQ(raced.report.verdict, base.report.verdict) << "seed " << seed;
      EXPECT_EQ(raced.routing.portfolio_escalations, 1u) << "seed " << seed;
      EXPECT_EQ(raced.routing.engine_wins[static_cast<std::size_t>(
                    analysis::Engine::kExactSearch)],
                0u)
          << "seed " << seed;
      EXPECT_GT(raced.routing.wasted_effort.states_visited, 0u);
    }
  }
}

}  // namespace
}  // namespace vermem
