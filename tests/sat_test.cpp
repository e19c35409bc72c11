// Unit + property tests for the SAT substrate: CNF model, DIMACS I/O,
// CDCL solver, brute force, generators, RUP proof checking.

#include <gtest/gtest.h>

#include "sat/brute.hpp"
#include "sat/cnf.hpp"
#include "sat/gen.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace vermem::sat {
namespace {

/// No-op sink so fuzz results are "used" without asserting on them.
void benchmark_guard(Status) {}

Cnf tiny_sat() {
  // (x0 | x1) & (~x0 | x1) & (~x1 | x2)  -- satisfiable, forces x1, x2.
  Cnf cnf;
  cnf.reserve_vars(3);
  cnf.add_binary(pos(0), pos(1));
  cnf.add_binary(neg(0), pos(1));
  cnf.add_binary(neg(1), pos(2));
  return cnf;
}

Cnf tiny_unsat() {
  // x0 & ~x0 via two forced chains.
  Cnf cnf;
  cnf.reserve_vars(2);
  cnf.add_unit(pos(0));
  cnf.add_binary(neg(0), pos(1));
  cnf.add_binary(neg(0), neg(1));
  return cnf;
}

TEST(Lit, PackingAndNegation) {
  const Lit l = pos(5);
  EXPECT_EQ(l.var(), 5u);
  EXPECT_FALSE(l.negated());
  EXPECT_TRUE((~l).negated());
  EXPECT_EQ(~~l, l);
  EXPECT_EQ(l.to_dimacs(), 6);
  EXPECT_EQ((~l).to_dimacs(), -6);
  EXPECT_EQ(Lit::from_dimacs(-6), ~l);
}

TEST(Cnf, SatisfiedBy) {
  const Cnf cnf = tiny_sat();
  EXPECT_TRUE(cnf.satisfied_by({false, true, true}));
  EXPECT_FALSE(cnf.satisfied_by({false, false, true}));
  EXPECT_FALSE(cnf.satisfied_by({true}));  // short model
}

TEST(Cnf, Counters) {
  const Cnf cnf = tiny_sat();
  EXPECT_EQ(cnf.num_clauses(), 3u);
  EXPECT_EQ(cnf.num_literals(), 6u);
  EXPECT_TRUE(cnf.is_ksat(2));
  EXPECT_FALSE(cnf.is_ksat(3));
}

TEST(Dimacs, RoundTrip) {
  const Cnf cnf = tiny_sat();
  const auto parsed = parse_dimacs(to_dimacs(cnf));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.cnf.num_vars, cnf.num_vars);
  EXPECT_EQ(parsed.cnf.clauses, cnf.clauses);
}

TEST(Dimacs, AcceptsCommentsAndBlankLines) {
  const auto parsed = parse_dimacs("c hello\n\np cnf 2 1\n1 -2 0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.cnf.num_vars, 2u);
  ASSERT_EQ(parsed.cnf.num_clauses(), 1u);
}

TEST(Dimacs, RejectsMalformed) {
  EXPECT_FALSE(parse_dimacs("1 0\n").ok());             // clause before header
  EXPECT_FALSE(parse_dimacs("p cnf x 1\n").ok());       // bad header
  EXPECT_FALSE(parse_dimacs("p cnf 2 1\n1 -2\n").ok()); // unterminated clause
  EXPECT_FALSE(parse_dimacs("p cnf 2 1\n3 0\n").ok());  // var out of range
  EXPECT_FALSE(parse_dimacs("").ok());                  // empty
  // Counts and literals beyond Lit's 31-bit variable range, which would
  // otherwise wrap onto other variables.
  EXPECT_FALSE(parse_dimacs("p cnf 5000000000 1\n4294967297 0\n").ok());
  EXPECT_FALSE(parse_dimacs("p cnf 3000000000 1\n-2999999999 0\n").ok());
}

TEST(Solver, SolvesTinySat) {
  const auto result = solve(tiny_sat());
  ASSERT_EQ(result.status, Status::kSat);
  EXPECT_TRUE(tiny_sat().satisfied_by(result.model));
}

TEST(Solver, RefutesTinyUnsat) {
  EXPECT_EQ(solve(tiny_unsat()).status, Status::kUnsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  EXPECT_EQ(solve(Cnf{}).status, Status::kSat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_clause({});
  EXPECT_EQ(solve(cnf).status, Status::kUnsat);
}

TEST(Solver, TautologicalClauseIgnored) {
  Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_binary(pos(0), neg(0));
  EXPECT_EQ(solve(cnf).status, Status::kSat);
}

TEST(Solver, ContradictingUnitsUnsat) {
  Cnf cnf;
  cnf.reserve_vars(1);
  cnf.add_unit(pos(0));
  cnf.add_unit(neg(0));
  EXPECT_EQ(solve(cnf).status, Status::kUnsat);
}

TEST(Solver, PigeonholeUnsat) {
  for (std::size_t holes : {1, 2, 3, 4, 5}) {
    EXPECT_EQ(solve(pigeonhole(holes)).status, Status::kUnsat) << holes;
  }
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  SolverOptions options;
  options.max_conflicts = 1;
  const auto result = solve(pigeonhole(6), options);
  // With a single allowed conflict the solver cannot finish PHP(7,6).
  EXPECT_EQ(result.status, Status::kUnknown);
}

TEST(Brute, FindsAllModelsOfXor) {
  // x0 XOR x1: (x0|x1) & (~x0|~x1) has exactly two models.
  Cnf cnf;
  cnf.reserve_vars(2);
  cnf.add_binary(pos(0), pos(1));
  cnf.add_binary(neg(0), neg(1));
  EXPECT_EQ(count_models(cnf), 2u);
  const auto model = solve_brute(cnf);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(cnf.satisfied_by(*model));
}

TEST(Generators, RandomKsatShape) {
  Xoshiro256ss rng(1);
  const Cnf cnf = random_ksat(20, 50, 3, rng);
  EXPECT_EQ(cnf.num_vars, 20u);
  EXPECT_EQ(cnf.num_clauses(), 50u);
  EXPECT_TRUE(cnf.is_ksat(3));
  for (const auto& clause : cnf.clauses) {
    EXPECT_NE(clause[0].var(), clause[1].var());
    EXPECT_NE(clause[1].var(), clause[2].var());
    EXPECT_NE(clause[0].var(), clause[2].var());
  }
}

TEST(Generators, PlantedIsSatisfiedByPlant) {
  Xoshiro256ss rng(2);
  std::vector<bool> planted;
  const Cnf cnf = planted_ksat(30, 120, 3, rng, planted);
  EXPECT_TRUE(cnf.satisfied_by(planted));
  const auto result = solve(cnf);
  EXPECT_EQ(result.status, Status::kSat);
}

TEST(Generators, PigeonholeShape) {
  const Cnf cnf = pigeonhole(3);
  EXPECT_EQ(cnf.num_vars, 12u);        // 4 pigeons x 3 holes
  EXPECT_EQ(cnf.num_clauses(), 4 + 18u);  // 4 "somewhere" + 3*C(4,2) pairs
}

// Property test: CDCL and brute force agree on random instances.
TEST(SolverAgreement, MatchesBruteForceOnRandom3Sat) {
  Xoshiro256ss rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const Var nvars = static_cast<Var>(4 + rng.below(10));
    // Sweep across the under/over-constrained regimes.
    const auto nclauses = static_cast<std::size_t>(1 + rng.below(6 * nvars));
    const Cnf cnf = random_ksat(nvars, nclauses, 3, rng);
    const bool brute_sat = solve_brute(cnf).has_value();

    const auto cdcl = solve(cnf);
    ASSERT_NE(cdcl.status, Status::kUnknown);
    EXPECT_EQ(cdcl.status == Status::kSat, brute_sat)
        << "trial " << trial << " nvars=" << nvars << " nclauses=" << nclauses;
  }
}

TEST(RupCheck, OutOfRangeStepFailsWithoutThrowing) {
  // A step over variable 2^31-2 must not size the checker's tables.
  const Cnf cnf = pigeonhole(2);
  const Proof proof{{pos(2147483646)}, {}};
  bool checked = true;
  EXPECT_NO_THROW(checked = check_rup_proof(cnf, proof));
  EXPECT_FALSE(checked);
  // An input clause widened by one undeclared variable is still RUP, so
  // only the range check rejects this otherwise valid refutation.
  SolverOptions options;
  options.log_proof = true;
  Proof refutation = solve(cnf, options).proof;
  ASSERT_TRUE(check_rup_proof(cnf, refutation));
  Clause widened = cnf.clauses.front();
  widened.push_back(pos(cnf.num_vars));
  refutation.insert(refutation.begin(), widened);
  EXPECT_FALSE(check_rup_proof(cnf, refutation));
}

TEST(Dimacs, FuzzedInputNeverCrashes) {
  Xoshiro256ss rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const std::size_t len = rng.below(100);
    for (std::size_t i = 0; i < len; ++i) {
      const char* alphabet = "pcnf 0123456789-\n\t xyz";
      garbage.push_back(alphabet[rng.below(22)]);
    }
    const auto parsed = parse_dimacs(garbage);
    if (parsed.ok()) {
      // Whatever parsed must be well-formed enough to solve.
      const auto result = solve(parsed.cnf);
      benchmark_guard(result.status);
    }
  }
}

TEST(Solver, DeterministicAcrossRuns) {
  Xoshiro256ss rng(777);
  const Cnf cnf = random_ksat(40, 168, 3, rng);
  const auto a = solve(cnf);
  const auto b = solve(cnf);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.conflicts, b.stats.conflicts);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  if (a.status == Status::kSat) {
    EXPECT_EQ(a.model, b.model);
  }
}

TEST(Solver, ModelAlwaysCoversAllVariables) {
  Xoshiro256ss rng(888);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<bool> planted;
    const Cnf cnf = planted_ksat(12, 30, 3, rng, planted);
    const auto result = solve(cnf);
    ASSERT_EQ(result.status, Status::kSat);
    EXPECT_EQ(result.model.size(), cnf.num_vars);
  }
}

TEST(Solver, StatsArePopulated) {
  const auto result = solve(pigeonhole(4));
  EXPECT_EQ(result.status, Status::kUnsat);
  EXPECT_GT(result.stats.conflicts, 0u);
  EXPECT_GT(result.stats.decisions, 0u);
  EXPECT_GT(result.stats.propagations, 0u);
  EXPECT_GT(result.stats.learned_clauses, 0u);
}

TEST(Solver, HardSatisfiableNearThreshold) {
  // Random 3-SAT at ratio 4.2 with 60 vars: solvable quickly by CDCL.
  Xoshiro256ss rng(1234);
  std::vector<bool> planted;
  const Cnf cnf = planted_ksat(60, 252, 3, rng, planted);
  const auto result = solve(cnf);
  EXPECT_EQ(result.status, Status::kSat);
}

}  // namespace
}  // namespace vermem::sat
