// minisat_lite: the in-tree CDCL solver as a standalone DIMACS tool,
// with optional self-checked UNSAT proofs.
//
// Usage:
//   minisat_lite [--proof] [FILE.cnf]
//
// Reads DIMACS from FILE (or stdin), prints the standard "s SATISFIABLE /
// s UNSATISFIABLE" line plus a "v" model line when satisfiable. With
// --proof, UNSAT results are re-verified by the independent RUP checker
// before being reported. Exit codes follow the SAT-competition
// convention: 10 SAT, 20 UNSAT, 0 unknown/error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "sat/cnf.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace vermem;

  sat::SolverOptions options;
  bool want_proof = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--proof")
      want_proof = options.log_proof = true;
    else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "usage: minisat_lite [--proof] [FILE.cnf]\n");
      return 0;
    } else {
      path = arg;
    }
  }

  std::string text;
  if (path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 0;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  const auto parsed = sat::parse_dimacs(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 0;
  }
  std::printf("c vermem minisat_lite: %u vars, %zu clauses\n",
              parsed.cnf.num_vars, parsed.cnf.num_clauses());

  Stopwatch sw;
  const auto result = sat::solve(parsed.cnf, options);
  std::printf("c solved in %.3f s (%llu conflicts, %llu decisions)\n",
              sw.seconds(),
              static_cast<unsigned long long>(result.stats.conflicts),
              static_cast<unsigned long long>(result.stats.decisions));

  switch (result.status) {
    case sat::Status::kSat: {
      std::printf("s SATISFIABLE\nv");
      for (sat::Var v = 0; v < parsed.cnf.num_vars; ++v)
        std::printf(" %d", result.model[v] ? static_cast<int>(v) + 1
                                           : -(static_cast<int>(v) + 1));
      std::printf(" 0\n");
      return 10;
    }
    case sat::Status::kUnsat:
      if (want_proof) {
        const bool certified = sat::check_rup_proof(parsed.cnf, result.proof);
        std::printf("c RUP proof: %zu steps, %s\n", result.proof.size(),
                    certified ? "VERIFIED" : "REJECTED (solver bug!)");
        if (!certified) return 0;
      }
      std::printf("s UNSATISFIABLE\n");
      return 20;
    case sat::Status::kUnknown:
      std::printf("s UNKNOWN\n");
      return 0;
  }
  return 0;
}
