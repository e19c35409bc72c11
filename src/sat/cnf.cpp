#include "sat/cnf.hpp"

#include "support/format.hpp"

namespace vermem::sat {

namespace {
// Lit::from_dimacs takes an int: a larger variable count would let
// literal tokens wrap onto other variables.
constexpr long long kMaxDimacsVars = 2147483647;
}  // namespace

std::size_t Cnf::num_literals() const noexcept {
  std::size_t total = 0;
  for (const auto& clause : clauses) total += clause.size();
  return total;
}

bool Cnf::satisfied_by(const std::vector<bool>& model) const {
  if (model.size() < num_vars) return false;
  for (const auto& clause : clauses) {
    bool clause_true = false;
    for (const Lit lit : clause) {
      if (model[lit.var()] != lit.negated()) {
        clause_true = true;
        break;
      }
    }
    if (!clause_true) return false;
  }
  return true;
}

bool Cnf::is_ksat(std::size_t k) const noexcept {
  for (const auto& clause : clauses)
    if (clause.size() != k) return false;
  return true;
}

std::string to_dimacs(const Cnf& cnf) {
  std::string out = "p cnf " + std::to_string(cnf.num_vars) + ' ' +
                    std::to_string(cnf.clauses.size()) + '\n';
  for (const auto& clause : cnf.clauses) {
    for (const Lit lit : clause) {
      out += std::to_string(lit.to_dimacs());
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

DimacsResult parse_dimacs(std::string_view text) {
  DimacsResult result;
  bool saw_header = false;
  long long declared_vars = 0;
  Clause current;
  for (std::string_view line : split(text, '\n')) {
    line = trim(line);
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      const auto fields = split_ws(line);
      long long declared_clauses = 0;
      if (saw_header || fields.size() != 4 || fields[1] != "cnf" ||
          !parse_i64(fields[2], declared_vars) ||
          !parse_i64(fields[3], declared_clauses) || declared_vars < 0) {
        result.error = "malformed DIMACS header";
        return result;
      }
      if (declared_vars > kMaxDimacsVars) {
        result.error = "DIMACS variable count exceeds " +
                       std::to_string(kMaxDimacsVars);
        return result;
      }
      saw_header = true;
      result.cnf.reserve_vars(static_cast<Var>(declared_vars));
      continue;
    }
    if (!saw_header) {
      result.error = "clause before DIMACS header";
      return result;
    }
    for (std::string_view tok : split_ws(line)) {
      long long v = 0;
      if (!parse_i64(tok, v) || v < -declared_vars || v > declared_vars) {
        result.error = "bad literal token: " + std::string(tok);
        return result;
      }
      if (v == 0) {
        result.cnf.add_clause(current);
        current.clear();
      } else {
        current.push_back(Lit::from_dimacs(static_cast<int>(v)));
      }
    }
  }
  if (!current.empty()) {
    result.error = "last clause not terminated by 0";
    return result;
  }
  if (!saw_header) result.error = "missing DIMACS header";
  return result;
}

}  // namespace vermem::sat
