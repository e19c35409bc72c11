#pragma once
// Propositional CNF formulas.
//
// SAT plays two roles in this reproduction. It is the *source* of the
// paper's reductions (SAT -> VMC, Figure 4.1; 3SAT -> VMC, Figures
// 5.1/5.2; SAT -> VSCC, Figure 6.2), and it is the *engine* of the
// practical checker (VMC -> CNF -> CDCL, module encode/).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vermem::sat {

/// 0-based propositional variable index.
using Var = std::uint32_t;

/// A literal: variable plus polarity, packed as 2*var+sign.
/// sign=0 is the positive literal, sign=1 the negation.
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_(2 * v + (negated ? 1U : 0U)) {}

  [[nodiscard]] static constexpr Lit from_code(std::uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }
  /// DIMACS convention: +v / -v with v 1-based; v must be nonzero.
  [[nodiscard]] static constexpr Lit from_dimacs(int value) {
    return Lit(static_cast<Var>((value > 0 ? value : -value) - 1), value < 0);
  }

  [[nodiscard]] constexpr Var var() const noexcept { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const noexcept { return code_ & 1U; }
  [[nodiscard]] constexpr std::uint32_t code() const noexcept { return code_; }
  [[nodiscard]] constexpr Lit operator~() const noexcept {
    return from_code(code_ ^ 1U);
  }
  [[nodiscard]] constexpr int to_dimacs() const noexcept {
    const int v = static_cast<int>(var()) + 1;
    return negated() ? -v : v;
  }

  friend constexpr bool operator==(Lit, Lit) = default;
  friend constexpr auto operator<=>(Lit, Lit) = default;

 private:
  std::uint32_t code_ = 0;
};

/// Positive / negative literal of a variable (reads like the paper's u, ū).
[[nodiscard]] constexpr Lit pos(Var v) noexcept { return Lit(v, false); }
[[nodiscard]] constexpr Lit neg(Var v) noexcept { return Lit(v, true); }

using Clause = std::vector<Lit>;

/// A CNF formula: a conjunction of disjunctive clauses over num_vars
/// variables.
struct Cnf {
  Var num_vars = 0;
  std::vector<Clause> clauses;

  /// Ensures at least `n` variables exist.
  void reserve_vars(Var n) {
    if (n > num_vars) num_vars = n;
  }
  /// Allocates and returns a fresh variable.
  Var new_var() { return num_vars++; }

  void add_clause(Clause clause) { clauses.push_back(std::move(clause)); }
  void add_unit(Lit a) { clauses.push_back({a}); }
  void add_binary(Lit a, Lit b) { clauses.push_back({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { clauses.push_back({a, b, c}); }

  [[nodiscard]] std::size_t num_clauses() const noexcept { return clauses.size(); }
  /// Total literal occurrences (formula size).
  [[nodiscard]] std::size_t num_literals() const noexcept;

  /// True iff every clause has at least one literal true under `model`
  /// (model[v] is the truth value of variable v; must cover num_vars).
  [[nodiscard]] bool satisfied_by(const std::vector<bool>& model) const;

  /// True iff every clause has exactly k literals.
  [[nodiscard]] bool is_ksat(std::size_t k) const noexcept;
};

/// Serializes in DIMACS cnf format.
[[nodiscard]] std::string to_dimacs(const Cnf& cnf);

/// Parses DIMACS cnf; on malformed input `error` holds a message. A
/// header declaring more than 2^31-1 variables is malformed.
struct DimacsResult {
  Cnf cnf;
  std::string error;  ///< empty on success
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};
[[nodiscard]] DimacsResult parse_dimacs(std::string_view text);

}  // namespace vermem::sat
