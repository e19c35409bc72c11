#include "sat/proof.hpp"

#include <cstddef>
#include <utility>

namespace vermem::sat {

namespace {

constexpr int kUndef = 0, kTrue = 1, kFalse = -1;

/// Unit propagator over a growing clause database, tuned for RUP
/// replay: two-watched-literal propagation, a persistent list of unit
/// clauses (so each step seeds in O(units), not O(database)), and
/// trail-undo between steps instead of reassigning every variable.
/// Watches persist across steps because every assignment is retracted
/// before the database grows: with nothing assigned, any two literals
/// of a clause are valid watches.
class RupChecker {
 public:
  explicit RupChecker(const Cnf& cnf) {
    grow(cnf.num_vars);
    for (const Clause& clause : cnf.clauses) add_clause(clause);
  }

  void add_clause(const Clause& clause) {
    for (const Lit l : clause)
      if (l.var() >= num_vars_) grow(l.var() + 1);
    if (clause.empty()) {
      contradiction_ = true;
      return;
    }
    if (clause.size() == 1) {
      units_.push_back(clause[0]);
      return;
    }
    const std::size_t index = clauses_.size();
    clauses_.push_back(clause);
    watches_[clause[0].code()].push_back(index);
    watches_[clause[1].code()].push_back(index);
  }

  /// True iff asserting the negation of `clause` and unit-propagating
  /// yields a conflict (i.e. the clause is RUP).
  [[nodiscard]] bool is_rup(const Clause& clause) {
    if (contradiction_) return true;
    bool conflict = false;
    // Assert the negation; a literal already forced true by a duplicate
    // is a tautology corner (~l and l both in clause): conflict trivially.
    for (const Lit l : clause) {
      const int v = value(~l);
      if (v == kFalse) {
        conflict = true;
        break;
      }
      if (v == kUndef) assign(~l);
    }
    if (!conflict) {
      for (const Lit l : units_) {
        const int v = value(l);
        if (v == kFalse) {
          conflict = true;
          break;
        }
        if (v == kUndef) assign(l);
      }
    }
    if (!conflict) conflict = !propagate();
    for (const Lit l : trail_) assigns_[l.var()] = kUndef;
    trail_.clear();
    return conflict;
  }

 private:
  void grow(Var n) {
    num_vars_ = n;
    watches_.resize(2 * num_vars_);
    assigns_.resize(num_vars_, kUndef);
  }

  [[nodiscard]] int value(Lit l) const {
    const int v = assigns_[l.var()];
    return l.negated() ? -v : v;
  }
  void assign(Lit l) {
    assigns_[l.var()] = l.negated() ? kFalse : kTrue;
    trail_.push_back(l);
  }

  /// Returns false on conflict. Standard watched-literal scheme: when p
  /// lands on the trail, only clauses watching ~p are visited; each
  /// either finds a replacement watch, is satisfied, propagates its
  /// other watch, or conflicts.
  bool propagate() {
    std::size_t head = 0;
    while (head < trail_.size()) {
      const Lit p = trail_[head++];
      const Lit false_lit = ~p;
      auto& watchers = watches_[false_lit.code()];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < watchers.size(); ++i) {
        const std::size_t index = watchers[i];
        Clause& clause = clauses_[index];
        if (clause[0] == false_lit) std::swap(clause[0], clause[1]);
        if (value(clause[0]) == kTrue) {
          watchers[keep++] = index;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < clause.size(); ++k) {
          if (value(clause[k]) != kFalse) {
            std::swap(clause[1], clause[k]);
            watches_[clause[1].code()].push_back(index);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        watchers[keep++] = index;
        if (value(clause[0]) == kFalse) {
          // Conflict: retain the watchers not yet visited, then bail.
          for (++i; i < watchers.size(); ++i) watchers[keep++] = watchers[i];
          watchers.resize(keep);
          return false;
        }
        assign(clause[0]);
      }
      watchers.resize(keep);
    }
    return true;
  }

  Var num_vars_ = 0;
  bool contradiction_ = false;  ///< the database contains the empty clause
  std::vector<Clause> clauses_;
  std::vector<Lit> units_;
  std::vector<std::vector<std::size_t>> watches_;
  std::vector<int> assigns_;
  std::vector<Lit> trail_;
};

}  // namespace

bool check_rup_proof(const Cnf& cnf, const Proof& proof) {
  RupChecker checker(cnf);
  bool derived_empty = false;
  for (const Clause& step : proof) {
    // A step over a variable the formula does not declare is rejected
    // before it can size the checker's tables: the proof may be untrusted
    // certificate text naming any variable up to 2^31-2.
    for (const Lit l : step)
      if (l.var() >= cnf.num_vars) return false;
    if (!checker.is_rup(step)) return false;
    if (step.empty()) {
      derived_empty = true;
      break;  // refutation complete; later steps are irrelevant
    }
    checker.add_clause(step);
  }
  return derived_empty;
}

}  // namespace vermem::sat
