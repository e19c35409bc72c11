#include "sat/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "obs/flight.hpp"
#include "obs/log.hpp"

namespace vermem::sat {

namespace {

constexpr std::uint32_t kNoReason = std::numeric_limits<std::uint32_t>::max();
constexpr int kUndef = 0, kTrue = 1, kFalse = -1;

/// Luby restart sequence: 1,1,2,1,1,2,4,...
std::uint64_t luby(std::uint64_t i) {
  // Find the subsequence containing index i (1-based) and its position.
  std::uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::uint64_t{1} << seq;
}

/// Indexed max-heap over variable activities (MiniSat-style order heap).
class ActivityHeap {
 public:
  explicit ActivityHeap(const std::vector<double>& activity) : activity_(activity) {}

  void grow(Var n) { position_.resize(n, -1); }

  [[nodiscard]] bool contains(Var v) const { return position_[v] >= 0; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  void insert(Var v) {
    if (contains(v)) return;
    position_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    sift_up(heap_.size() - 1);
  }

  Var pop() {
    const Var top = heap_[0];
    position_[top] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      position_[heap_[0]] = 0;
      sift_down(0);
    }
    return top;
  }

  /// Re-heapify after v's activity increased.
  void increased(Var v) {
    if (contains(v)) sift_up(static_cast<std::size_t>(position_[v]));
  }

 private:
  [[nodiscard]] bool less(Var a, Var b) const { return activity_[a] < activity_[b]; }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(heap_[parent], heap_[i])) break;
      swap_nodes(i, parent);
      i = parent;
    }
  }
  void sift_down(std::size_t i) {
    while (true) {
      const std::size_t left = 2 * i + 1, right = 2 * i + 2;
      std::size_t best = i;
      if (left < heap_.size() && less(heap_[best], heap_[left])) best = left;
      if (right < heap_.size() && less(heap_[best], heap_[right])) best = right;
      if (best == i) break;
      swap_nodes(i, best);
      i = best;
    }
  }
  void swap_nodes(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    position_[heap_[a]] = static_cast<int>(a);
    position_[heap_[b]] = static_cast<int>(b);
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<int> position_;  ///< -1 when absent
};

}  // namespace

// The CDCL engine, persistent across solve() calls. Between calls the
// trail is always backtracked to decision level 0, so level-0 entries
// (input units, learned units, and their propagation consequences) are
// permanent — which is exactly why learned clauses stay sound:
// assumptions live at levels >= 1 and can never contaminate level 0.
struct IncrementalSolver::Impl {
  explicit Impl(SolverOptions options)
      : options_(options), log_proof_(options.log_proof), heap_(activity_) {}

  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_limits_.size());
  }
  [[nodiscard]] int value(Lit l) const {
    const int v = assigns_[l.var()];
    return l.negated() ? -v : v;
  }

  Var new_var() {
    const Var v = num_vars_++;
    assigns_.push_back(kUndef);
    level_.push_back(0);
    reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    saved_phase_.push_back(false);
    seen_.push_back(0);
    watches_.resize(2 * num_vars_);
    heap_.grow(num_vars_);
    heap_.insert(v);
    inputs_.num_vars = num_vars_;
    return v;
  }

  void reserve_vars(Var n) {
    while (num_vars_ < n) (void)new_var();
  }

  bool add_clause(Clause clause) {
    if (!ok_) return false;
    if (!frames_.empty()) clause.push_back(neg(frames_.back()));
    return add_root_clause(std::move(clause));
  }

  bool add_guarded(Var act, Clause clause) {
    if (!ok_) return false;
    clause.push_back(neg(act));
    return add_root_clause(std::move(clause));
  }

  // Adds one top-level clause. The solver is at decision level 0 here
  // (solve() always backtracks before returning), and propagation is
  // first driven to fixpoint so "false at level 0" below means "false
  // and already processed" — which makes picking any two non-false
  // literals as watches sound.
  bool add_root_clause(Clause clause) {
    assert(decision_level() == 0);
    if (propagate() != kNoReason) return fail();

    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    for (std::size_t i = 0; i + 1 < clause.size(); ++i)
      if (clause[i].var() == clause[i + 1].var()) return true;  // tautology

    inputs_.clauses.push_back(clause);
    if (clause.empty()) return fail();
    if (clause.size() == 1) {
      if (value(clause[0]) == kFalse) return fail();
      if (value(clause[0]) == kUndef) {
        enqueue(clause[0], kNoReason);
        if (propagate() != kNoReason) return fail();
      }
      return true;
    }
    // Move two non-false literals into the watch slots. A clause with
    // one non-false literal is unit (or already satisfied) under the
    // permanent level-0 assignment; with zero it refutes the formula.
    std::size_t non_false = 0;
    for (std::size_t i = 0; i < clause.size() && non_false < 2; ++i)
      if (value(clause[i]) != kFalse) std::swap(clause[non_false++], clause[i]);
    if (non_false == 0) {
      attach(std::move(clause));
      return fail();
    }
    if (non_false == 1) {
      const Lit unit = clause[0];
      attach(std::move(clause));
      if (value(unit) == kUndef) {
        enqueue(unit, kNoReason);
        if (propagate() != kNoReason) return fail();
      }
      return true;
    }
    attach(std::move(clause));
    return true;
  }

  bool fail() {
    ok_ = false;
    return false;
  }

  std::uint32_t attach(Clause clause) {
    const auto ref = static_cast<std::uint32_t>(clauses_.size());
    watches_[(~clause[0]).code()].push_back(ref);
    watches_[(~clause[1]).code()].push_back(ref);
    clauses_.push_back(std::move(clause));
    return ref;
  }

  void enqueue(Lit l, std::uint32_t reason) {
    assert(value(l) == kUndef);
    assigns_[l.var()] = l.negated() ? kFalse : kTrue;
    level_[l.var()] = decision_level();
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }

  /// Two-watched-literal propagation. Returns a conflicting clause ref,
  /// or kNoReason if propagation reached a fixpoint.
  std::uint32_t propagate() {
    while (propagate_head_ < trail_.size()) {
      const Lit p = trail_[propagate_head_++];  // p became true
      ++stats_.propagations;
      auto& watch_list = watches_[p.code()];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < watch_list.size(); ++i) {
        const std::uint32_t ref = watch_list[i];
        Clause& clause = clauses_[ref];
        // Normalize: the falsified literal (~p) goes to slot 1.
        const Lit false_lit = ~p;
        if (clause[0] == false_lit) std::swap(clause[0], clause[1]);
        assert(clause[1] == false_lit);
        if (value(clause[0]) == kTrue) {
          watch_list[keep++] = ref;  // clause satisfied; keep watch
          continue;
        }
        // Look for a new literal to watch.
        bool moved = false;
        for (std::size_t k = 2; k < clause.size(); ++k) {
          if (value(clause[k]) != kFalse) {
            std::swap(clause[1], clause[k]);
            watches_[(~clause[1]).code()].push_back(ref);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        // Unit or conflicting.
        watch_list[keep++] = ref;
        if (value(clause[0]) == kFalse) {
          // Conflict: restore remaining watches and report.
          for (std::size_t j = i + 1; j < watch_list.size(); ++j)
            watch_list[keep++] = watch_list[j];
          watch_list.resize(keep);
          propagate_head_ = trail_.size();
          return ref;
        }
        enqueue(clause[0], ref);
      }
      watch_list.resize(keep);
    }
    return kNoReason;
  }

  /// First-UIP conflict analysis; produces the learned clause (asserting
  /// literal in slot 0) and the backtrack level. Decisions — including
  /// assumptions and frame activations — have no reason clause and are
  /// never resolved away: they surface in the learned clause as negated
  /// literals, which is what keeps retained clauses unconditionally
  /// valid.
  void analyze(std::uint32_t conflict, std::vector<Lit>& learned, int& backtrack_level) {
    learned.clear();
    learned.push_back(Lit{});  // placeholder for the asserting literal
    int counter = 0;
    Lit p{};
    bool have_p = false;
    std::size_t trail_index = trail_.size();
    to_clear_.clear();

    std::uint32_t reason_ref = conflict;
    while (true) {
      assert(reason_ref != kNoReason);
      const Clause& clause = clauses_[reason_ref];
      const std::size_t start = have_p ? 1 : 0;  // skip the asserting literal
      for (std::size_t i = start; i < clause.size(); ++i) {
        const Lit q = clause[i];
        if (have_p && q == p) continue;
        if (seen_[q.var()] || level_[q.var()] == 0) continue;
        seen_[q.var()] = 1;
        to_clear_.push_back(q.var());
        bump_activity(q.var());
        if (level_[q.var()] == decision_level())
          ++counter;
        else
          learned.push_back(q);
      }
      // Select next literal to expand: most recent trail entry that is seen.
      while (!seen_[trail_[trail_index - 1].var()]) --trail_index;
      p = trail_[--trail_index];
      have_p = true;
      seen_[p.var()] = 0;
      reason_ref = reason_[p.var()];
      if (--counter == 0) break;
    }
    learned[0] = ~p;

    minimize(learned);
    stats_.learned_literals += learned.size();

    // Compute backtrack level = second-highest level in the clause.
    if (learned.size() == 1) {
      backtrack_level = 0;
    } else {
      std::size_t max_i = 1;
      for (std::size_t i = 2; i < learned.size(); ++i)
        if (level_[learned[i].var()] > level_[learned[max_i].var()]) max_i = i;
      std::swap(learned[1], learned[max_i]);
      backtrack_level = level_[learned[1].var()];
    }
    for (const Var v : to_clear_) seen_[v] = 0;
  }

  /// Recursive learned-clause minimization (MiniSat's litRedundant).
  void minimize(std::vector<Lit>& learned) {
    // seen_ is 1 for every var currently in `learned` (cleared by caller
    // afterwards); mark them so redundancy checks can use the set.
    for (const Lit l : learned) seen_[l.var()] = 1;
    std::size_t kept = 1;
    for (std::size_t i = 1; i < learned.size(); ++i) {
      if (reason_[learned[i].var()] == kNoReason || !redundant(learned[i])) {
        learned[kept++] = learned[i];
      } else {
        ++stats_.minimized_literals;
      }
    }
    learned.resize(kept);
  }

  bool redundant(Lit p) {
    std::vector<Lit> stack{p};
    std::vector<Var> marked;
    while (!stack.empty()) {
      const Lit q = stack.back();
      stack.pop_back();
      const std::uint32_t ref = reason_[q.var()];
      if (ref == kNoReason) {
        for (const Var v : marked) seen_[v] = 0;
        return false;
      }
      const Clause& clause = clauses_[ref];
      for (std::size_t i = 1; i < clause.size(); ++i) {
        const Lit l = clause[i];
        if (seen_[l.var()] || level_[l.var()] == 0) continue;
        if (reason_[l.var()] == kNoReason) {
          for (const Var v : marked) seen_[v] = 0;
          return false;
        }
        seen_[l.var()] = 1;
        marked.push_back(l.var());
        stack.push_back(l);
      }
    }
    // The marked vars stay seen (they are provably redundant too); record
    // them so analyze() clears the flags when it finishes.
    to_clear_.insert(to_clear_.end(), marked.begin(), marked.end());
    return true;
  }

  /// Failed-assumption core (MiniSat's analyzeFinal): walks the trail
  /// from the falsified assumption's implication graph back to the
  /// assumption decisions it rests on. All decisions on the trail are
  /// assumptions here — free decisions only ever sit above the full
  /// assumption prefix and have been backtracked away.
  void analyze_final(Lit p, std::vector<Lit>& core) {
    core.clear();
    core.push_back(~p);
    if (level_[p.var()] == 0) return;  // ~p is database-implied
    seen_[p.var()] = 1;
    const std::size_t floor = trail_limits_.empty() ? trail_.size() : trail_limits_[0];
    for (std::size_t i = trail_.size(); i-- > floor;) {
      const Var x = trail_[i].var();
      if (!seen_[x]) continue;
      seen_[x] = 0;
      if (reason_[x] == kNoReason) {
        assert(level_[x] > 0);
        core.push_back(~trail_[i]);
      } else {
        const Clause& clause = clauses_[reason_[x]];
        for (std::size_t j = 1; j < clause.size(); ++j)
          if (level_[clause[j].var()] > 0) seen_[clause[j].var()] = 1;
      }
    }
    seen_[p.var()] = 0;
  }

  void add_learned(const std::vector<Lit>& learned) {
    ++stats_.learned_clauses;
    if (learned.size() == 1) {
      enqueue(learned[0], kNoReason);
      return;
    }
    const std::uint32_t ref = attach(learned);
    enqueue(learned[0], ref);
  }

  void cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const std::size_t floor = trail_limits_[target_level];
    for (std::size_t i = trail_.size(); i > floor; --i) {
      const Var v = trail_[i - 1].var();
      saved_phase_[v] = assigns_[v] == kTrue;
      assigns_[v] = kUndef;
      reason_[v] = kNoReason;
      heap_.insert(v);
    }
    trail_.resize(floor);
    trail_limits_.resize(target_level);
    propagate_head_ = floor;
  }

  /// VSIDS: the most active unassigned variable, in its saved phase.
  Lit pick_branch() {
    while (!heap_.empty()) {
      const Var v = heap_.pop();
      if (assigns_[v] == kUndef) return Lit(v, !saved_phase_[v]);
    }
    return Lit{};
  }

  void bump_activity(Var v) {
    activity_[v] += activity_increment_;
    if (activity_[v] > 1e100) {
      for (auto& a : activity_) a *= 1e-100;
      activity_increment_ *= 1e-100;
    }
    heap_.increased(v);
  }
  void decay_activities() { activity_increment_ /= 0.95; }

  /// Luby restarts, unit 128 conflicts.
  std::uint64_t next_restart_budget() { return 128 * luby(restart_index_++); }

  /// Copies the cumulative proof log plus (optionally) the empty clause
  /// into a per-call result. Every retained learned clause was RUP at
  /// its derivation time and stays RUP against the grown formula.
  void export_proof(SolveResult& result, bool refuted) const {
    if (!log_proof_) return;
    result.proof = retained_proof_;
    if (refuted) result.proof.push_back({});
  }

  SolveResult run(const std::vector<Lit>& assumptions) {
    ++num_solves_;
    const SolverStats before = stats_;
    SolveResult result;

    // Open stack frames are implicit assumptions, in push order, ahead
    // of the caller's.
    assumps_.clear();
    for (const Var act : frames_) assumps_.push_back(pos(act));
    assumps_.insert(assumps_.end(), assumptions.begin(), assumptions.end());

    if (!ok_) {
      result.status = Status::kUnsat;
      export_proof(result, /*refuted=*/true);
      result.stats = delta(before);
      return result;
    }

    std::uint64_t conflicts_until_restart = next_restart_budget();
    const std::uint64_t conflict_floor = stats_.conflicts;
    // The deadline and cancel token are polled on the first decision of
    // every call and then every 64 decisions. The counter is this call's
    // own: a gate on the cumulative conflict count can stay shut for a
    // whole call that starts off its period and meets few conflicts.
    std::uint64_t until_poll = 0;

    while (true) {
      const std::uint32_t conflict = propagate();
      if (conflict != kNoReason) {
        ++stats_.conflicts;
        if (decision_level() == 0) {
          // UNSAT independent of any assumption — and permanently so.
          ok_ = false;
          result.status = Status::kUnsat;
          export_proof(result, /*refuted=*/true);
          break;
        }
        std::vector<Lit> learned;
        int backtrack_level = 0;
        analyze(conflict, learned, backtrack_level);
        cancel_until(backtrack_level);
        if (log_proof_) retained_proof_.push_back(learned);
        add_learned(learned);
        decay_activities();
        if (options_.max_conflicts != 0 &&
            stats_.conflicts - conflict_floor >= options_.max_conflicts) {
          result.status = Status::kUnknown;
          break;
        }
        if (conflicts_until_restart > 0) --conflicts_until_restart;
      } else {
        if (conflicts_until_restart == 0 && decision_level() > 0) {
          ++stats_.restarts;
          obs::flight_event(obs::FlightEventKind::kSolverRestart,
                            "luby restart", stats_.restarts,
                            stats_.conflicts);
          static const obs::LogSite restart_site =
              obs::log_site("sat.restart", 4.0, 8.0);
          if (restart_site.should(obs::LogLevel::kDebug))
            obs::LogLine(restart_site, obs::LogLevel::kDebug, "CDCL restart")
                .field("restarts", stats_.restarts)
                .field("conflicts", stats_.conflicts)
                .field("learned", stats_.learned_clauses);
          cancel_until(0);
          conflicts_until_restart = next_restart_budget();
          continue;
        }
        if (until_poll-- == 0) {
          until_poll = 63;
          if (options_.deadline.expired() ||
              (options_.cancel && options_.cancel->cancelled())) {
            result.status = Status::kUnknown;
            break;
          }
        }
        // Place pending assumptions as pseudo-decisions before any free
        // decision. Already-true assumptions still get their own (empty)
        // decision level so level index i+1 always corresponds to
        // assumption i.
        Lit decision{};
        bool have_decision = false;
        bool assumption_failed = false;
        while (decision_level() < static_cast<int>(assumps_.size())) {
          const Lit a = assumps_[static_cast<std::size_t>(decision_level())];
          const int val = value(a);
          if (val == kTrue) {
            trail_limits_.push_back(trail_.size());
            continue;
          }
          if (val == kFalse) {
            analyze_final(a, result.conflict);
            result.status = Status::kUnsat;
            export_proof(result, /*refuted=*/true);
            assumption_failed = true;
            break;
          }
          decision = a;
          have_decision = true;
          break;
        }
        if (assumption_failed) break;
        if (!have_decision) decision = pick_branch();
        if (decision == Lit{} && trail_.size() == num_vars_) {
          result.status = Status::kSat;
          result.model.resize(num_vars_);
          for (Var v = 0; v < num_vars_; ++v) result.model[v] = assigns_[v] == kTrue;
          break;
        }
        ++stats_.decisions;
        trail_limits_.push_back(trail_.size());
        enqueue(decision, kNoReason);
      }
    }

    if (result.status != Status::kUnsat) export_proof(result, /*refuted=*/false);
    cancel_until(0);
    if (result.status == Status::kSat && options_.verify_models) {
      bool satisfied = inputs_.satisfied_by(result.model);
      for (const Lit a : assumps_)
        if (result.model[a.var()] == a.negated()) satisfied = false;
      // A model that does not satisfy the formula (or the assumptions)
      // is a solver bug; fail loudly rather than report a wrong answer.
      if (!satisfied) std::abort();
    }
    result.stats = delta(before);
    return result;
  }

  [[nodiscard]] SolverStats delta(const SolverStats& before) const {
    SolverStats d;
    d.decisions = stats_.decisions - before.decisions;
    d.propagations = stats_.propagations - before.propagations;
    d.conflicts = stats_.conflicts - before.conflicts;
    d.restarts = stats_.restarts - before.restarts;
    d.learned_clauses = stats_.learned_clauses - before.learned_clauses;
    d.learned_literals = stats_.learned_literals - before.learned_literals;
    d.minimized_literals = stats_.minimized_literals - before.minimized_literals;
    return d;
  }

  SolverOptions options_;
  const bool log_proof_;  ///< latched: retention must cover every call
  Var num_vars_ = 0;
  bool ok_ = true;

  Cnf inputs_;  ///< every accepted input clause, for formula()/proof replay

  std::vector<Clause> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  ///< by literal code

  std::vector<int> assigns_;  ///< kUndef / kTrue / kFalse per var
  std::vector<int> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_limits_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double activity_increment_ = 1.0;
  ActivityHeap heap_;
  std::vector<bool> saved_phase_;
  std::vector<char> seen_;
  std::vector<Var> to_clear_;

  std::vector<Var> frames_;    ///< open stack frames' activation vars
  std::vector<Lit> assumps_;   ///< this call's effective assumptions

  std::uint64_t restart_index_ = 0;
  std::uint64_t num_solves_ = 0;
  std::vector<Clause> retained_proof_;  ///< cumulative learned-clause log
  SolverStats stats_;                   ///< cumulative across calls
};

IncrementalSolver::IncrementalSolver(SolverOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
IncrementalSolver::~IncrementalSolver() = default;
IncrementalSolver::IncrementalSolver(IncrementalSolver&&) noexcept = default;
IncrementalSolver& IncrementalSolver::operator=(IncrementalSolver&&) noexcept = default;

SolverOptions& IncrementalSolver::options() noexcept { return impl_->options_; }

Var IncrementalSolver::new_var() { return impl_->new_var(); }
void IncrementalSolver::reserve_vars(Var n) { impl_->reserve_vars(n); }

bool IncrementalSolver::add_clause(Clause clause) {
  return impl_->add_clause(std::move(clause));
}

bool IncrementalSolver::add_cnf(const Cnf& cnf) {
  impl_->reserve_vars(cnf.num_vars);
  for (const Clause& clause : cnf.clauses)
    if (!impl_->add_clause(clause)) return false;
  return true;
}

Var IncrementalSolver::new_activation() { return impl_->new_var(); }

bool IncrementalSolver::add_guarded(Var act, Clause clause) {
  return impl_->add_guarded(act, std::move(clause));
}

void IncrementalSolver::retire(Var act) {
  (void)impl_->add_root_clause(Clause{neg(act)});
}

Var IncrementalSolver::push() {
  const Var act = impl_->new_var();
  impl_->frames_.push_back(act);
  return act;
}

void IncrementalSolver::pop() {
  assert(!impl_->frames_.empty());
  const Var act = impl_->frames_.back();
  impl_->frames_.pop_back();
  (void)impl_->add_root_clause(Clause{neg(act)});
}

std::size_t IncrementalSolver::depth() const noexcept {
  return impl_->frames_.size();
}

SolveResult IncrementalSolver::solve(const std::vector<Lit>& assumptions) {
  return impl_->run(assumptions);
}

const Cnf& IncrementalSolver::formula() const noexcept { return impl_->inputs_; }

Cnf IncrementalSolver::formula_with(const std::vector<Lit>& assumptions) const {
  Cnf cnf = impl_->inputs_;
  for (const Var act : impl_->frames_) cnf.clauses.push_back({pos(act)});
  for (const Lit a : assumptions) cnf.clauses.push_back({a});
  return cnf;
}

const SolverStats& IncrementalSolver::cumulative_stats() const noexcept {
  return impl_->stats_;
}
Var IncrementalSolver::num_vars() const noexcept { return impl_->num_vars_; }
bool IncrementalSolver::ok() const noexcept { return impl_->ok_; }
std::uint64_t IncrementalSolver::num_solves() const noexcept {
  return impl_->num_solves_;
}
std::size_t IncrementalSolver::num_retained() const noexcept {
  return impl_->retained_proof_.size();
}

}  // namespace vermem::sat
