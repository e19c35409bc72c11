#include "encode/vmc_to_cnf.hpp"

#include <algorithm>
#include <numeric>
#include <variant>

#include "encode/context.hpp"
#include "search/engine.hpp"

namespace vermem::encode {

namespace {

constexpr std::size_t kInitial = SIZE_MAX;  ///< virtual "initial value" anchor

/// One read obligation: a pure read, or the read component of an RMW.
struct ReadItem {
  OpRef ref;
  Value value = 0;
  bool is_rmw = false;
  std::size_t self_write = kInitial;   ///< write index of the RMW itself
  std::size_t prev_write = kInitial;   ///< last own write before this op
  std::size_t next_write = kInitial;   ///< first own write after this op
  std::vector<std::size_t> candidates; ///< write indices (kInitial = d_I)
  std::vector<sat::Var> map_vars;      ///< parallel to candidates
};

}  // namespace

vmc::WriteOrder VmcEncoding::decode_write_order(
    const std::vector<bool>& model) const {
  const std::size_t w = writes.size();
  std::vector<std::size_t> rank(w, 0);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) {
      if (model[order_var(i, j)])
        ++rank[j];  // i before j
      else
        ++rank[i];
    }
  }
  std::vector<std::size_t> indices(w);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::sort(indices.begin(), indices.end(),
            [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  vmc::WriteOrder order;
  order.reserve(w);
  for (const std::size_t i : indices) order.push_back(writes[i]);
  return order;
}

VmcEncoding encode_vmc(const vmc::VmcInstance& instance) {
  return encode_vmc(instance, OrderHints{});
}

VmcEncoding encode_vmc(const vmc::VmcInstance& instance,
                       const OrderHints& hints,
                       const CancellationToken* cancel, Deadline deadline) {
  VmcEncoding enc;
  // Latches `interrupted` on the first poll that sees the token or the
  // deadline fire; each poll site then returns the partial encoding.
  const auto interrupted = [&] {
    if (deadline.expired() || (cancel != nullptr && cancel->cancelled()))
      enc.interrupted = true;
    return enc.interrupted;
  };
  if (interrupted()) return enc;
  EmitContext ctx(enc.cnf);
  if (const auto why = instance.malformed()) {
    enc.trivially_incoherent = true;
    enc.evidence = certify::Unknown{certify::UnknownReason::kMalformed, *why};
    ctx.add_clause({});
    return enc;
  }

  const Execution& exec = instance.execution;
  const Value initial = instance.initial_value();

  // Index the writing operations; remember each op's write index.
  std::vector<std::vector<std::size_t>> write_index_of(exec.num_processes());
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    const auto& history = exec.history(p);
    write_index_of[p].assign(history.size(), kInitial);
    for (std::uint32_t i = 0; i < history.size(); ++i) {
      if (history[i].writes_memory()) {
        write_index_of[p][i] = enc.writes.size();
        enc.writes.push_back(OpRef{p, i});
      }
    }
  }
  const std::size_t w = enc.writes.size();

  // Order variables o(i,j) for i < j.
  enc.order_vars.resize(w * (w - 1) / 2);
  for (auto& var : enc.order_vars) var = ctx.new_var();
  auto order_lit = [&](std::size_t i, std::size_t j) {
    // Literal that is true iff write i precedes write j.
    return i < j ? sat::pos(enc.order_var(i, j)) : sat::neg(enc.order_var(j, i));
  };

  // Transitivity over all ordered triples.
  for (std::size_t i = 0; i < w; ++i) {
    if (interrupted()) return enc;
    for (std::size_t j = 0; j < w; ++j) {
      if (j == i) continue;
      for (std::size_t k = 0; k < w; ++k) {
        if (k == i || k == j) continue;
        ctx.add_ternary(~order_lit(i, j), ~order_lit(j, k), order_lit(i, k));
      }
    }
  }

  // Program order between same-history writes (consecutive pairs suffice
  // by transitivity).
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    std::size_t prev = kInitial;
    for (std::uint32_t i = 0; i < exec.history(p).size(); ++i) {
      const std::size_t wi = write_index_of[p][i];
      if (wi == kInitial) continue;
      if (prev != kInitial) ctx.add_unit(order_lit(prev, wi));
      prev = wi;
    }
  }

  // Saturation hints: units over the order variables, one per mappable
  // must-precede edge. Sound because every hint edge holds in every
  // coherent serialization (see analysis/saturate), so no model is lost.
  for (const auto& [before, after] : hints.must) {
    const auto index_of = [&](OpRef ref) {
      if (ref.process >= write_index_of.size()) return kInitial;
      if (ref.index >= write_index_of[ref.process].size()) return kInitial;
      return write_index_of[ref.process][ref.index];
    };
    const std::size_t bi = index_of(before);
    const std::size_t ai = index_of(after);
    if (bi == kInitial || ai == kInitial || bi == ai) continue;
    ctx.add_unit(order_lit(bi, ai));
  }

  // Collect read items with candidates.
  std::vector<ReadItem> items;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    const auto& history = exec.history(p);
    // prev/next own write per position.
    std::vector<std::size_t> prev_write(history.size(), kInitial);
    std::vector<std::size_t> next_write(history.size(), kInitial);
    std::size_t last = kInitial;
    for (std::uint32_t i = 0; i < history.size(); ++i) {
      prev_write[i] = last;
      if (write_index_of[p][i] != kInitial) last = write_index_of[p][i];
    }
    std::size_t upcoming = kInitial;
    for (std::uint32_t i = static_cast<std::uint32_t>(history.size()); i-- > 0;) {
      next_write[i] = upcoming;
      if (write_index_of[p][i] != kInitial) upcoming = write_index_of[p][i];
    }

    for (std::uint32_t i = 0; i < history.size(); ++i) {
      const Operation& op = history[i];
      if (!op.reads_memory()) continue;
      ReadItem item;
      item.ref = OpRef{p, i};
      item.value = op.value_read;
      item.is_rmw = op.kind == OpKind::kRmw;
      item.self_write = item.is_rmw ? write_index_of[p][i] : kInitial;
      item.prev_write = prev_write[i];
      item.next_write = next_write[i];
      // Candidate writes: matching value, not itself, not an own future
      // write (program order forbids observing it).
      for (std::size_t j = 0; j < w; ++j) {
        const OpRef wref = enc.writes[j];
        if (exec.op(wref).value_written != item.value) continue;
        if (item.is_rmw && j == item.self_write) continue;
        if (wref.process == p && wref.index > i) continue;  // own future write
        item.candidates.push_back(j);
      }
      if (item.value == initial) item.candidates.push_back(kInitial);
      if (item.candidates.empty()) {
        enc.trivially_incoherent = true;
        enc.evidence =
            certify::unwritten_read(instance.addr, item.ref, item.value);
        ctx.add_clause({});
        return enc;
      }
      for (std::size_t c = 0; c < item.candidates.size(); ++c)
        item.map_vars.push_back(ctx.new_var());
      items.push_back(std::move(item));
    }
  }

  // Per-item constraints.
  for (const ReadItem& item : items) {
    if (interrupted()) return enc;
    // At least one candidate observed.
    sat::Clause alo;
    for (const sat::Var v : item.map_vars) alo.push_back(sat::pos(v));
    ctx.add_clause(std::move(alo));

    for (std::size_t c = 0; c < item.candidates.size(); ++c) {
      const std::size_t j = item.candidates[c];
      const sat::Lit m = sat::pos(item.map_vars[c]);

      if (item.is_rmw) {
        const std::size_t s = item.self_write;
        if (j == kInitial) {
          // The RMW is the first write: everything else after it.
          for (std::size_t k = 0; k < w; ++k)
            if (k != s) ctx.add_binary(~m, order_lit(s, k));
        } else {
          // j immediately precedes the RMW's own write s.
          ctx.add_binary(~m, order_lit(j, s));
          for (std::size_t k = 0; k < w; ++k) {
            if (k == j || k == s) continue;
            ctx.add_ternary(~m, order_lit(k, j), order_lit(s, k));
          }
        }
        continue;
      }

      // Pure read.
      if (j == kInitial) {
        // Reads the initial value: impossible after an own write.
        if (item.prev_write != kInitial) ctx.add_unit(~m);
        continue;
      }
      // (a) the last own write before the read must not follow the anchor.
      if (item.prev_write != kInitial && item.prev_write != j)
        ctx.add_binary(~m, order_lit(item.prev_write, j));
      // (b) the anchor precedes the first own write after the read.
      if (item.next_write != kInitial)
        ctx.add_binary(~m, order_lit(j, item.next_write));
    }
  }

  // (c) anchor monotonicity for consecutive pure reads of one history
  // with no writing op between them. (Across a writing op, (a)/(b) chain
  // the anchors through that write.)
  {
    // Items were generated history by history, position by position, so
    // consecutive pure reads are adjacent in `items`.
    for (std::size_t t = 0; t + 1 < items.size(); ++t) {
      if (interrupted()) return enc;
      const ReadItem& r1 = items[t];
      const ReadItem& r2 = items[t + 1];
      if (r1.ref.process != r2.ref.process) continue;
      if (r1.is_rmw || r2.is_rmw) continue;
      // A writing op between them re-anchors via (a)/(b).
      if (r1.next_write != r2.next_write || r1.prev_write != r2.prev_write)
        continue;
      for (std::size_t c1 = 0; c1 < r1.candidates.size(); ++c1) {
        for (std::size_t c2 = 0; c2 < r2.candidates.size(); ++c2) {
          const std::size_t a = r1.candidates[c1];
          const std::size_t b = r2.candidates[c2];
          if (a == b || a == kInitial) continue;  // always monotone
          if (b == kInitial) {
            ctx.add_binary(sat::neg(r1.map_vars[c1]),
                               sat::neg(r2.map_vars[c2]));
          } else {
            ctx.add_ternary(sat::neg(r1.map_vars[c1]),
                                sat::neg(r2.map_vars[c2]), order_lit(a, b));
          }
        }
      }
    }
  }

  // Final-value constraint: some write of d_F is last.
  if (const auto fin = instance.final_value()) {
    if (w == 0) {
      if (*fin != initial) {
        enc.trivially_incoherent = true;
        enc.evidence = certify::unwritable_final(instance.addr, *fin);
        ctx.add_clause({});
        return enc;
      }
    } else {
      std::vector<std::size_t> last_candidates;
      for (std::size_t j = 0; j < w; ++j)
        if (exec.op(enc.writes[j]).value_written == *fin)
          last_candidates.push_back(j);
      if (last_candidates.empty()) {
        enc.trivially_incoherent = true;
        enc.evidence = certify::unwritable_final(instance.addr, *fin);
        ctx.add_clause({});
        return enc;
      }
      sat::Clause alo;
      for (const std::size_t j : last_candidates) {
        const sat::Var l = ctx.new_var();
        alo.push_back(sat::pos(l));
        for (std::size_t k = 0; k < w; ++k)
          if (k != j) ctx.add_binary(sat::neg(l), order_lit(k, j));
      }
      ctx.add_clause(std::move(alo));
    }
  }

  return enc;
}

vmc::CheckResult check_via_sat(const vmc::VmcInstance& instance,
                               const sat::SolverOptions& solver_options) {
  const search::Limits limits{.deadline = solver_options.deadline,
                              .cancel = solver_options.cancel};
  const VmcEncoding enc = encode_vmc(instance, OrderHints{},
                                     solver_options.cancel,
                                     solver_options.deadline);
  if (enc.interrupted)
    return vmc::CheckResult::unknown(*search::interruption(limits));
  if (enc.trivially_incoherent) {
    if (const auto* unknown = std::get_if<certify::Unknown>(&enc.evidence))
      return vmc::CheckResult::unknown(*unknown);
    return vmc::CheckResult::no(std::get<certify::Incoherence>(enc.evidence));
  }

  // Always log a proof: an UNSAT answer without an RUP refutation cannot
  // be certified, and the encoding is deterministic so a checker can
  // rebuild the formula the proof refers to.
  sat::SolverOptions options = solver_options;
  options.log_proof = true;
  const sat::SolveResult solved = sat::solve(enc.cnf, options);
  vmc::SearchStats stats;
  stats.states_visited = solved.stats.decisions;
  stats.transitions = solved.stats.propagations;

  switch (solved.status) {
    case sat::Status::kUnsat:
      return vmc::CheckResult::no(
          certify::rup_refutation(instance.addr, solved.proof), stats);
    case sat::Status::kUnknown:
      if (auto stopped = search::interruption(limits))
        return vmc::CheckResult::unknown(std::move(*stopped), stats);
      return vmc::CheckResult::unknown(certify::UnknownReason::kSolverGaveUp,
                                       "SAT solver gave up", stats);
    case sat::Status::kSat:
      break;
  }

  const vmc::WriteOrder order = enc.decode_write_order(solved.model);
  vmc::CheckResult certified = vmc::check_with_write_order(instance, order);
  if (certified.verdict != vmc::Verdict::kCoherent) {
    // The encoding claimed coherence but the certificate pass disagrees:
    // never report an unverified "coherent".
    return vmc::CheckResult::unknown(
        certify::UnknownReason::kCertificationFailed,
        "internal: SAT model failed certification: " + certified.reason(),
        stats);
  }
  certified.stats = stats;
  return certified;
}

}  // namespace vermem::encode
