#include "certify/check.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "analysis/saturate/core.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "encode/vsc_to_cnf.hpp"
#include "sat/proof.hpp"
#include "trace/address_index.hpp"
#include "vmc/exact.hpp"
#include "vmc/instance.hpp"
#include "vmc/write_order.hpp"
#include "vsc/exact.hpp"

namespace vermem::certify {

namespace {

using vmc::Verdict;

CheckOutcome pass() { return CheckOutcome::pass(); }
CheckOutcome fail(std::string why) { return CheckOutcome::fail(std::move(why)); }

bool valid_ref(const Execution& exec, OpRef ref) {
  return ref.process < exec.num_processes() &&
         ref.index < exec.history(ref.process).size();
}

/// Visits every non-sync operation on `addr`, in (process, index) order.
template <typename Fn>
void for_each_addr_op(const Execution& exec, Addr addr, Fn&& fn) {
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    const auto& history = exec.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i) {
      const Operation& op = history[i];
      if (op.is_sync() || op.addr != addr) continue;
      fn(OpRef{p, i}, op);
    }
  }
}

/// Number of non-sync writes on `addr` storing `v`.
std::size_t writes_of(const Execution& exec, Addr addr, Value v) {
  std::size_t count = 0;
  for_each_addr_op(exec, addr, [&](OpRef, const Operation& op) {
    if (op.writes_memory() && op.value_written == v) ++count;
  });
  return count;
}

/// The operation referenced by `ref`, validated to be a non-sync op on
/// `addr`; nullptr (with `why` set) otherwise.
const Operation* addr_op(const Execution& exec, Addr addr, OpRef ref,
                         std::string& why) {
  if (!valid_ref(exec, ref)) {
    why = "dangling operation reference " + to_string(ref);
    return nullptr;
  }
  const Operation& op = exec.op(ref);
  if (op.is_sync() || op.addr != addr) {
    why = to_string(ref) + " is not a data operation on address " +
          std::to_string(addr);
    return nullptr;
  }
  return &op;
}

// -- kUnwrittenRead ---------------------------------------------------------
// The read returns v != d_I, and every write of v is either the read
// itself (an RMW cannot observe its own write) or a later write of the
// read's own process (program order forbids observing it). No schedule
// can satisfy the read.
CheckOutcome check_unwritten_read(const Execution& exec, const Incoherence& e) {
  if (e.ops.size() != 1 || e.values.size() != 1)
    return fail("unwritten-read: expected one op and one value");
  const OpRef read = e.ops[0];
  const Value v = e.values[0];
  std::string why;
  const Operation* op = addr_op(exec, e.addr, read, why);
  if (!op) return fail("unwritten-read: " + why);
  if (!op->reads_memory() || op->value_read != v)
    return fail("unwritten-read: " + to_string(read) + " does not read " +
                std::to_string(v));
  if (v == exec.initial_value(e.addr))
    return fail("unwritten-read: the value is the initial value");
  CheckOutcome out = pass();
  for_each_addr_op(exec, e.addr, [&](OpRef ref, const Operation& w) {
    if (!out.ok || !w.writes_memory() || w.value_written != v) return;
    if (ref == read) return;  // an RMW cannot observe its own write
    if (ref.process == read.process && ref.index > read.index) return;
    out = fail("unwritten-read: " + to_string(ref) +
               " writes the value and is observable by the read");
  });
  return out;
}

// -- kUnwritableFinal -------------------------------------------------------
// The recorded final value is stored by no write (with writes present the
// last write cannot produce it; with none, it must equal d_I and does not).
CheckOutcome check_unwritable_final(const Execution& exec, const Incoherence& e) {
  if (e.values.size() != 1)
    return fail("unwritable-final: expected one value");
  const Value fin = e.values[0];
  const auto recorded = exec.final_value(e.addr);
  if (!recorded || *recorded != fin)
    return fail("unwritable-final: the trace does not record final value " +
                std::to_string(fin));
  std::size_t writes = 0;
  std::size_t writes_of_fin = 0;
  for_each_addr_op(exec, e.addr, [&](OpRef, const Operation& op) {
    if (!op.writes_memory()) return;
    ++writes;
    if (op.value_written == fin) ++writes_of_fin;
  });
  if (writes == 0) {
    if (fin == exec.initial_value(e.addr))
      return fail("unwritable-final: no writes, but the final value equals "
                  "the initial value");
    return pass();
  }
  if (writes_of_fin != 0)
    return fail("unwritable-final: the final value is written");
  return pass();
}

// -- kReadBeforeWrite -------------------------------------------------------
// The read observes v != d_I, whose only write follows it in its own
// process's program order — unobservable in any schedule.
CheckOutcome check_read_before_write(const Execution& exec, const Incoherence& e) {
  if (e.ops.size() != 2 || e.values.size() != 1)
    return fail("read-before-write: expected two ops and one value");
  const OpRef read = e.ops[0];
  const OpRef write = e.ops[1];
  const Value v = e.values[0];
  std::string why;
  const Operation* r = addr_op(exec, e.addr, read, why);
  if (!r) return fail("read-before-write: " + why);
  const Operation* w = addr_op(exec, e.addr, write, why);
  if (!w) return fail("read-before-write: " + why);
  if (read.process != write.process || read.index >= write.index)
    return fail("read-before-write: the write does not follow the read in "
                "program order");
  if (!r->reads_memory() || r->value_read != v)
    return fail("read-before-write: " + to_string(read) + " does not read " +
                std::to_string(v));
  if (!w->writes_memory() || w->value_written != v)
    return fail("read-before-write: " + to_string(write) + " does not write " +
                std::to_string(v));
  if (v == exec.initial_value(e.addr))
    return fail("read-before-write: the value is the initial value");
  if (writes_of(exec, e.addr, v) != 1)
    return fail("read-before-write: the value is not written exactly once");
  return pass();
}

// -- kStaleInitialRead ------------------------------------------------------
// The read returns d_I, no write restores d_I, yet an earlier op of the
// same process already forces a write before the read: it is a write
// itself, or reads a non-initial value some write stores.
CheckOutcome check_stale_initial_read(const Execution& exec, const Incoherence& e) {
  if (e.ops.size() != 2)
    return fail("stale-initial-read: expected two ops");
  const OpRef earlier = e.ops[0];
  const OpRef read = e.ops[1];
  std::string why;
  const Operation* x = addr_op(exec, e.addr, earlier, why);
  if (!x) return fail("stale-initial-read: " + why);
  const Operation* r = addr_op(exec, e.addr, read, why);
  if (!r) return fail("stale-initial-read: " + why);
  if (earlier.process != read.process || earlier.index >= read.index)
    return fail("stale-initial-read: the ops are not program-ordered");
  const Value initial = exec.initial_value(e.addr);
  if (!r->reads_memory() || r->value_read != initial)
    return fail("stale-initial-read: " + to_string(read) +
                " does not read the initial value");
  if (writes_of(exec, e.addr, initial) != 0)
    return fail("stale-initial-read: a write restores the initial value");
  if (x->writes_memory()) return pass();
  if (x->reads_memory() && x->value_read != initial &&
      writes_of(exec, e.addr, x->value_read) >= 1)
    return pass();
  return fail("stale-initial-read: " + to_string(earlier) +
              " does not force a preceding write");
}

// -- kClusterCycle ----------------------------------------------------------
// Each program-order edge X -> Y between ops touching distinct write-once
// non-initial values forces write(value(X)) before write(value(Y)) in any
// coherent schedule; a closed chain of such constraints is contradictory.
CheckOutcome check_cluster_cycle(const Execution& exec, const Incoherence& e) {
  if (e.edges.empty()) return fail("cluster-cycle: no edges");
  const Value initial = exec.initial_value(e.addr);
  auto touched = [&](const Operation& op) -> std::optional<Value> {
    if (op.kind == OpKind::kWrite) return op.value_written;
    if (op.kind == OpKind::kRead) return op.value_read;
    return std::nullopt;  // RMWs touch two values; not supported here
  };
  std::vector<Value> before_values;
  std::vector<Value> after_values;
  for (const ProgramOrderEdge& edge : e.edges) {
    std::string why;
    const Operation* b = addr_op(exec, e.addr, edge.before, why);
    if (!b) return fail("cluster-cycle: " + why);
    const Operation* a = addr_op(exec, e.addr, edge.after, why);
    if (!a) return fail("cluster-cycle: " + why);
    if (edge.before.process != edge.after.process ||
        edge.before.index >= edge.after.index)
      return fail("cluster-cycle: edge is not program-ordered");
    const auto vb = touched(*b);
    const auto va = touched(*a);
    if (!vb || !va)
      return fail("cluster-cycle: edge endpoint is not a read or write");
    if (*vb == *va) return fail("cluster-cycle: edge relates equal values");
    for (const Value v : {*vb, *va}) {
      if (v == initial)
        return fail("cluster-cycle: the initial value appears in the cycle");
      if (writes_of(exec, e.addr, v) != 1)
        return fail("cluster-cycle: value " + std::to_string(v) +
                    " is not written exactly once");
    }
    before_values.push_back(*vb);
    after_values.push_back(*va);
  }
  for (std::size_t i = 0; i < e.edges.size(); ++i) {
    const std::size_t next = (i + 1) % e.edges.size();
    if (after_values[i] != before_values[next])
      return fail("cluster-cycle: the value chain does not close");
  }
  return pass();
}

// -- kFinalNotLast ----------------------------------------------------------
// fin is written exactly once (so its write must be scheduled last), the
// pinned op is that write or a read observing it, and a later op of the
// same process still touches a different value — after the last write.
CheckOutcome check_final_not_last(const Execution& exec, const Incoherence& e) {
  if (e.ops.size() != 2 || e.values.size() != 1)
    return fail("final-not-last: expected two ops and one value");
  const OpRef pinned = e.ops[0];
  const OpRef later = e.ops[1];
  const Value fin = e.values[0];
  const auto recorded = exec.final_value(e.addr);
  if (!recorded || *recorded != fin)
    return fail("final-not-last: the trace does not record final value " +
                std::to_string(fin));
  if (writes_of(exec, e.addr, fin) != 1)
    return fail("final-not-last: the final value is not written exactly once");
  std::optional<OpRef> final_write;
  for_each_addr_op(exec, e.addr, [&](OpRef ref, const Operation& op) {
    if (op.writes_memory() && op.value_written == fin) final_write = ref;
  });
  std::string why;
  const Operation* x = addr_op(exec, e.addr, pinned, why);
  if (!x) return fail("final-not-last: " + why);
  const Operation* y = addr_op(exec, e.addr, later, why);
  if (!y) return fail("final-not-last: " + why);
  if (pinned.process != later.process || pinned.index >= later.index)
    return fail("final-not-last: the ops are not program-ordered");
  const bool pinned_is_write = final_write && pinned == *final_write;
  const bool pinned_reads_fin = x->reads_memory() && x->value_read == fin &&
                                fin != exec.initial_value(e.addr);
  if (!pinned_is_write && !pinned_reads_fin)
    return fail("final-not-last: " + to_string(pinned) +
                " is not pinned after the final write");
  const bool differs = (y->writes_memory() && y->value_written != fin) ||
                       (y->reads_memory() && y->value_read != fin);
  if (!differs)
    return fail("final-not-last: " + to_string(later) +
                " does not touch a different value");
  return pass();
}

/// RMWs reading `v` and writing something else each consume one
/// occurrence of `v`; operations writing `v` (other than such self-loops)
/// each create one, plus the initial occurrence when v == d_I.
struct ValueFlow {
  std::size_t consumers = 0;
  std::size_t creators = 0;
};

ValueFlow value_flow(const Execution& exec, Addr addr, Value v) {
  ValueFlow flow;
  for_each_addr_op(exec, addr, [&](OpRef, const Operation& op) {
    const bool reads_v = op.kind == OpKind::kRmw && op.value_read == v;
    if (reads_v && op.value_written != v) ++flow.consumers;
    if (op.writes_memory() && op.value_written == v && !reads_v)
      ++flow.creators;
  });
  return flow;
}

// -- kValueImbalance --------------------------------------------------------
// Each consumer of v needs a distinct live occurrence (the previous one
// was overwritten); more consumers than created occurrences is impossible.
CheckOutcome check_value_imbalance(const Execution& exec, const Incoherence& e) {
  if (e.values.size() != 1) return fail("value-imbalance: expected one value");
  const Value v = e.values[0];
  const ValueFlow flow = value_flow(exec, e.addr, v);
  const std::size_t supply =
      flow.creators + (v == exec.initial_value(e.addr) ? 1 : 0);
  if (flow.consumers <= supply)
    return fail("value-imbalance: " + std::to_string(flow.consumers) +
                " consumers of " + std::to_string(v) + " vs supply " +
                std::to_string(supply));
  return pass();
}

// -- kUnreachableValue ------------------------------------------------------
// All-RMW instance: the location's value evolves only along read->written
// edges starting from d_I, so a value read by some RMW must be reachable.
CheckOutcome check_unreachable_value(const Execution& exec, const Incoherence& e) {
  if (e.values.size() != 1) return fail("unreachable-value: expected one value");
  const Value v = e.values[0];
  bool all_rmw = true;
  bool v_read = false;
  std::vector<const Operation*> ops;
  for_each_addr_op(exec, e.addr, [&](OpRef, const Operation& op) {
    if (op.kind != OpKind::kRmw) all_rmw = false;
    if (op.value_read == v && op.kind == OpKind::kRmw) v_read = true;
    ops.push_back(&op);
  });
  if (!all_rmw)
    return fail("unreachable-value: the address has non-RMW operations");
  if (!v_read)
    return fail("unreachable-value: no RMW reads " + std::to_string(v));
  std::unordered_set<Value> reached{exec.initial_value(e.addr)};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Operation* op : ops) {
      if (reached.count(op->value_read) != 0 &&
          reached.insert(op->value_written).second)
        grew = true;
    }
  }
  if (reached.count(v) != 0)
    return fail("unreachable-value: " + std::to_string(v) +
                " is reachable from the initial value");
  return pass();
}

// -- kChainStall ------------------------------------------------------------
// All-RMW instance: replay the forced chain (advance while exactly one
// process head reads the current value). A stall with operations left and
// a forced prefix means no schedule exists.
CheckOutcome check_chain_stall(const Execution& exec, const Incoherence& e) {
  if (e.values.size() != 1) return fail("chain-stall: expected one value");
  const Value stall_value = e.values[0];
  std::vector<std::vector<const Operation*>> per_process(exec.num_processes());
  bool all_rmw = true;
  for_each_addr_op(exec, e.addr, [&](OpRef ref, const Operation& op) {
    if (op.kind != OpKind::kRmw) all_rmw = false;
    per_process[ref.process].push_back(&op);
  });
  if (!all_rmw) return fail("chain-stall: the address has non-RMW operations");
  std::vector<std::size_t> pos(per_process.size(), 0);
  Value current = exec.initial_value(e.addr);
  std::size_t remaining = 0;
  for (const auto& ops : per_process) remaining += ops.size();
  while (remaining > 0) {
    std::size_t enabled = per_process.size();
    std::size_t enabled_count = 0;
    for (std::size_t p = 0; p < per_process.size(); ++p) {
      if (pos[p] >= per_process[p].size()) continue;
      if (per_process[p][pos[p]]->value_read != current) continue;
      enabled = p;
      ++enabled_count;
    }
    if (enabled_count == 0) {
      if (current != stall_value)
        return fail("chain-stall: the chain stalls at value " +
                    std::to_string(current) + ", not " +
                    std::to_string(stall_value));
      return pass();
    }
    if (enabled_count > 1)
      return fail("chain-stall: the chain is not forced (" +
                  std::to_string(enabled_count) + " RMWs read " +
                  std::to_string(current) + ")");
    current = per_process[enabled][pos[enabled]]->value_written;
    ++pos[enabled];
    --remaining;
  }
  return fail("chain-stall: the forced chain consumes every operation");
}

// -- kChainEndMismatch ------------------------------------------------------
// For the final value to be fin, one created occurrence of fin must
// outlive every consumer; non-positive net supply makes that impossible.
CheckOutcome check_chain_end_mismatch(const Execution& exec, const Incoherence& e) {
  if (e.values.size() != 1) return fail("chain-end-mismatch: expected one value");
  const Value fin = e.values[0];
  const auto recorded = exec.final_value(e.addr);
  if (!recorded || *recorded != fin)
    return fail("chain-end-mismatch: the trace does not record final value " +
                std::to_string(fin));
  const ValueFlow flow = value_flow(exec, e.addr, fin);
  const std::size_t supply =
      flow.creators + (fin == exec.initial_value(e.addr) ? 1 : 0);
  if (supply > flow.consumers)
    return fail("chain-end-mismatch: net supply of " + std::to_string(fin) +
                " is positive");
  return pass();
}

// -- kOrder* ----------------------------------------------------------------
// The embedded write order is replayed through the independent Section
// 5.2 decision procedure on the address projection; the certificate
// checks iff that procedure also refutes the trace under this order.
CheckOutcome check_order_kind(const Execution& exec, const Incoherence& e) {
  const AddressIndex index(exec);
  const ProjectedView view = index.view(e.addr);
  vmc::WriteOrder order;
  order.reserve(e.write_order.size());
  for (const OpRef ref : e.write_order) {
    const auto projected = view.projected_of(ref);
    if (!projected)
      return fail("write-order references " + to_string(ref) +
                  ", which is not an operation on address " +
                  std::to_string(e.addr));
    order.push_back(*projected);
  }
  const ExecutionProjection projection = view.materialize();
  const vmc::VmcInstance instance{projection.execution, e.addr};
  const vmc::CheckResult decided = vmc::check_with_write_order(instance, order);
  if (decided.verdict == Verdict::kIncoherent) return pass();
  if (decided.verdict == Verdict::kCoherent)
    return fail("a coherent schedule exists under the supplied write order");
  return fail("write-order evidence not confirmed: " + decided.reason());
}

// -- kRupRefutation ---------------------------------------------------------
// Re-encode the instance deterministically and replay the RUP proof with
// the independent propagator; neither the solver nor the producer is
// trusted.
CheckOutcome check_rup(const Execution& exec, Scope scope, const Incoherence& e) {
  if (scope == Scope::kAddress) {
    const ExecutionProjection projection = exec.project(e.addr);
    const vmc::VmcInstance instance{projection.execution, e.addr};
    const encode::VmcEncoding enc = encode::encode_vmc(instance);
    if (enc.trivially_incoherent) {
      if (std::holds_alternative<Incoherence>(enc.evidence)) return pass();
      return fail("rup-refutation: re-encoding found the instance malformed");
    }
    if (e.proof.empty()) return fail("rup-refutation: empty proof");
    if (!sat::check_rup_proof(enc.cnf, e.proof))
      return fail("rup-refutation: the proof does not refute the re-encoded "
                  "coherence formula");
    return pass();
  }
  const encode::VscEncoding enc = encode::encode_vsc(exec);
  if (enc.trivially_unsatisfiable) return pass();
  if (e.proof.empty()) return fail("rup-refutation: empty proof");
  if (!sat::check_rup_proof(enc.cnf, e.proof))
    return fail("rup-refutation: the proof does not refute the re-encoded "
                "SC formula");
  return pass();
}

// -- kSearchExhaustion ------------------------------------------------------
// The one non-polynomial kind: re-decide with an independent bounded
// search. The certificate fails if a schedule is found or the budget runs
// out before the claim is confirmed.
CheckOutcome check_search_exhaustion(const Execution& exec, Scope scope,
                                     const Incoherence& e,
                                     const CheckOptions& options) {
  vmc::CheckResult decided;
  if (scope == Scope::kAddress) {
    const vmc::VmcInstance instance = vmc::VmcInstance::from_execution(exec, e.addr);
    vmc::ExactOptions exact;
    exact.max_states = options.max_states;
    decided = vmc::check_exact(instance, exact);
  } else {
    vsc::ScOptions sc;
    sc.max_states = options.max_states;
    decided = vsc::check_sc_exact(exec, sc);
  }
  switch (decided.verdict) {
    case Verdict::kIncoherent:
      return pass();
    case Verdict::kCoherent:
      return fail("search-exhaustion: an independent search found a schedule");
    case Verdict::kUnknown:
      return fail("search-exhaustion: checker budget exhausted before the "
                  "claim could be re-decided");
  }
  return fail("search-exhaustion: unreachable");
}

// -- kSaturationCycle -------------------------------------------------------
// Re-derive the saturated must-precede graph from the trace alone (the
// derivation emits only edges necessary in any coherent write order) and
// verify every claimed cycle edge is derivable by transitivity. A closed
// chain of necessary edges leaves no coherent serialization.
CheckOutcome check_saturation_cycle(const Execution& exec, const Incoherence& e) {
  if (e.ops.size() < 2)
    return fail("saturation-cycle: fewer than two writes in the cycle");
  for (const OpRef ref : e.ops) {
    std::string why;
    const Operation* op = addr_op(exec, e.addr, ref, why);
    if (!op) return fail("saturation-cycle: " + why);
    if (!op->writes_memory())
      return fail("saturation-cycle: " + to_string(ref) + " is not a write");
  }
  const AddressIndex index(exec);
  if (index.find(e.addr) == nullptr)
    return fail("saturation-cycle: no operations on the address");
  const saturate::Result derived = saturate::saturate(index.view(e.addr));
  // The node table is sorted by (history, position), hence by original ref.
  std::vector<std::uint32_t> nodes;
  nodes.reserve(e.ops.size());
  for (const OpRef ref : e.ops) {
    const auto it =
        std::lower_bound(derived.writes.begin(), derived.writes.end(), ref);
    if (it == derived.writes.end() || *it != ref)
      return fail("saturation-cycle: " + to_string(ref) +
                  " is not a write node of the re-derived graph");
    nodes.push_back(static_cast<std::uint32_t>(it - derived.writes.begin()));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t a = nodes[i];
    const std::uint32_t b = nodes[(i + 1) % nodes.size()];
    if (!saturate::reaches(derived, a, b))
      return fail("saturation-cycle: edge " + to_string(e.ops[i]) + " -> " +
                  to_string(e.ops[(i + 1) % nodes.size()]) +
                  " is not derivable from the trace");
  }
  return pass();
}

// -- kForcedOrderRefutation -------------------------------------------------
// Re-derive the graph, confirm it forces exactly the claimed total write
// order (unique linear extension), then replay the independent Section
// 5.2 decision procedure under that order; with the order forced, its
// refutation is exact.
CheckOutcome check_forced_order_refutation(const Execution& exec,
                                           const Incoherence& e) {
  const AddressIndex index(exec);
  if (index.find(e.addr) == nullptr)
    return fail("forced-order-refutation: no operations on the address");
  const ProjectedView view = index.view(e.addr);
  const saturate::Result derived = saturate::saturate(view);
  if (derived.status != saturate::Status::kForcedTotal)
    return fail(std::string("forced-order-refutation: saturation does not "
                            "force a total order (status ") +
                saturate::to_string(derived.status) + ")");
  if (e.write_order.size() != derived.forced.size())
    return fail("forced-order-refutation: order length mismatch");
  for (std::size_t i = 0; i < derived.forced.size(); ++i) {
    if (!(e.write_order[i] == derived.writes[derived.forced[i]]))
      return fail("forced-order-refutation: position " + std::to_string(i) +
                  " does not match the forced order");
  }
  const ExecutionProjection projection = view.materialize();
  vmc::WriteOrder order;
  order.reserve(derived.forced.size());
  for (const std::uint32_t node : derived.forced)
    order.push_back(derived.writes_local[node]);
  const vmc::VmcInstance instance{projection.execution, e.addr};
  const vmc::CheckResult decided = vmc::check_with_write_order(instance, order);
  if (decided.verdict == Verdict::kIncoherent) return pass();
  if (decided.verdict == Verdict::kCoherent)
    return fail("forced-order-refutation: a coherent schedule exists under "
                "the forced order");
  return fail("forced-order-refutation: not confirmed: " + decided.reason());
}

CheckOutcome check_incoherence(const Execution& exec, const Certificate& cert,
                               const Incoherence& e, const CheckOptions& options) {
  switch (e.kind) {
    case IncoherenceKind::kUnwrittenRead:
      return check_unwritten_read(exec, e);
    case IncoherenceKind::kUnwritableFinal:
      return check_unwritable_final(exec, e);
    case IncoherenceKind::kReadBeforeWrite:
      return check_read_before_write(exec, e);
    case IncoherenceKind::kStaleInitialRead:
      return check_stale_initial_read(exec, e);
    case IncoherenceKind::kClusterCycle:
      return check_cluster_cycle(exec, e);
    case IncoherenceKind::kFinalNotLast:
      return check_final_not_last(exec, e);
    case IncoherenceKind::kValueImbalance:
      return check_value_imbalance(exec, e);
    case IncoherenceKind::kUnreachableValue:
      return check_unreachable_value(exec, e);
    case IncoherenceKind::kChainStall:
      return check_chain_stall(exec, e);
    case IncoherenceKind::kChainEndMismatch:
      return check_chain_end_mismatch(exec, e);
    case IncoherenceKind::kOrderProgramConflict:
    case IncoherenceKind::kOrderRmwMismatch:
    case IncoherenceKind::kOrderReadWindow:
    case IncoherenceKind::kOrderFinalMismatch:
      return check_order_kind(exec, e);
    case IncoherenceKind::kRupRefutation:
      return check_rup(exec, cert.scope, e);
    case IncoherenceKind::kSearchExhaustion:
      return check_search_exhaustion(exec, cert.scope, e, options);
    case IncoherenceKind::kMergeCycle:
      return fail("merge-cycle evidence is not independently checkable");
    case IncoherenceKind::kSaturationCycle:
      return check_saturation_cycle(exec, e);
    case IncoherenceKind::kForcedOrderRefutation:
      return check_forced_order_refutation(exec, e);
  }
  return fail("unknown incoherence kind");
}

}  // namespace

CheckOutcome check(const Execution& exec, const Certificate& cert,
                   const CheckOptions& options) {
  switch (cert.verdict) {
    case Verdict::kCoherent: {
      const ScheduleCheck valid =
          cert.scope == Scope::kAddress
              ? check_coherent_schedule(exec, cert.addr, cert.witness)
              : check_sc_schedule(exec, cert.witness);
      if (!valid.ok) return fail("witness schedule rejected: " + valid.violation);
      return pass();
    }
    case Verdict::kUnknown: {
      if (!std::holds_alternative<Unknown>(cert.evidence))
        return fail("unknown verdict without a typed reason");
      return pass();  // nothing is claimed, so nothing can fail
    }
    case Verdict::kIncoherent:
      break;
  }
  const auto* evidence = std::get_if<Incoherence>(&cert.evidence);
  if (!evidence) return fail("incoherent verdict without incoherence evidence");
  if (cert.scope == Scope::kAddress && evidence->addr != cert.addr)
    return fail("evidence address " + std::to_string(evidence->addr) +
                " does not match certificate address " +
                std::to_string(cert.addr));
  return check_incoherence(exec, cert, *evidence, options);
}

}  // namespace vermem::certify
