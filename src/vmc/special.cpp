#include "vmc/special.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "vmc/instance_view.hpp"

namespace vermem::vmc {

namespace {

CheckResult not_applicable(std::string why) {
  return CheckResult::unknown(certify::UnknownReason::kNotApplicable, std::move(why));
}

CheckResult malformed(std::string why) {
  return CheckResult::unknown(certify::UnknownReason::kMalformed, std::move(why));
}

/// Stable counting sort of `items` into `buckets` buckets by `bucket_of`:
/// returns (begin, sorted), bucket b being sorted[begin[b], begin[b + 1])
/// in the items' order.
template <typename T, typename BucketOf>
std::pair<std::vector<std::size_t>, std::vector<T>> bucket_stably(
    const std::vector<T>& items, std::size_t buckets, BucketOf bucket_of) {
  std::vector<std::size_t> begin(buckets + 1, 0);
  for (const T& item : items) ++begin[bucket_of(item) + 1];
  for (std::size_t b = 0; b < buckets; ++b) begin[b + 1] += begin[b];
  std::vector<T> sorted(items.size());
  std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
  for (const T& item : items) sorted[fill[bucket_of(item)]++] = item;
  return {std::move(begin), std::move(sorted)};
}

}  // namespace

CheckResult check_one_op_per_process(const VmcInstance& instance) {
  if (const auto why = instance.malformed()) return malformed(*why);
  if (instance.max_ops_per_process() > 1)
    return not_applicable("more than one operation per process");

  const Value initial = instance.initial_value();
  // Writes grouped by value; reads grouped by value.
  std::unordered_map<Value, std::vector<OpRef>> writes, reads;
  for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
    const auto& history = instance.execution.history(p);
    if (history.empty()) continue;
    const Operation& op = history[0];
    if (op.kind == OpKind::kRmw)
      return not_applicable("instance contains read-modify-writes");
    const OpRef ref{p, 0};
    if (op.kind == OpKind::kWrite)
      writes[op.value_written].push_back(ref);
    else
      reads[op.value_read].push_back(ref);
  }

  // Feasibility: every read value must be the initial value or written.
  for (const auto& [value, refs] : reads) {
    if (value != initial && !writes.contains(value))
      return CheckResult::no(certify::unwritten_read(instance.addr, refs[0], value));
  }
  // Final value: some write must be last (or no writes at all).
  const auto fin = instance.final_value();
  if (fin && !writes.empty() && !writes.contains(*fin))
    return CheckResult::no(certify::unwritable_final(instance.addr, *fin));
  if (fin && writes.empty() && *fin != initial)
    return CheckResult::no(certify::unwritable_final(instance.addr, *fin));

  // Construct a witness: initial-value reads first, then each write group
  // followed by its reads, with the final value's group last.
  Schedule schedule;
  if (const auto it = reads.find(initial); it != reads.end())
    for (const OpRef r : it->second) schedule.push_back(r);

  std::vector<Value> order;
  order.reserve(writes.size());
  for (const auto& [value, refs] : writes) order.push_back(value);
  std::sort(order.begin(), order.end());  // determinism
  if (fin && !writes.empty()) {
    order.erase(std::remove(order.begin(), order.end(), *fin), order.end());
    order.push_back(*fin);
  }
  for (const Value value : order) {
    for (const OpRef w : writes[value]) schedule.push_back(w);
    if (value == initial) continue;  // those reads were scheduled up front
    if (const auto it = reads.find(value); it != reads.end())
      for (const OpRef r : it->second) schedule.push_back(r);
  }
  return CheckResult::yes(std::move(schedule));
}

CheckResult check_rmw_one_op_per_process(const VmcInstance& instance) {
  if (const auto why = instance.malformed()) return malformed(*why);
  if (instance.max_ops_per_process() > 1)
    return not_applicable("more than one operation per process");
  if (!instance.all_rmw()) return not_applicable("non-RMW operation present");

  // Eulerian trail from the initial value in the (value_read ->
  // value_written) multigraph, via Hierholzer's algorithm. Dense value ids
  // first, with a reverse map so evidence can name the offending value.
  std::unordered_map<Value, std::size_t> id_of;
  std::vector<Value> value_of;
  auto id = [&](Value v) {
    const auto [it, fresh] = id_of.try_emplace(v, id_of.size());
    if (fresh) value_of.push_back(v);
    return it->second;
  };
  struct Edge {
    std::size_t to;
    OpRef op;
  };
  const Value initial = instance.initial_value();
  const std::size_t start = id(initial);
  std::vector<std::vector<Edge>> out;
  std::vector<int> degree;  // out - in
  auto ensure = [&](std::size_t v) {
    if (out.size() <= v) {
      out.resize(v + 1);
      degree.resize(v + 1, 0);
    }
  };
  ensure(start);

  std::size_t num_edges = 0;
  for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
    const auto& history = instance.execution.history(p);
    if (history.empty()) continue;
    const Operation& op = history[0];
    const std::size_t from = id(op.value_read), to = id(op.value_written);
    ensure(std::max(from, to));
    out[from].push_back({to, OpRef{p, 0}});
    ++degree[from];
    --degree[to];
    ++num_edges;
  }
  if (num_edges == 0) {
    const auto fin = instance.final_value();
    if (fin && *fin != initial)
      return CheckResult::no(certify::unwritable_final(instance.addr, *fin));
    return CheckResult::yes({});
  }

  // An imbalance witness: a value consumed by strictly more RMWs than
  // operations create it (plus the initial allowance). In degree terms
  // (self-loops cancel on both sides): degree[v] > [v == initial]. One
  // exists in every reachable degree-condition failure below.
  auto imbalance = [&]() -> CheckResult {
    for (std::size_t v = 0; v < degree.size(); ++v) {
      if (degree[v] > (v == start ? 1 : 0))
        return CheckResult::no(certify::value_imbalance(instance.addr, value_of[v]));
    }
    return not_applicable("RMW value graph imbalance without a witness value");
  };

  // Degree conditions for a trail starting at `start`.
  const auto fin = instance.final_value();
  std::size_t surplus = 0, deficit_vertex = out.size();
  for (std::size_t v = 0; v < out.size(); ++v) {
    if (degree[v] == 1) {
      ++surplus;
      if (v != start) return imbalance();
    } else if (degree[v] == -1) {
      deficit_vertex = v;
    } else if (degree[v] != 0) {
      return imbalance();
    }
  }
  std::size_t end_vertex;
  if (surplus == 1) {
    // Open trail: must run start -> the unique deficit vertex.
    if (deficit_vertex == out.size())
      return not_applicable("RMW value graph is unbalanced");  // unreachable
    end_vertex = deficit_vertex;
  } else {
    // All balanced: closed trail; it must start (and end) at `start`,
    // which requires `start` to have edges.
    if (deficit_vertex != out.size())
      return not_applicable("RMW value graph is unbalanced");  // unreachable
    if (out[start].empty()) {
      // Nothing reads the initial value, so nothing reachable from it:
      // any read value is unreachable evidence.
      for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
        const auto& history = instance.execution.history(p);
        if (history.empty()) continue;
        return CheckResult::no(
            certify::unreachable_value(instance.addr, history[0].value_read));
      }
      return not_applicable("no operations");  // unreachable: num_edges > 0
    }
    end_vertex = start;
  }
  if (fin && id_of.contains(*fin) && id_of[*fin] != end_vertex)
    return CheckResult::no(certify::chain_end_mismatch(instance.addr, *fin));
  if (fin && !id_of.contains(*fin) && !(num_edges == 0 && *fin == initial))
    return CheckResult::no(certify::unwritable_final(instance.addr, *fin));

  // Hierholzer: build the trail; if edges remain unused the graph is
  // disconnected and no single chain exists.
  std::vector<std::size_t> next_edge(out.size(), 0);
  std::vector<OpRef> trail;                         // edges, reverse order
  std::vector<std::pair<std::size_t, OpRef>> path;  // (vertex, incoming op)
  path.emplace_back(start, OpRef{});
  while (!path.empty()) {
    const std::size_t v = path.back().first;
    if (next_edge[v] < out[v].size()) {
      const Edge e = out[v][next_edge[v]++];
      path.emplace_back(e.to, e.op);
    } else {
      if (path.size() > 1) trail.push_back(path.back().second);
      path.pop_back();
    }
  }
  if (trail.size() != num_edges) {
    // Some edge's source vertex was never reached from `start`; its
    // value is read by an RMW yet unreachable in the value graph.
    for (std::size_t v = 0; v < out.size(); ++v) {
      if (next_edge[v] < out[v].size())
        return CheckResult::no(certify::unreachable_value(instance.addr, value_of[v]));
    }
    return not_applicable("disconnected RMW chain without a witness");  // unreachable
  }
  std::reverse(trail.begin(), trail.end());
  return CheckResult::yes(std::move(trail));
}

CheckResult check_read_map(const VmcInstance& instance) {
  if (const auto why = instance.malformed()) return malformed(*why);
  return decide_on_view(instance, [](const ProjectedView& view,
                                     const ValueTable& values) {
    return check_read_map(view, values);
  });
}

CheckResult check_read_map(const ProjectedView& view, const ValueTable& values) {
  constexpr std::uint32_t kUnwritten = 0xffffffffu;
  const Addr addr = view.addr();
  const Value initial = view.initial_value();
  const std::size_t num_ops = view.num_ops();
  // Cluster 0 is the initial value's; each uniquely-written value gets its
  // own cluster, numbered in (history, position) order. The scan stops at
  // the first RMW, write of the initial value, or second write of a
  // value, so the reason reported is the first one in that order.
  std::vector<std::uint32_t> cluster_of_value(values.size(), kUnwritten);
  std::vector<OpRef> write_of_cluster{OpRef{}};  // [0] unused (initial)
  write_of_cluster.reserve(view.stats().write_count + 1);
  for (std::uint32_t p = 0, k = 0; p < view.num_histories(); ++p) {
    const auto history = view.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i, ++k) {
      const Operation& op = history[i].op;
      if (op.kind == OpKind::kRmw)
        return not_applicable("instance contains read-modify-writes");
      if (op.kind != OpKind::kWrite) continue;
      if (op.value_written == initial)
        return not_applicable("a write stores the initial value (read-map ambiguous)");
      std::uint32_t& cluster = cluster_of_value[values.written(k)];
      if (cluster != kUnwritten) return not_applicable("value written more than once");
      cluster = static_cast<std::uint32_t>(write_of_cluster.size());
      write_of_cluster.push_back(OpRef{p, i});
    }
  }
  const std::size_t num_clusters = write_of_cluster.size();

  // Build the precedence graph from program order, keeping the pair of
  // operations that induced each edge as evidence provenance; collect
  // each cluster's reads for witness construction. Edges and reads are
  // gathered in (history, position) order, then bucketed by cluster
  // stably (CSR), so each cluster lists them in that order.
  struct Edge {
    std::uint32_t from;
    std::uint32_t to;
    OpRef from_ref;
    OpRef to_ref;
  };
  struct ClusterRead {
    std::uint32_t cluster;
    OpRef ref;
  };
  std::vector<Edge> edges;
  std::vector<ClusterRead> reads;
  edges.reserve(num_ops);
  reads.reserve(num_ops);
  std::vector<std::size_t> in_degree(num_clusters, 0);
  // First program-order edge forcing the initial cluster after another.
  std::optional<certify::ProgramOrderEdge> stale_edge;
  std::uint32_t next_write_cluster = 1;
  for (std::uint32_t p = 0, k = 0; p < view.num_histories(); ++p) {
    const auto history = view.history(p);
    std::uint32_t prev = kUnwritten;
    for (std::uint32_t i = 0; i < history.size(); ++i, ++k) {
      const Operation& op = history[i].op;
      std::uint32_t cluster = 0;
      if (op.kind == OpKind::kWrite) {
        cluster = next_write_cluster++;
      } else if (op.value_read != initial) {
        // Reads of unwritten non-initial values are incoherent outright.
        cluster = cluster_of_value[values.read(k)];
        if (cluster == kUnwritten)
          return CheckResult::no(
              certify::unwritten_read(addr, OpRef{p, i}, op.value_read));
      }
      if (op.kind == OpKind::kRead) {
        // A read program-order-before its own cluster's write can never be
        // scheduled between that write and the next: detect via the write
        // appearing later in the same history.
        const OpRef w = write_of_cluster[cluster];
        if (cluster != 0 && w.process == p && w.index > i)
          return CheckResult::no(certify::read_before_write(
              addr, OpRef{p, i}, w, op.value_read));
        reads.push_back({cluster, OpRef{p, i}});
      }
      if (prev != kUnwritten && prev != cluster) {
        edges.push_back({prev, cluster, OpRef{p, i - 1}, OpRef{p, i}});
        ++in_degree[cluster];
        if (cluster == 0 && !stale_edge)
          stale_edge = certify::ProgramOrderEdge{OpRef{p, i - 1}, OpRef{p, i}};
      }
      prev = cluster;
    }
  }
  const auto [succ_begin, succ] = bucket_stably(
      edges, num_clusters, [](const Edge& e) { return e.from; });
  const auto successors = [&](std::size_t c) {
    return std::span<const Edge>(succ.data() + succ_begin[c],
                                 succ_begin[c + 1] - succ_begin[c]);
  };

  // The initial cluster must be schedulable first: reads of d_I must
  // precede every write (no write restores d_I — excluded above).
  if (in_degree[0] != 0)
    return CheckResult::no(certify::stale_initial_read(
        addr, stale_edge->before, stale_edge->after));

  // The final cluster (when constrained) must be schedulable last, i.e.
  // have no outgoing precedence edges.
  const auto fin = view.final_value();
  std::size_t fin_cluster = 0;
  if (fin) {
    const std::uint32_t id = values.id_of(*fin);
    if (id != ValueTable::kNone && cluster_of_value[id] != kUnwritten)
      fin_cluster = cluster_of_value[id];
    else if (*fin != initial || num_clusters > 1)
      return CheckResult::no(certify::unwritable_final(addr, *fin));
    if (!successors(fin_cluster).empty()) {
      const Edge& edge = successors(fin_cluster)[0];
      return CheckResult::no(certify::final_not_last(
          addr, edge.from_ref, edge.to_ref, *fin));
    }
    if (fin_cluster == 0 && num_clusters > 1)  // defensively; unreachable
      return CheckResult::no(certify::unwritable_final(addr, *fin));
  }

  // Kahn topological sort over all clusters.
  std::vector<std::size_t> ready, topo;
  ready.reserve(num_clusters);
  topo.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c)
    if (in_degree[c] == 0) ready.push_back(c);
  while (!ready.empty()) {
    const std::size_t c = ready.back();
    ready.pop_back();
    topo.push_back(c);
    for (const Edge& s : successors(c))
      if (--in_degree[s.to] == 0) ready.push_back(s.to);
  }
  if (topo.size() != num_clusters) {
    // Extract one cycle among the residual clusters (in_degree still
    // positive): walk predecessor edges until a cluster repeats.
    std::vector<char> residual(num_clusters, 1);
    for (const std::size_t c : topo) residual[c] = 0;
    struct PredEdge {
      std::size_t from = 0;
      OpRef from_ref;
      OpRef to_ref;
    };
    std::vector<std::optional<PredEdge>> pred(num_clusters);
    std::size_t first_residual = num_clusters;
    for (std::size_t u = 0; u < num_clusters; ++u) {
      if (!residual[u]) continue;
      if (first_residual == num_clusters) first_residual = u;
      for (const Edge& s : successors(u))
        if (residual[s.to] && !pred[s.to])
          pred[s.to] = PredEdge{u, s.from_ref, s.to_ref};
    }
    std::vector<char> on_path(num_clusters, 0);
    std::size_t cur = first_residual;
    while (!on_path[cur]) {
      on_path[cur] = 1;
      cur = pred[cur]->from;  // every residual cluster has a residual predecessor
    }
    std::vector<certify::ProgramOrderEdge> cycle;
    std::size_t node = cur;
    do {
      const PredEdge& pe = *pred[node];
      cycle.push_back({pe.from_ref, pe.to_ref});
      node = pe.from;
    } while (node != cur);
    std::reverse(cycle.begin(), cycle.end());
    return CheckResult::no(certify::cluster_cycle(addr, std::move(cycle)));
  }

  // Cluster 0 has no predecessors and the final cluster no successors, so
  // moving them to the ends keeps the order topological.
  std::erase(topo, std::size_t{0});
  if (fin && fin_cluster != 0) std::erase(topo, fin_cluster);
  topo.insert(topo.begin(), 0);
  if (fin && fin_cluster != 0) topo.push_back(fin_cluster);

  // Witness: concatenate clusters, write first then its reads (reads are
  // collected in program order per history by construction above; across
  // histories the order is irrelevant).
  const auto [reads_begin, cluster_reads] = bucket_stably(
      reads, num_clusters, [](const ClusterRead& r) { return r.cluster; });
  Schedule schedule;
  schedule.reserve(num_ops);
  for (const std::size_t c : topo) {
    if (c != 0) schedule.push_back(write_of_cluster[c]);
    for (std::size_t r = reads_begin[c]; r != reads_begin[c + 1]; ++r)
      schedule.push_back(cluster_reads[r].ref);
  }
  return CheckResult::yes(std::move(schedule));
}

CheckResult check_rmw_read_map(const VmcInstance& instance) {
  if (const auto why = instance.malformed()) return malformed(*why);
  if (!instance.all_rmw()) return not_applicable("non-RMW operation present");

  const Value initial = instance.initial_value();
  std::unordered_map<Value, OpRef> writer_of;
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
    const auto& history = instance.execution.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i) {
      const Operation& op = history[i];
      if (op.value_written == initial)
        return not_applicable("an RMW writes the initial value (read-map ambiguous)");
      if (!writer_of.try_emplace(op.value_written, OpRef{p, i}).second)
        return not_applicable("value written more than once");
      ++total;
    }
  }

  // The chain is forced: the op reading `current` must come next.
  std::unordered_map<Value, std::vector<OpRef>> readers_of;
  for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
    const auto& history = instance.execution.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i)
      readers_of[history[i].value_read].push_back(OpRef{p, i});
  }
  for (const auto& [value, refs] : readers_of) {
    // Two consumers of a write-once value: one more consumption than the
    // value's supply allows.
    if (refs.size() > 1)
      return CheckResult::no(certify::value_imbalance(instance.addr, value));
  }

  Schedule schedule;
  std::vector<std::uint32_t> next(instance.num_histories(), 0);
  Value current = initial;
  for (std::size_t step = 0; step < total; ++step) {
    const auto it = readers_of.find(current);
    // No reader of `current` at all, or its unique reader is buried
    // behind unexecuted program-order predecessors: either way no
    // schedulable operation reads the current value, so the forced
    // chain stalls here.
    if (it == readers_of.end())
      return CheckResult::no(certify::chain_stall(instance.addr, current, step));
    const OpRef ref = it->second[0];
    if (ref.index != next[ref.process])
      return CheckResult::no(certify::chain_stall(instance.addr, current, step));
    ++next[ref.process];
    schedule.push_back(ref);
    current = instance.execution.op(ref).value_written;
  }
  const auto fin = instance.final_value();
  if (fin && current != *fin)
    return CheckResult::no(certify::chain_end_mismatch(instance.addr, *fin));
  return CheckResult::yes(std::move(schedule));
}

}  // namespace vermem::vmc
