#include "saturate_reference.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace vermem::saturate_reference {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// One read obligation (a pure read or the read half of an RMW),
/// tracked until pinned, pruned empty, or given up on.
struct ReadItem {
  OpRef ref;                 ///< original coordinates
  Value value = 0;
  std::uint32_t xm = kNone;  ///< last write node program-order-before
  std::uint32_t nx = kNone;  ///< first write node program-order-after
                             ///< (an RMW's own write half counts)
  bool init_cand = false;    ///< may observe the initial value
  bool resolved = false;
  std::vector<std::uint32_t> cand;  ///< remaining candidate write nodes
};

/// Direct-edge graph under construction, deduplicated.
struct Graph {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::vector<std::uint32_t>> fwd;
  std::vector<std::vector<std::uint32_t>> rev;
  std::unordered_set<std::uint64_t> keys;

  explicit Graph(std::size_t n) : fwd(n), rev(n) {}

  bool add(std::uint32_t a, std::uint32_t b) {
    if (a == b) return false;
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (!keys.insert(key).second) return false;
    edges.emplace_back(a, b);
    fwd[a].push_back(b);
    rev[b].push_back(a);
    return true;
  }
};

/// SCC condensation of the direct-edge graph. R2 reachability queries
/// walk the component DAG instead of the raw graph, so a strongly
/// connected cluster — which exists transiently within a round, after a
/// cycle-closing R1 pin and before the post-round cycle check refutes
/// the address — costs one component visit instead of a re-tour of the
/// whole cluster, and parallel edges between clusters deduplicate away.
/// Rebuilt lazily when edges were added since the last build; querying
/// a stale build only under-approximates reachability (edges are never
/// removed), which keeps R2 pruning sound.
struct Condensation {
  std::vector<std::uint32_t> comp;  ///< node -> component id
  std::vector<std::vector<std::uint32_t>> fwd;  ///< component DAG
  std::vector<std::vector<std::uint32_t>> rev;
  std::uint32_t num = 0;

  void build(const Graph& g) {
    const auto n = static_cast<std::uint32_t>(g.fwd.size());
    comp.assign(n, kNone);
    num = 0;
    // Iterative Tarjan: `frame.second` is the edge cursor, doubling as
    // the first-visit flag (cursor 0 = not yet numbered).
    std::vector<std::uint32_t> index(n, kNone);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<std::uint8_t> on_stack(n, 0);
    std::vector<std::uint32_t> scc_stack;
    std::vector<std::pair<std::uint32_t, std::size_t>> call;
    std::uint32_t next_index = 0;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kNone) continue;
      call.emplace_back(root, 0);
      while (!call.empty()) {
        const std::uint32_t u = call.back().first;
        if (index[u] == kNone) {
          index[u] = low[u] = next_index++;
          scc_stack.push_back(u);
          on_stack[u] = 1;
        }
        if (call.back().second < g.fwd[u].size()) {
          const std::uint32_t v = g.fwd[u][call.back().second++];
          if (index[v] == kNone)
            call.emplace_back(v, 0);
          else if (on_stack[v])
            low[u] = std::min(low[u], index[v]);
        } else {
          if (low[u] == index[u]) {
            while (true) {
              const std::uint32_t v = scc_stack.back();
              scc_stack.pop_back();
              on_stack[v] = 0;
              comp[v] = num;
              if (v == u) break;
            }
            ++num;
          }
          call.pop_back();
          if (!call.empty()) {
            const std::uint32_t p = call.back().first;
            low[p] = std::min(low[p], low[u]);
          }
        }
      }
    }
    fwd.assign(num, {});
    rev.assign(num, {});
    std::unordered_set<std::uint64_t> keys;
    for (const auto& [a, b] : g.edges) {
      const std::uint32_t ca = comp[a];
      const std::uint32_t cb = comp[b];
      if (ca == cb) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(ca) << 32) | cb;
      if (!keys.insert(key).second) continue;
      fwd[ca].push_back(cb);
      rev[cb].push_back(ca);
    }
  }
};

/// Budgeted DFS: stamps every node reachable from `from` (inclusive)
/// with `epoch`. An exhausted budget leaves the marking partial, which
/// only under-approximates reachability — R2 pruning stays sound.
bool mark_reachable(const std::vector<std::vector<std::uint32_t>>& adj,
                    std::uint32_t from, std::vector<std::uint32_t>& stamp,
                    std::uint32_t epoch, std::vector<std::uint32_t>& stack,
                    std::uint64_t& budget) {
  stack.clear();
  stack.push_back(from);
  stamp[from] = epoch;
  while (!stack.empty()) {
    if (budget == 0) return false;
    --budget;
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : adj[u]) {
      if (stamp[v] == epoch) continue;
      stamp[v] = epoch;
      stack.push_back(v);
    }
  }
  return true;
}

/// Finds a directed cycle by iterative coloring DFS; returns nodes
/// w0..wk-1 with edges wi -> w(i+1 mod k), or empty if acyclic.
std::vector<std::uint32_t> find_cycle(const Graph& g) {
  const auto n = static_cast<std::uint32_t>(g.fwd.size());
  std::vector<std::uint8_t> color(n, 0);  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    stack.clear();
    stack.emplace_back(root, 0);
    color[root] = 1;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back().first;
      if (stack.back().second < g.fwd[u].size()) {
        const std::uint32_t v = g.fwd[u][stack.back().second++];
        if (color[v] == 0) {
          color[v] = 1;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (color[v] == 1) {
          // Back edge u -> v: the tree path v ->* u closes the cycle.
          std::vector<std::uint32_t> cycle;
          for (std::uint32_t x = u; x != v; x = parent[x]) cycle.push_back(x);
          cycle.push_back(v);
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace

Result saturate(const ProjectedView& view, const Options& options) {
  Result res;
  const Value initial = view.initial_value();
  const std::size_t num_h = view.num_histories();

  // ---- Node table: writes sorted by (history, position). ----
  std::vector<std::vector<std::uint32_t>> hist_writes(num_h);
  std::vector<std::vector<std::uint32_t>> node_at(num_h);  // (h, j) -> node
  std::unordered_map<Value, std::vector<std::uint32_t>> writers;
  for (std::size_t h = 0; h < num_h; ++h) {
    const auto run = view.history(h);
    node_at[h].assign(run.size(), kNone);
    for (std::uint32_t j = 0; j < run.size(); ++j) {
      const Operation& op = run[j].op;
      if (!op.writes_memory()) continue;
      const auto id = static_cast<std::uint32_t>(res.writes.size());
      res.writes.push_back(run[j].ref);
      res.writes_local.push_back(OpRef{static_cast<std::uint32_t>(h), j});
      hist_writes[h].push_back(id);
      node_at[h][j] = id;
      writers[op.value_written].push_back(id);
    }
  }
  const auto w = static_cast<std::uint32_t>(res.writes.size());

  Graph graph(w);

  // ---- Seeds: program order (consecutive same-history writes). ----
  for (const auto& chain : hist_writes)
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      graph.add(chain[i], chain[i + 1]);

  // ---- Seeds: final-value pin. ----
  if (const auto fin = view.final_value()) {
    const auto it = writers.find(*fin);
    if (it == writers.end()) {
      if (w > 0 || *fin != initial) {
        res.status = Status::kContradiction;
        res.contradiction = Contradiction{ContradictionKind::kUnwritableFinal,
                                          OpRef{}, OpRef{}, *fin};
        return res;
      }
    } else if (it->second.size() == 1) {
      // The unique write of the final value is last: it follows the
      // last write of every other history (transitivity covers the
      // rest of each chain).
      const std::uint32_t wf = it->second.front();
      for (const auto& chain : hist_writes)
        if (!chain.empty()) graph.add(chain.back(), wf);
    }
  }

  // ---- Read obligations + trace-level dead ends. ----
  std::vector<ReadItem> reads;
  for (std::size_t h = 0; h < num_h; ++h) {
    const auto run = view.history(h);
    std::vector<std::uint32_t> next_write(run.size(), kNone);
    std::uint32_t upcoming = kNone;
    for (std::size_t j = run.size(); j-- > 0;) {
      next_write[j] = upcoming;
      if (node_at[h][j] != kNone) upcoming = node_at[h][j];
    }
    std::uint32_t last_write = kNone;
    for (std::uint32_t j = 0; j < run.size(); ++j) {
      const Operation& op = run[j].op;
      const std::uint32_t self = node_at[h][j];
      if (!op.reads_memory()) {
        if (self != kNone) last_write = self;
        continue;
      }
      ReadItem item;
      item.ref = run[j].ref;
      item.value = op.value_read;
      item.xm = last_write;
      // An RMW's own write half is the first write after the read half.
      item.nx = self != kNone ? self : next_write[j];
      item.init_cand = item.value == initial && item.xm == kNone;
      const auto wit = writers.find(item.value);
      const std::size_t total_writers =
          wit == writers.end() ? 0 : wit->second.size();
      if (wit != writers.end()) {
        // Excluded candidates — the RMW itself and own program-order-future
        // writes — are exactly the own-history bucket entries with index
        // >= j (a write at index j can only be this very RMW), and the
        // bucket is sorted by (history, position), so they form one
        // contiguous block. Counting survivors by binary search first
        // keeps hot values (thousands of same-value writes, every read
        // about to be discarded as untracked anyway) at O(log) per read
        // instead of an O(bucket) walk that made contended traces
        // quadratic.
        const std::vector<std::uint32_t>& bucket = wit->second;
        const auto h_begin = std::partition_point(
            bucket.begin(), bucket.end(),
            [&](std::uint32_t c) { return res.writes_local[c].process < h; });
        const auto h_end = std::partition_point(
            h_begin, bucket.end(),
            [&](std::uint32_t c) { return res.writes_local[c].process == h; });
        const auto excl_begin = std::partition_point(
            h_begin, h_end,
            [&](std::uint32_t c) { return res.writes_local[c].index < j; });
        const std::size_t keep =
            bucket.size() - static_cast<std::size_t>(h_end - excl_begin);
        if (keep <= options.max_tracked_candidates) {
          item.cand.reserve(keep);
          item.cand.insert(item.cand.end(), bucket.begin(), excl_begin);
          item.cand.insert(item.cand.end(), h_end, bucket.end());
        } else {
          // Matches the post-loop wide-read bail-out below without
          // materializing the list.
          if (self != kNone) last_write = self;
          continue;
        }
      }
      if (self != kNone) last_write = self;  // RMW advances program order
      if (item.cand.empty() && !item.init_cand) {
        if (total_writers == 0) {
          res.status = Status::kContradiction;
          if (item.value == initial) {
            // Only the earlier same-process write blocks the initial value.
            res.contradiction =
                Contradiction{ContradictionKind::kStaleInitialRead, item.ref,
                              res.writes[item.xm], item.value};
          } else {
            res.contradiction = Contradiction{ContradictionKind::kUnwrittenRead,
                                              item.ref, OpRef{}, item.value};
          }
          return res;
        }
        if (total_writers == 1) {
          const std::uint32_t only = wit->second.front();
          if (only != self) {
            // The unique write of the value follows the read in po.
            res.status = Status::kContradiction;
            res.contradiction =
                Contradiction{ContradictionKind::kReadBeforeWrite, item.ref,
                              res.writes[only], item.value};
            return res;
          }
          // An RMW consuming the value only it produces: incoherent,
          // but no dedicated evidence kind — leave it to the fallback.
          res.pruned_empty_read = true;
          continue;
        }
        // Several writes of the value, all excluded by program order:
        // incoherent, certifiable only by the fallback decider.
        res.pruned_empty_read = true;
        continue;
      }
      // Effectively unconstrained wide reads are not worth tracking.
      if (item.cand.size() > options.max_tracked_candidates) continue;
      reads.push_back(std::move(item));
    }
  }

  // ---- Seeds alone can already be cyclic (final pin vs po). ----
  if (auto cyc = find_cycle(graph); !cyc.empty()) {
    res.status = Status::kCycle;
    res.cycle = std::move(cyc);
    res.edges = std::move(graph.edges);
    return res;
  }

  // ---- Fixpoint: R2 pruning + R1 pinning until nothing changes. ----
  std::uint64_t budget = options.reach_budget;
  Condensation cond;
  bool cond_dirty = true;  // edges added since the last build
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> scratch;
  bool changed = true;
  while (changed && res.rounds < options.max_rounds) {
    changed = false;
    ++res.rounds;
    for (ReadItem& item : reads) {
      if (item.resolved) continue;
      const std::size_t total = item.cand.size() + (item.init_cand ? 1 : 0);
      if (total == 0) {
        // R2 emptied the candidate set: no coherent source exists, but
        // only the fallback decider can certify the refutation.
        res.pruned_empty_read = true;
        item.resolved = true;
        continue;
      }
      if (total == 1) {
        item.resolved = true;
        if (item.init_cand) continue;  // observes the initial value
        const std::uint32_t s = item.cand.front();
        bool added = false;
        if (item.xm != kNone && item.xm != s) added |= graph.add(item.xm, s);
        if (item.nx != kNone && item.nx != s) added |= graph.add(s, item.nx);
        if (added) {
          changed = true;
          cond_dirty = true;
        }
        continue;
      }
      if (item.xm == kNone && item.nx == kNone) {
        item.resolved = true;  // R2 has no anchor; nothing derivable
        continue;
      }
      if (budget == 0) {
        res.budget_hit = true;
        continue;
      }
      // R2: drop candidates that provably cannot be the source. Queries
      // run on the SCC condensation, rebuilt lazily on the first query
      // after an edge was added.
      if (cond_dirty) {
        cond.build(graph);
        ++res.scc_builds;
        res.scc_components = cond.num;
        stamp.assign(cond.num, 0);
        epoch = 0;
        cond_dirty = false;
      }
      std::uint32_t anc_epoch = 0;
      std::uint32_t desc_epoch = 0;
      if (item.xm != kNone) {
        anc_epoch = ++epoch;
        ++res.reach_queries;
        if (!mark_reachable(cond.rev, cond.comp[item.xm], stamp, anc_epoch,
                            scratch, budget))
          res.budget_hit = true;
      }
      if (item.nx != kNone) {
        desc_epoch = ++epoch;
        ++res.reach_queries;
        if (!mark_reachable(cond.fwd, cond.comp[item.nx], stamp, desc_epoch,
                            scratch, budget))
          res.budget_hit = true;
      }
      const std::size_t before = item.cand.size();
      std::erase_if(item.cand, [&](std::uint32_t c) {
        // c ->* xm with c != xm: c is overwritten before the read (a
        // candidate sharing xm's component is in a cycle with it, so
        // c ->* xm holds there too).
        if (anc_epoch != 0 && c != item.xm && stamp[cond.comp[c]] == anc_epoch)
          return true;
        // nx ->* c: c lands after the read.
        return desc_epoch != 0 && stamp[cond.comp[c]] == desc_epoch;
      });
      if (item.cand.size() != before) changed = true;
    }
    if (changed) {
      if (auto cyc = find_cycle(graph); !cyc.empty()) {
        res.status = Status::kCycle;
        res.cycle = std::move(cyc);
        res.edges = std::move(graph.edges);
        return res;
      }
    }
  }
  if (changed) res.budget_hit = true;  // round cap stopped the fixpoint

  // ---- Forced-total detection: Kahn with a unique-ready check. ----
  res.edges = std::move(graph.edges);
  std::vector<std::uint32_t> indeg(w, 0);
  for (const auto& [a, b] : res.edges) {
    (void)a;
    ++indeg[b];
  }
  std::set<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < w; ++i)
    if (indeg[i] == 0) ready.insert(i);
  bool total_order = true;
  res.forced.reserve(w);
  while (!ready.empty()) {
    const auto concurrent = static_cast<std::uint32_t>(ready.size());
    if (concurrent > res.max_concurrent) res.max_concurrent = concurrent;
    if (concurrent > 1) {
      total_order = false;
      ++res.branch_points;
      if (res.branch_points == 1) {
        auto it = ready.begin();
        const std::uint32_t first = *it;
        ++it;
        res.unordered_example = {first, *it};
      }
    }
    const std::uint32_t u = *ready.begin();
    ready.erase(ready.begin());
    res.forced.push_back(u);
    for (const std::uint32_t v : graph.fwd[u])
      if (--indeg[v] == 0) ready.insert(v);
  }
  // No cycle (checked above), so Kahn consumed every node. With a
  // unique ready node at every step the derived partial order has a
  // unique linear extension: any coherent write order must equal it.
  if (total_order) {
    res.status = Status::kForcedTotal;
  } else {
    res.status = Status::kPartial;
    res.forced.clear();
  }
  return res;
}

}  // namespace vermem::saturate_reference
