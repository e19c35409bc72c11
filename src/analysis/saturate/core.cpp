#include "analysis/saturate/core.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "support/arena.hpp"
#include "support/flat_set.hpp"

namespace vermem::saturate {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// Fixpoint round cap; each round is one pass over unresolved reads.
constexpr std::uint32_t kMaxRounds = 32;
/// R2 budget, in 64-bit words of descendant rows. Allocating the rows
/// costs W * ceil(W/64) once (W = the address's write count) and every
/// rebuild pass costs (W + E) * ceil(W/64) (E = direct edges so far). An
/// address whose rows do not fit skips R2 with `budget_hit` set; the cap
/// also bounds the row storage at 32 MiB.
constexpr std::uint64_t kReachBudget = std::uint64_t{1} << 22;
/// First arena extent: 256 bytes per operation on the address, enough
/// that a contended address's whole pass fits in one extent, up to 1 MiB
/// (larger addresses grow the arena geometrically from there).
constexpr std::size_t kArenaBytesPerOp = 256;
constexpr std::size_t kMaxFirstExtent = std::size_t{1} << 20;
/// Reads with more initial candidates than this are left unpinned: they
/// are effectively unconstrained, and tracking them costs
/// O(reads * writes) memory in contended traces.
constexpr std::uint32_t kMaxTrackedCandidates = 64;

/// One read obligation (a pure read or the read half of an RMW),
/// tracked until pinned, pruned empty, or given up on.
struct ReadItem {
  std::uint32_t xm = kNone;  ///< last write node program-order-before
  std::uint32_t nx = kNone;  ///< first write node program-order-after
                             ///< (an RMW's own write half counts)
  std::uint32_t cand = 0;    ///< offset of the candidates in the pool
  std::uint32_t count = 0;   ///< remaining candidate write nodes
  std::uint32_t seen = 0;    ///< row version its candidates were last
                             ///< filtered against (0 = never)
  bool init_cand = false;    ///< may observe the initial value
  bool resolved = false;
};

/// Value buckets: the write nodes sorted by (value, node), one run per
/// distinct value. `values` lists the distinct values ascending, and the
/// run of values[i] is nodes[begin[i], begin[i + 1]).
class Buckets {
 public:
  /// `nodes` holds every write node; `value_of` gives each one's value.
  Buckets(Arena& arena, std::uint32_t* nodes, std::uint32_t n,
          const Value* value_of)
      : nodes_(nodes),
        values_(arena.allocate_array<Value>(n)),
        begin_(arena.allocate_array<std::uint32_t>(n + 1)) {
    std::sort(nodes, nodes + n, [&](std::uint32_t a, std::uint32_t b) {
      return value_of[a] != value_of[b] ? value_of[a] < value_of[b] : a < b;
    });
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i != 0 && value_of[nodes[i]] == values_[count_ - 1]) continue;
      values_[count_] = value_of[nodes[i]];
      begin_[count_++] = i;
    }
    begin_[count_] = n;
  }

  /// The write nodes of `value`, ascending (empty when none writes it).
  [[nodiscard]] std::span<const std::uint32_t> of(Value value) const {
    const Value* it = std::lower_bound(values_, values_ + count_, value);
    if (it == values_ + count_ || *it != value) return {};
    const auto i = static_cast<std::size_t>(it - values_);
    return {nodes_ + begin_[i], nodes_ + begin_[i + 1]};
  }

 private:
  const std::uint32_t* nodes_;
  Value* values_;
  std::uint32_t* begin_;
  std::uint32_t count_ = 0;
};

struct Edge {
  std::uint32_t from, to;
  std::uint32_t next;  ///< the next out-edge of `from`, or kNone
};

/// Direct-edge graph under construction, deduplicated. Each node's
/// out-edges are threaded through `edges` in insertion order (head/tail
/// per node, `next` per edge), so walks see successors in the order they
/// were derived with no list per node.
struct Graph {
  ArenaVec<Edge> edges;
  FlatKeySet keys;
  std::uint32_t* head;
  std::uint32_t* tail;
  std::uint32_t num_nodes;
  // DFS scratch (walk): colour, tree parent, and the explicit stack.
  std::uint8_t* color;
  std::uint32_t* parent;
  std::uint32_t* stack_node;
  std::uint32_t* stack_edge;

  Graph(Arena& arena, std::uint32_t n)
      : edges(arena),
        keys(arena, 2),
        head(arena.allocate_array<std::uint32_t>(n)),
        tail(arena.allocate_array<std::uint32_t>(n)),
        num_nodes(n),
        color(arena.allocate_array<std::uint8_t>(n)),
        parent(arena.allocate_array<std::uint32_t>(n)),
        stack_node(arena.allocate_array<std::uint32_t>(n)),
        stack_edge(arena.allocate_array<std::uint32_t>(n)) {
    std::fill(head, head + n, kNone);
  }

  bool add(std::uint32_t a, std::uint32_t b) {
    if (a == b) return false;
    const std::uint32_t key[2] = {a, b};
    if (!keys.insert(key).fresh) return false;
    const auto e = static_cast<std::uint32_t>(edges.size());
    edges.push_back(Edge{a, b, kNone});
    if (head[a] == kNone)
      head[a] = e;
    else
      edges[tail[a]].next = e;
    tail[a] = e;
    return true;
  }

  /// Copies the edges, in derivation order, into a Result.
  void export_to(Result& res) const {
    res.edges.reserve(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e)
      res.edges.emplace_back(edges[e].from, edges[e].to);
  }
};

/// Iterative DFS from every root in id order, following out-edges in
/// insertion order. Returns the cycle w0..wk-1 (edges wi -> w(i+1 mod k))
/// closed by the first back edge, or empty if the graph is acyclic. With
/// `post` null the walk stops at that back edge; otherwise it runs to
/// the end and writes every node into `post` in finishing order.
std::vector<std::uint32_t> walk(const Graph& g, std::uint32_t* post) {
  const std::uint32_t n = g.num_nodes;
  std::fill(g.color, g.color + n, 0);  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::uint32_t> cycle;
  std::uint32_t finished = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (g.color[root] != 0) continue;
    std::uint32_t depth = 0;
    g.stack_node[depth] = root;
    g.stack_edge[depth++] = g.head[root];
    g.color[root] = 1;
    while (depth != 0) {
      const std::uint32_t u = g.stack_node[depth - 1];
      const std::uint32_t e = g.stack_edge[depth - 1];
      if (e == kNone) {
        g.color[u] = 2;
        if (post != nullptr) post[finished++] = u;
        --depth;
        continue;
      }
      g.stack_edge[depth - 1] = g.edges[e].next;
      const std::uint32_t v = g.edges[e].to;
      if (g.color[v] == 0) {
        g.color[v] = 1;
        g.parent[v] = u;
        g.stack_node[depth] = v;
        g.stack_edge[depth++] = g.head[v];
      } else if (g.color[v] == 1 && cycle.empty()) {
        // Back edge u -> v: the tree path v ->* u closes the cycle.
        for (std::uint32_t x = u; x != v; x = g.parent[x]) cycle.push_back(x);
        cycle.push_back(v);
        std::reverse(cycle.begin(), cycle.end());
        if (post == nullptr) return cycle;
      }
    }
  }
  return cycle;
}

[[nodiscard]] std::uint64_t bit_of(const std::uint64_t* row,
                                   std::uint32_t i) noexcept {
  return (row[i >> 6] >> (i & 63)) & 1U;
}

/// Rebuilds the descendant rows: bit v of row u (`words` 64-bit words
/// per row) is set iff v is reachable from u by one or more edges.
/// Passes run in DFS finishing order, where every successor of a DAG
/// node finishes first, so an acyclic graph is exact after one pass; a
/// cycle's back edge reads a row that is still growing, so passes repeat
/// until none grows. Each pass is charged to `budget`; false means it
/// ran out and the rows are incomplete.
bool rebuild_rows(const Graph& g, std::uint64_t* rows, std::size_t words,
                  std::uint32_t* post, std::uint64_t& budget) {
  const std::uint32_t n = g.num_nodes;
  const bool cyclic = !walk(g, post).empty();
  std::fill(rows, rows + n * words, 0);
  const std::uint64_t pass_cost = (n + g.edges.size()) * words;
  while (true) {
    if (budget < pass_cost) return false;
    budget -= pass_cost;
    bool grew = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t u = post[i];
      std::uint64_t* row_u = rows + u * words;
      for (std::uint32_t e = g.head[u]; e != kNone; e = g.edges[e].next) {
        const std::uint32_t v = g.edges[e].to;
        const std::uint64_t* row_v = rows + v * words;
        for (std::size_t x = 0; x < words; ++x) {
          const std::uint64_t merged = row_u[x] | row_v[x];
          grew |= merged != row_u[x];
          row_u[x] = merged;
        }
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        grew |= (row_u[v >> 6] & bit) == 0;
        row_u[v >> 6] |= bit;
      }
    }
    if (!cyclic || !grew) return true;
  }
}

/// Kahn's ready set as a bit row, plus one summary bit per row word so
/// the lowest ready node is found without scanning empty words.
class ReadyRow {
 public:
  ReadyRow(Arena& arena, std::uint32_t n)
      : words_(arena.allocate_array<std::uint64_t>((n + 63) / 64)),
        summary_(arena.allocate_array<std::uint64_t>((n + 4095) / 4096)) {
    std::fill(words_, words_ + (n + 63) / 64, 0);
    std::fill(summary_, summary_ + (n + 4095) / 4096, 0);
  }

  void insert(std::uint32_t v) noexcept {
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
    summary_[v >> 12] |= std::uint64_t{1} << ((v >> 6) & 63);
    ++size_;
  }
  void erase(std::uint32_t v) noexcept {
    words_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    if (words_[v >> 6] == 0)
      summary_[v >> 12] &= ~(std::uint64_t{1} << ((v >> 6) & 63));
    --size_;
  }
  /// The lowest ready node; the set must be non-empty.
  [[nodiscard]] std::uint32_t lowest() const noexcept {
    std::size_t s = 0;
    while (summary_[s] == 0) ++s;
    const std::size_t word =
        s * 64 + static_cast<std::size_t>(std::countr_zero(summary_[s]));
    return static_cast<std::uint32_t>(
        word * 64 + static_cast<std::size_t>(std::countr_zero(words_[word])));
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

 private:
  std::uint64_t* words_;
  std::uint64_t* summary_;
  std::uint32_t size_ = 0;
};

}  // namespace

Result saturate(const ProjectedView& view) {
  Result res;
  const Value initial = view.initial_value();
  const std::size_t num_h = view.num_histories();

  // ---- Node table: writes sorted by (history, position). The nodes of
  // history h are the contiguous ids [first[h], first[h + 1]). ----
  std::size_t num_writes = 0;
  std::size_t num_reads = 0;
  for (const OpRecord& record : view.records()) {
    if (record.op.writes_memory()) ++num_writes;
    if (record.op.reads_memory()) ++num_reads;
  }
  Arena arena(std::min(kArenaBytesPerOp * view.num_ops(), kMaxFirstExtent));
  res.writes.reserve(num_writes);
  res.writes_local.reserve(num_writes);
  auto* first = arena.allocate_array<std::uint32_t>(num_h + 1);
  auto* value_of = arena.allocate_array<Value>(num_writes);
  auto* by_value = arena.allocate_array<std::uint32_t>(num_writes);
  for (std::size_t h = 0; h < num_h; ++h) {
    first[h] = static_cast<std::uint32_t>(res.writes.size());
    const auto run = view.history(h);
    for (std::uint32_t j = 0; j < run.size(); ++j) {
      const Operation& op = run[j].op;
      if (!op.writes_memory()) continue;
      const auto id = static_cast<std::uint32_t>(res.writes.size());
      res.writes.push_back(run[j].ref);
      res.writes_local.push_back(OpRef{static_cast<std::uint32_t>(h), j});
      value_of[id] = op.value_written;
      by_value[id] = id;
    }
  }
  const auto w = static_cast<std::uint32_t>(num_writes);
  first[num_h] = w;
  const Buckets buckets(arena, by_value, w, value_of);

  Graph graph(arena, w);

  // ---- Seeds: program order (consecutive same-history writes). ----
  for (std::size_t h = 0; h < num_h; ++h)
    for (std::uint32_t id = first[h]; id + 1 < first[h + 1]; ++id)
      graph.add(id, id + 1);

  // ---- Seeds: final-value pin. ----
  if (const auto fin = view.final_value()) {
    const auto writers = buckets.of(*fin);
    if (writers.empty()) {
      if (w > 0 || *fin != initial) {
        res.status = Status::kContradiction;
        res.contradiction = Contradiction{ContradictionKind::kUnwritableFinal,
                                          OpRef{}, OpRef{}, *fin};
        return res;
      }
    } else if (writers.size() == 1) {
      // The unique write of the final value is last: it follows the
      // last write of every other history (transitivity covers the
      // rest of each chain).
      const std::uint32_t wf = writers.front();
      for (std::size_t h = 0; h < num_h; ++h)
        if (first[h] != first[h + 1]) graph.add(first[h + 1] - 1, wf);
    }
  }

  // ---- Read obligations + trace-level dead ends. ----
  ArenaVec<ReadItem> reads(arena);
  reads.reserve(num_reads);
  ArenaVec<std::uint32_t> pool(arena);  // every read's candidates, in runs
  for (std::size_t h = 0; h < num_h; ++h) {
    const auto run = view.history(h);
    const std::uint32_t h_end = first[h + 1];
    std::uint32_t next_node = first[h];  // id of the history's next write
    for (std::uint32_t j = 0; j < run.size(); ++j) {
      const Operation& op = run[j].op;
      const std::uint32_t self = op.writes_memory() ? next_node : kNone;
      if (!op.reads_memory()) {
        if (self != kNone) ++next_node;
        continue;
      }
      const OpRef ref = run[j].ref;
      const Value value = op.value_read;
      ReadItem item;
      item.xm = next_node != first[h] ? next_node - 1 : kNone;
      // An RMW's own write half is the first write after the read half.
      item.nx = next_node != h_end ? next_node : kNone;
      item.init_cand = value == initial && item.xm == kNone;
      const auto writers = buckets.of(value);
      const std::uint32_t* writers_end = writers.data() + writers.size();
      // Excluded candidates — the RMW itself and own program-order-future
      // writes — are exactly the bucket's nodes in [next_node, h_end),
      // one contiguous block. Counting survivors by binary search first
      // keeps hot values (thousands of same-value writes, every read
      // about to be discarded as untracked anyway) at O(log) per read
      // instead of an O(bucket) walk that made contended traces
      // quadratic.
      const std::uint32_t* excl_begin =
          std::lower_bound(writers.data(), writers_end, next_node);
      const std::uint32_t* excl_end =
          std::lower_bound(excl_begin, writers_end, h_end);
      const std::size_t keep =
          writers.size() - static_cast<std::size_t>(excl_end - excl_begin);
      if (self != kNone) ++next_node;  // RMW advances program order
      // Effectively unconstrained wide reads are not worth tracking.
      if (keep > kMaxTrackedCandidates) continue;
      item.cand = static_cast<std::uint32_t>(pool.size());
      item.count = static_cast<std::uint32_t>(keep);
      pool.append(writers.data(),
                  static_cast<std::size_t>(excl_begin - writers.data()));
      pool.append(excl_end, static_cast<std::size_t>(writers_end - excl_end));
      if (item.count == 0 && !item.init_cand) {
        if (writers.empty()) {
          res.status = Status::kContradiction;
          if (value == initial) {
            // Only the earlier same-process write blocks the initial value.
            res.contradiction =
                Contradiction{ContradictionKind::kStaleInitialRead, ref,
                              res.writes[item.xm], value};
          } else {
            res.contradiction = Contradiction{ContradictionKind::kUnwrittenRead,
                                              ref, OpRef{}, value};
          }
          return res;
        }
        if (writers.size() == 1 && writers.front() != self) {
          // The unique write of the value follows the read in po.
          res.status = Status::kContradiction;
          res.contradiction =
              Contradiction{ContradictionKind::kReadBeforeWrite, ref,
                            res.writes[writers.front()], value};
          return res;
        }
        // Every write of the value is excluded by program order (or an
        // RMW consumes the value only it produces): incoherent, but no
        // dedicated evidence kind — only the fallback can certify it.
        res.pruned_empty_read = true;
        continue;
      }
      reads.push_back(item);
    }
  }

  // ---- Seeds alone can already be cyclic (final pin vs po). ----
  if (auto cyc = walk(graph, nullptr); !cyc.empty()) {
    res.status = Status::kCycle;
    res.cycle = std::move(cyc);
    graph.export_to(res);
    return res;
  }

  // ---- Fixpoint: R2 pruning + R1 pinning until nothing changes. ----
  std::uint64_t budget = kReachBudget;
  const std::size_t words = (w + 63) / 64;
  std::uint64_t* rows = nullptr;  // descendant rows, allocated on first R2
  std::uint32_t* post = nullptr;  // DFS finishing order for the rebuild
  bool rows_dirty = true;         // edges added since the last rebuild
  std::uint32_t rows_version = 0;  // rebuilds so far
  bool changed = true;
  while (changed && res.rounds < kMaxRounds) {
    changed = false;
    bool grown = false;  // edges added this round
    ++res.rounds;
    for (std::size_t r = 0; r < reads.size(); ++r) {
      ReadItem& item = reads[r];
      if (item.resolved) continue;
      std::uint32_t* cand = pool.data() + item.cand;
      const std::size_t total = item.count + (item.init_cand ? 1 : 0);
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
        const std::uint32_t s = cand[0];
        bool added = false;
        if (item.xm != kNone && item.xm != s) added |= graph.add(item.xm, s);
        if (item.nx != kNone && item.nx != s) added |= graph.add(s, item.nx);
        if (added) {
          changed = true;
          grown = true;
          rows_dirty = true;
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
      // R2: drop candidates that provably cannot be the source. The
      // rows are rebuilt on the first query after an edge was added, so
      // every query sees the exact closure of the current edges.
      if (rows == nullptr) {
        const std::uint64_t storage = std::uint64_t{w} * words;
        if (storage > budget) {
          budget = 0;
          res.budget_hit = true;
          continue;
        }
        budget -= storage;
        rows = arena.allocate_array<std::uint64_t>(w * words);
        post = arena.allocate_array<std::uint32_t>(w);
      }
      if (rows_dirty) {
        if (!rebuild_rows(graph, rows, words, post, budget)) {
          budget = 0;
          res.budget_hit = true;
          continue;
        }
        rows_dirty = false;
        ++rows_version;
      }
      if (item.xm != kNone) ++res.reach_queries;
      if (item.nx != kNone) ++res.reach_queries;
      // Rows unchanged since this read's last filter: nothing new to drop.
      if (item.seen == rows_version) continue;
      item.seen = rows_version;
      // A missing anchor reads row 0 under a zero mask, so the loop below
      // tests every candidate without a branch on the anchors.
      const std::uint32_t xm = item.xm != kNone ? item.xm : 0;
      const std::uint64_t has_xm = item.xm != kNone ? 1 : 0;
      const std::uint64_t* below_nx =
          rows + (item.nx != kNone ? item.nx : 0) * words;
      const std::uint64_t has_nx = item.nx != kNone ? 1 : 0;
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < item.count; ++i) {
        const std::uint32_t c = cand[i];
        // c ->* xm with c != xm: c is overwritten before the read.
        const std::uint64_t before =
            has_xm & (c != xm ? 1U : 0U) & bit_of(rows + c * words, xm);
        // nx ->* c (or c is nx itself): c lands after the read.
        const std::uint64_t after =
            (c == item.nx ? 1U : 0U) | (has_nx & bit_of(below_nx, c));
        cand[kept] = c;
        kept += static_cast<std::uint32_t>((before | after) ^ 1U);
      }
      if (kept != item.count) changed = true;
      item.count = kept;
    }
    // The graph was acyclic before this round, so only new edges can
    // close a cycle.
    if (grown) {
      if (auto cyc = walk(graph, nullptr); !cyc.empty()) {
        res.status = Status::kCycle;
        res.cycle = std::move(cyc);
        graph.export_to(res);
        return res;
      }
    }
  }
  if (changed) res.budget_hit = true;  // round cap stopped the fixpoint

  // ---- Forced-total detection: Kahn with a unique-ready check. ----
  graph.export_to(res);
  auto* indeg = arena.allocate_array<std::uint32_t>(w);
  std::fill(indeg, indeg + w, 0);
  for (const auto& [a, b] : res.edges) {
    (void)a;
    ++indeg[b];
  }
  ReadyRow ready(arena, w);
  for (std::uint32_t i = 0; i < w; ++i)
    if (indeg[i] == 0) ready.insert(i);
  bool total_order = true;
  auto* order = arena.allocate_array<std::uint32_t>(w);
  std::uint32_t placed = 0;
  while (ready.size() != 0) {
    const std::uint32_t concurrent = ready.size();
    if (concurrent > res.max_concurrent) res.max_concurrent = concurrent;
    const std::uint32_t u = ready.lowest();
    ready.erase(u);
    if (concurrent > 1) {
      total_order = false;
      ++res.branch_points;
      if (res.branch_points == 1) res.unordered_example = {u, ready.lowest()};
    }
    order[placed++] = u;
    for (std::uint32_t e = graph.head[u]; e != kNone; e = graph.edges[e].next)
      if (--indeg[graph.edges[e].to] == 0) ready.insert(graph.edges[e].to);
  }
  // No cycle (checked above), so Kahn consumed every node. With a
  // unique ready node at every step the derived partial order has a
  // unique linear extension: any coherent write order must equal it.
  if (total_order) {
    res.status = Status::kForcedTotal;
    res.forced.assign(order, order + placed);
  } else {
    res.status = Status::kPartial;
  }
  return res;
}

bool inert(const ProjectedView& view, const ValueTable& values) {
  constexpr std::uint32_t kNoValue = ValueTable::kNone;
  // (b): a unique final writer is pinned after every history's last
  // write, and an unwritten final value is a contradiction.
  if (const auto fin = view.final_value()) {
    const std::uint32_t id = values.id_of(*fin);
    if (id == kNoValue || values.writes(id) < 2) return false;
  }
  // own[v]: writes of value v in the current history, so writes of v in
  // the other histories are values.writes(v) - own[v]. Slot size() counts
  // the history's operations that do not write.
  const auto d = static_cast<std::uint32_t>(values.size());
  if (d == 0) return false;  // nothing reads or writes
  std::vector<std::uint32_t> own(d + 1, 0);
  // The history's reads whose candidates lie in other histories only
  // (not xm, not the initial value): each needs two such writes.
  std::vector<std::uint32_t> remote(view.num_ops());
  const Value initial = view.initial_value();
  std::size_t writing_histories = 0;
  std::size_t base = 0;  // index of the history's first record
  for (std::size_t h = 0; h < view.num_histories(); ++h) {
    const std::size_t n = view.history(h).size();
    // One branch-free pass: a record's kind is as good as random, so
    // branching on it would mispredict about once per record.
    std::size_t pending = 0;
    std::uint32_t xm = kNoValue;  // id of the last write so far
    for (std::size_t k = base; k != base + n; ++k) {
      const std::uint32_t v = values.read(k);
      const std::uint32_t w = values.written(k);
      const bool reads = v != kNoValue;
      const std::uint32_t id = reads ? v : 0;
      const bool local = xm != kNoValue ? id == xm
                                        : values.value(id) == initial;
      remote[pending] = id;
      pending += reads && !local ? 1 : 0;
      ++own[std::min(w, d)];
      xm = w != kNoValue ? w : xm;
    }
    writing_histories += own[d] != n ? 1 : 0;
    for (std::size_t i = 0; i < pending; ++i)
      if (values.writes(remote[i]) - own[remote[i]] < 2) return false;
    for (std::size_t k = base; k != base + n; ++k)
      --own[std::min(values.written(k), d)];
    base += n;
  }
  // (a): two writing histories leave two ready writes in Kahn's first
  // step, so the pass cannot find a forced total order.
  return writing_histories >= 2;
}

bool inert(const ProjectedView& view) { return inert(view, ValueTable(view)); }

bool reaches(const Result& result, std::uint32_t a, std::uint32_t b) {
  const auto n = static_cast<std::uint32_t>(result.writes.size());
  if (a >= n || b >= n || a == b) return false;
  std::vector<std::vector<std::uint32_t>> fwd(n);
  for (const auto& [x, y] : result.edges) fwd[x].push_back(y);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::uint32_t> stack{a};
  seen[a] = 1;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : fwd[u]) {
      if (v == b) return true;
      if (seen[v]) continue;
      seen[v] = 1;
      stack.push_back(v);
    }
  }
  return false;
}

}  // namespace vermem::saturate
