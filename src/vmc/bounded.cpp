#include "vmc/bounded.hpp"

#include <algorithm>

#include "search/engine.hpp"

namespace vermem::vmc {

// Breadth-first frontier over the same packed state keys the exact DFS
// uses: one position word per history plus the current value split into
// two words. Dedup and key storage are shared with the exact path via
// support/flat_set.hpp — the FlatKeySet's dense insertion ids double as
// the parent links for witness reconstruction, so the per-state cost is
// one arena-resident key plus one ParentLink, with no per-state heap
// allocation.
CheckResult check_bounded_k(const VmcInstance& instance,
                            const search::Limits& limits) {
  if (const auto why = instance.malformed())
    return CheckResult::unknown(certify::UnknownReason::kMalformed, *why);
  const std::size_t k = instance.num_histories();

  const Execution& exec = instance.execution;
  const std::size_t total_ops = instance.num_operations();
  SearchStats stats;

  Arena arena;
  FlatKeySet visited(arena, k + 2);
  const auto with_arena = [&](CheckResult result) {
    return search::with_arena(std::move(result), arena);
  };

  /// Parent links for witness reconstruction, indexed by the visited
  /// set's dense key ids: id -> (parent id, the OpRef scheduled to get
  /// here). The start state's parent is kNone.
  struct ParentLink {
    std::uint32_t parent;
    OpRef via;
  };
  ArenaVec<ParentLink> parents(arena);

  std::vector<std::uint32_t> key_buf(k + 2, 0);
  // key_buf positions are already all zero.
  search::store_value(key_buf.data() + k, instance.initial_value());
  const std::uint32_t start_id = visited.insert(key_buf.data()).id;
  parents.push_back({FlatKeySet::kNone, {}});
  ++stats.states_visited;

  std::vector<std::uint32_t> level{start_id};
  std::vector<std::uint32_t> positions(k, 0);
  Value value = 0;
  const auto unpack = [&](std::uint32_t id) {
    const std::uint32_t* words = visited.key(id);
    positions.assign(words, words + k);
    value = search::load_value(words + k);
  };

  const auto build_witness = [&](std::uint32_t id) {
    Schedule schedule;
    while (parents[id].parent != FlatKeySet::kNone) {
      schedule.push_back(parents[id].via);
      id = parents[id].parent;
    }
    std::reverse(schedule.begin(), schedule.end());
    return schedule;
  };

  std::vector<std::uint32_t> next_level;
  // Polled once per expanded state; the budget counts its own calls.
  search::Budget budget(limits);
  for (std::size_t step = 0; step < total_ops; ++step) {
    next_level.clear();
    for (const std::uint32_t id : level) {
      if (auto why = budget.stop(stats))
        return with_arena(CheckResult::unknown(std::move(*why), stats));

      unpack(id);
      std::copy(positions.begin(), positions.end(), key_buf.begin());
      for (std::uint32_t p = 0; p < k; ++p) {
        const auto& history = exec.history(p);
        if (positions[p] >= history.size()) continue;
        const Operation& op = history[positions[p]];
        if (op.reads_memory() && op.value_read != value) continue;
        ++stats.transitions;

        key_buf[p] = positions[p] + 1;
        search::store_value(key_buf.data() + k,
                            op.writes_memory() ? op.value_written : value);
        const auto inserted = visited.insert(key_buf.data());
        key_buf[p] = positions[p];

        if (!inserted.fresh) continue;
        parents.push_back({id, OpRef{p, positions[p]}});
        ++stats.states_visited;
        next_level.push_back(inserted.id);
      }
    }
    stats.max_frontier =
        std::max<std::uint64_t>(stats.max_frontier, next_level.size());
    if (next_level.empty())
      return with_arena(CheckResult::no(
          certify::search_exhaustion(instance.addr, stats.states_visited,
                                     stats.transitions),
          stats));
    level.swap(next_level);
  }

  // All operations scheduled: any final state with an acceptable value
  // wins.
  const auto fin = instance.final_value();
  for (const std::uint32_t id : level) {
    unpack(id);
    if (!fin || value == *fin)
      return with_arena(CheckResult::yes(build_witness(id), stats));
  }
  return with_arena(CheckResult::no(
      certify::search_exhaustion(instance.addr, stats.states_visited,
                                 stats.transitions),
      stats));
}

}  // namespace vermem::vmc
