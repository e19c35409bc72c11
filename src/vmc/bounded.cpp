#include "vmc/bounded.hpp"

#include <algorithm>

#include "support/arena.hpp"
#include "support/flat_set.hpp"

namespace vermem::vmc {

// Breadth-first frontier over the same packed state keys the exact DFS
// uses: one position word per history plus the current value split into
// two words. Dedup and key storage are shared with the exact path via
// support/flat_set.hpp — the FlatKeySet's dense insertion ids double as
// the parent links for witness reconstruction, so the per-state cost is
// one arena-resident key plus one ParentLink, with no per-state heap
// allocation.
CheckResult check_bounded_k(const VmcInstance& instance,
                            const BoundedKOptions& options) {
  if (const auto why = instance.malformed())
    return CheckResult::unknown(certify::UnknownReason::kMalformed, *why);
  const std::size_t k = instance.num_histories();
  if (options.max_histories != 0 && k > options.max_histories)
    return CheckResult::unknown(certify::UnknownReason::kNotApplicable,
                                "more than " +
                                    std::to_string(options.max_histories) +
                                    " histories");

  const Execution& exec = instance.execution;
  const std::size_t total_ops = instance.num_operations();
  SearchStats stats;

  Arena arena;
  FlatKeySet visited(arena, k + 2);
  const auto with_arena = [&](CheckResult result) {
    result.stats.arena_reserved = arena.stats().reserved;
    result.stats.arena_high_water = arena.stats().high_water;
    result.stats.arena_allocations = arena.stats().allocations;
    return result;
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
  const auto pack_value = [&](Value value) {
    key_buf[k] = static_cast<std::uint32_t>(static_cast<std::uint64_t>(value));
    key_buf[k + 1] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(value) >> 32);
  };

  const Value initial = instance.initial_value();
  pack_value(initial);  // key_buf positions are already all zero
  const std::uint32_t start_id = visited.insert(key_buf.data()).id;
  parents.push_back({FlatKeySet::kNone, {}});
  ++stats.states_visited;

  std::vector<std::uint32_t> level{start_id};
  std::vector<std::uint32_t> positions(k, 0);
  Value value = 0;
  const auto unpack = [&](std::uint32_t id) {
    const std::uint32_t* words = visited.key(id);
    positions.assign(words, words + k);
    value = static_cast<Value>(
        static_cast<std::uint64_t>(words[k]) |
        (static_cast<std::uint64_t>(words[k + 1]) << 32));
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
  // The deadline and cancel token are polled on the first expanded state
  // and then every 256. A state adds 0..k transitions, so gating the poll
  // on the transition count would skip multiples of 256 and could miss it
  // for long stretches.
  std::uint32_t until_poll = 0;
  for (std::size_t step = 0; step < total_ops; ++step) {
    next_level.clear();
    for (const std::uint32_t id : level) {
      if (options.max_states != 0 && stats.states_visited >= options.max_states)
        return with_arena(CheckResult::unknown(
            certify::UnknownReason::kBudget, "state budget exhausted", stats));
      if (until_poll-- == 0) {
        until_poll = 255;
        if (options.deadline.expired())
          return with_arena(CheckResult::unknown(
              certify::UnknownReason::kDeadline, "deadline exceeded", stats));
        if (options.cancel && options.cancel->cancelled())
          return with_arena(CheckResult::unknown(
              certify::UnknownReason::kSkipped, "cancelled", stats));
      }

      unpack(id);
      std::copy(positions.begin(), positions.end(), key_buf.begin());
      for (std::uint32_t p = 0; p < k; ++p) {
        const auto& history = exec.history(p);
        if (positions[p] >= history.size()) continue;
        const Operation& op = history[positions[p]];
        if (op.reads_memory() && op.value_read != value) continue;
        ++stats.transitions;

        key_buf[p] = positions[p] + 1;
        pack_value(op.writes_memory() ? op.value_written : value);
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
