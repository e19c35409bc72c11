#include "analysis/fragment.hpp"

#include <algorithm>
#include <unordered_map>

namespace vermem::analysis {

std::string FragmentProfile::summary() const {
  std::string out = "fragment=";
  out += to_string(fragment);
  out += " bound=";
  out += complexity_bound(fragment);
  out += " ops=" + std::to_string(num_ops);
  out += " histories=" + std::to_string(num_histories);
  out += " writes=" + std::to_string(num_writes);
  out += " max-writes/value=" + std::to_string(max_writes_per_value);
  if (rmw_only) out += " rmw-only";
  if (has_write_order) out += " write-order-log";
  return out;
}

FragmentProfile classify(const ProjectedView& view, bool has_write_order) {
  FragmentProfile profile;
  profile.addr = view.addr();
  profile.has_write_order = has_write_order;

  const AddressEntry& stats = view.stats();
  profile.num_ops = stats.op_count;
  profile.num_writes = stats.write_count;
  profile.num_histories = static_cast<std::uint32_t>(view.num_histories());
  profile.rmw_only = stats.op_count > 0 && stats.rmw_only;

  if (profile.num_ops == 0) {
    profile.fragment = Fragment::kEmpty;
    return profile;
  }

  const Value initial = view.initial_value();
  // Per-value usage: writes (to find duplicates) and whether any read
  // observes the value (to find dead writes).
  struct ValueUse {
    std::uint32_t writes = 0;
    bool read = false;
    bool last_write = false;  ///< written by some history's last write
  };
  std::unordered_map<Value, ValueUse> values;
  values.reserve(profile.num_writes);

  for (std::size_t h = 0; h < view.num_histories(); ++h) {
    const auto run = view.history(h);
    profile.max_ops_per_history = std::max(
        profile.max_ops_per_history, static_cast<std::uint32_t>(run.size()));
    bool prev_was_pure_read = false;
    for (const OpRecord& record : run) {
      const Operation& op = record.op;
      switch (op.kind) {
        case OpKind::kRead:
          ++profile.num_reads;
          values[op.value_read].read = true;
          break;
        case OpKind::kRmw:
          ++profile.num_rmws;
          values[op.value_read].read = true;
          ++values[op.value_written].writes;
          if (op.value_written == initial) profile.writes_initial_value = true;
          break;
        case OpKind::kWrite:
          ++values[op.value_written].writes;
          if (op.value_written == initial) profile.writes_initial_value = true;
          // A pure read immediately followed (on this address, in this
          // history) by a write is the classic non-atomic increment
          // shape: the pair is a candidate for a single RMW.
          if (prev_was_pure_read) ++profile.rmw_candidate_pairs;
          break;
        case OpKind::kAcquire:
        case OpKind::kRelease:
          break;  // sync ops never enter a projection
      }
      prev_was_pure_read = op.kind == OpKind::kRead;
    }
    for (std::size_t i = run.size(); i-- > 0;) {
      const Operation& op = run[i].op;
      if (!op.writes_memory()) continue;
      values[op.value_written].last_write = true;
      break;
    }
  }

  const auto fin = view.final_value();
  for (const auto& [value, use] : values) {
    if (use.writes == 0) continue;
    profile.max_writes_per_value =
        std::max(profile.max_writes_per_value, use.writes);
    if (use.writes > 2) ++profile.values_written_thrice;
    // Mirrors lint W002: with no recorded final value, a value produced
    // by some history's last write may legitimately be the end state.
    const bool final_candidate = fin ? *fin == value : use.last_write;
    if (!use.read && !final_candidate) ++profile.unread_values;
  }
  profile.write_once =
      profile.max_writes_per_value <= 1 && !profile.writes_initial_value;

  // Routing: the most specific fragment with a dedicated decider. A
  // supplied write-order pins the question to "coherent under *this*
  // serialization" (strictly stronger than plain VMC), so it is never
  // downgraded to a value-structure fragment.
  const bool pure = profile.num_rmws == 0;
  if (has_write_order) {
    profile.fragment = Fragment::kWriteOrder;
  } else if (profile.max_ops_per_history <= 1 && profile.rmw_only) {
    profile.fragment = Fragment::kOneOpRmw;
  } else if (profile.max_ops_per_history <= 1 && pure) {
    profile.fragment = Fragment::kOneOp;
  } else if (profile.write_once && profile.rmw_only) {
    profile.fragment = Fragment::kWriteOnceRmw;
  } else if (profile.write_once && pure) {
    profile.fragment = Fragment::kWriteOnce;
  } else if (profile.rmw_only) {
    profile.fragment = Fragment::kRmwChain;
  } else if (profile.num_histories <= kBoundedProcessLimit) {
    profile.fragment = Fragment::kBoundedProcesses;
  } else {
    profile.fragment = Fragment::kGeneral;
  }
  return profile;
}

}  // namespace vermem::analysis
