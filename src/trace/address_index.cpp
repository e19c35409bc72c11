#include "trace/address_index.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace vermem {

AddressEntry AddressEntry::of(Addr addr, std::span<const OpRecord> run) {
  AddressEntry entry;
  entry.addr = addr;
  entry.op_count = static_cast<std::uint32_t>(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    const Operation& op = run[i].op;
    if (op.writes_memory()) ++entry.write_count;
    if (op.kind != OpKind::kRmw) entry.rmw_only = false;
    if (i == 0 || run[i].ref.process != run[i - 1].ref.process)
      ++entry.process_count;
  }
  return entry;
}

ProjectedView::ProjectedView(const AddressEntry& entry,
                             std::span<const OpRecord> run, Value initial,
                             std::optional<Value> final_value)
    : entry_(entry), records_(run), initial_(initial), final_(final_value) {
  history_begin_.reserve(entry.process_count + 1);
  history_process_.reserve(entry.process_count);
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    if (i == 0 || records_[i].ref.process != records_[i - 1].ref.process) {
      history_begin_.push_back(i);
      history_process_.push_back(records_[i].ref.process);
    }
  }
  history_begin_.push_back(static_cast<std::uint32_t>(records_.size()));
}

std::optional<OpRef> ProjectedView::projected_of(OpRef original) const {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), original,
      [](const OpRecord& r, OpRef ref) { return r.ref < ref; });
  if (it == records_.end() || it->ref != original) return std::nullopt;
  const auto flat = static_cast<std::uint32_t>(it - records_.begin());
  const auto run = std::upper_bound(history_begin_.begin(),
                                    history_begin_.end(), flat);
  const auto h = static_cast<std::uint32_t>(run - history_begin_.begin()) - 1;
  return OpRef{h, flat - history_begin_[h]};
}

Execution ProjectedView::materialize() const {
  Execution exec;
  for (std::size_t h = 0; h < num_histories(); ++h) {
    const auto run = history(h);
    std::vector<Operation> ops;
    ops.reserve(run.size());
    for (const OpRecord& r : run) ops.push_back(r.op);
    exec.add_history(ProcessHistory{std::move(ops)});
  }
  exec.set_initial_value(addr(), initial_);
  if (final_) exec.set_final_value(addr(), *final_);
  return exec;
}

ValueTable::ValueTable(const ProjectedView& view) {
  const auto records = view.records();
  // At most one value per read half and one per write half; at least
  // twice that many slots keeps the table at most half full.
  const std::size_t most = records.size() + view.stats().write_count;
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * most, 8));
  shift_ = 64 - std::countr_zero(slots);
  slots_.assign(slots, 0);
  values_.reserve(most);
  writes_.reserve(most);
  ids_.resize(2 * records.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    const Operation& op = records[k].op;
    std::uint32_t written = kNone;
    std::uint32_t read = kNone;
    if (op.reads_memory()) read = intern(op.value_read);
    if (op.writes_memory()) {
      written = intern(op.value_written);
      ++writes_[written];
    }
    ids_[2 * k] = written;
    ids_[2 * k + 1] = read;
  }
}

std::size_t ValueTable::slot_of(Value value) const noexcept {
  // Fibonacci hashing, then linear probing to the value or an empty slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(value) * 0x9e3779b97f4a7c15ull) >> shift_);
  while (slots_[slot] != 0 && values_[slots_[slot] - 1] != value)
    slot = (slot + 1) & mask;
  return slot;
}

std::uint32_t ValueTable::intern(Value value) {
  const std::size_t slot = slot_of(value);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  const auto id = static_cast<std::uint32_t>(values_.size());
  values_.push_back(value);
  writes_.push_back(0);
  slots_[slot] = id + 1;
  return id;
}

std::uint32_t ValueTable::id_of(Value value) const noexcept {
  const std::uint32_t entry = slots_[slot_of(value)];
  return entry != 0 ? entry - 1 : kNone;
}

AddressIndex::AddressIndex(const Execution& exec) : exec_(&exec) {
  obs::Span span("trace.index_build");
  // Sweep 1: discover addresses and count their operations.
  std::vector<std::uint32_t> counts;  // by discovery slot
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    for (const Operation& op : exec.history(p).ops()) {
      if (op.is_sync()) continue;
      const auto [it, inserted] = slot_of_.try_emplace(
          op.addr, static_cast<std::uint32_t>(counts.size()));
      if (inserted) {
        counts.push_back(0);
        addresses_.push_back(op.addr);
      }
      ++counts[it->second];
    }
  }

  // Sort addresses and lay the arena out with one offset prefix sum; the
  // slot map is re-pointed at sorted positions.
  std::sort(addresses_.begin(), addresses_.end());
  std::vector<std::uint32_t> cursor(addresses_.size());
  entries_.resize(addresses_.size());
  std::uint32_t offset = 0;
  for (std::uint32_t i = 0; i < addresses_.size(); ++i) {
    std::uint32_t& slot = slot_of_.at(addresses_[i]);
    entries_[i].offset = cursor[i] = offset;
    entries_[i].op_count = counts[slot];
    offset += counts[slot];
    slot = i;
  }

  // Sweep 2: drop every record into its address's run. The visit order
  // (process-major, program order) sorts each run by ref — exactly the
  // grouping project() produces.
  arena_.resize(offset);
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    const auto& history = exec.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i) {
      const Operation& op = history[i];
      if (op.is_sync()) continue;
      arena_[cursor[slot_of_.at(op.addr)]++] = OpRecord{OpRef{p, i}, op};
    }
  }

  // Stats by the same rules every view producer uses.
  for (std::uint32_t i = 0; i < addresses_.size(); ++i) {
    const std::uint32_t begin = entries_[i].offset;
    entries_[i] = AddressEntry::of(addresses_[i], records(entries_[i]));
    entries_[i].offset = begin;
  }

  if (span.active()) {
    span.attr("ops", offset);
    span.attr("addresses", addresses_.size());
  }
  if (obs::enabled()) {
    static const obs::Counter builds = obs::counter("vermem_index_builds_total");
    builds.add();
  }
}

const AddressEntry* AddressIndex::find(Addr a) const {
  const auto it = slot_of_.find(a);
  return it == slot_of_.end() ? nullptr : &entries_[it->second];
}

std::span<const OpRecord> AddressIndex::records(Addr a) const {
  const AddressEntry* entry = find(a);
  return entry ? records(*entry) : std::span<const OpRecord>{};
}

ProjectedView AddressIndex::view(Addr a) const {
  const AddressEntry* entry = find(a);
  return make_view(entry ? *entry : AddressEntry{.addr = a});
}

ProjectedView AddressIndex::view_at(std::size_t i) const {
  return make_view(entries_[i]);
}

ProjectedView AddressIndex::make_view(const AddressEntry& e) const {
  return ProjectedView(e, records(e), exec_->initial_value(e.addr),
                       exec_->final_value(e.addr));
}

}  // namespace vermem
