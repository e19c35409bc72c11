#include "stream/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stream/spsc_queue.hpp"
#include "support/arena.hpp"
#include "support/hash.hpp"
#include "vmc/online.hpp"

namespace vermem::stream {

namespace {

using vmc::CheckResult;
using vmc::Verdict;

std::size_t resolve_shards(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t half = hw / 2;
  return std::clamp<std::size_t>(half, 1, 8);
}

/// Stable address -> shard map (Fibonacci hash; must not change across
/// versions or platforms, since tests and reports depend on which shard
/// saw an address only through determinism of the merged output).
std::size_t shard_of(Addr addr, std::size_t shards) noexcept {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(addr) + 1) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>((h >> 32) % shards);
}

CheckResult skipped_result() {
  return CheckResult::unknown(certify::UnknownReason::kSkipped,
                              "deadline expired or request cancelled");
}

/// The addresses one shard has seen in a run, numbered densely in order
/// of first appearance: a slot number indexes the shard's per-address
/// state, and finding it costs one open-addressing probe sequence, with
/// no node per address. Storage is kept across runs.
class AddressSlots {
 public:
  struct Found {
    std::uint32_t slot;
    bool fresh;  ///< the address was added by this call
  };

  [[nodiscard]] Found find_or_add(Addr addr) {
    std::size_t bucket = home(addr);
    for (;; bucket = (bucket + 1) & (index_.size() - 1)) {
      const std::uint32_t entry = index_[bucket];
      if (entry == 0) break;
      if (addrs_[entry - 1] == addr) return {entry - 1, false};
    }
    const auto slot = static_cast<std::uint32_t>(addrs_.size());
    addrs_.push_back(addr);
    if (2 * addrs_.size() > index_.size()) {
      rehash(2 * index_.size());
    } else {
      index_[bucket] = slot + 1;
    }
    return {slot, true};
  }

  [[nodiscard]] Addr addr(std::uint32_t slot) const noexcept { return addrs_[slot]; }

  /// Slot numbers ordered by address.
  [[nodiscard]] std::vector<std::uint32_t> by_address() const {
    std::vector<std::uint32_t> slots(addrs_.size());
    for (std::uint32_t s = 0; s < slots.size(); ++s) slots[s] = s;
    std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
      return addrs_[a] < addrs_[b];
    });
    return slots;
  }

  void clear() {
    addrs_.clear();
    std::fill(index_.begin(), index_.end(), 0);
  }

 private:
  [[nodiscard]] std::size_t home(Addr addr) const noexcept {
    // shard_of already spent the golden-ratio product's high bits on the
    // shard choice, so the bucket comes from a full avalanche instead.
    return static_cast<std::size_t>(mix64(addr) & (index_.size() - 1));
  }

  void rehash(std::size_t buckets) {
    index_.assign(buckets, 0);
    for (std::uint32_t s = 0; s < addrs_.size(); ++s) {
      std::size_t bucket = home(addrs_[s]);
      while (index_[bucket] != 0) bucket = (bucket + 1) & (buckets - 1);
      index_[bucket] = s + 1;
    }
  }

  std::vector<Addr> addrs_;                        ///< by slot
  std::vector<std::uint32_t> index_ =              ///< slot + 1, 0 = empty
      std::vector<std::uint32_t>(64, 0);
};

/// Ordered-mode state of one address slot: the online checker's state,
/// and the first offending event once one arrived (the slot then
/// ignores the rest of the run).
struct OnlineSlot {
  vmc::OnlineAddress state;
  std::optional<vmc::OnlineViolationKind> violation;
  OpRef violation_at;
};

}  // namespace

// ---------------------------------------------------------------------------
// Shard: one checker thread plus all its per-run state. Instances persist
// across runs (owned by the StreamVerifier), so the queue, the arena and
// the address slots keep their storage from one trace to the next.

struct StreamVerifier::Shard {
  explicit Shard(std::size_t queue_blocks)
      : queue(queue_blocks < 2 ? 2 : queue_blocks), arena(std::size_t{1} << 16) {}

  SpscRing<EventBlock> queue;
  std::thread thread;
  std::atomic<bool> abort{false};

  // Run configuration (set by reset_for_run; owned by the caller).
  bool ordered = false;
  std::uint32_t num_processes = 0;
  const std::unordered_map<Addr, Value>* initials = nullptr;
  const std::unordered_map<Addr, Value>* finals = nullptr;
  const WriteOrderLog* orders = nullptr;
  const search::Limits* exact = nullptr;

  // Every address this run has routed here, numbered by slot.
  AddressSlots slots;

  // Complete-mode accumulation: per-slot event runs in arena storage.
  Arena arena;
  std::vector<ArenaVec<OpRecord>> runs;

  // Ordered-mode state, per slot. Entries past the run's last slot are
  // left over from earlier runs and are reset when an address takes them.
  std::vector<OnlineSlot> online;

  // Per-run outputs, merged by the reader after join.
  std::vector<vmc::AddressReport> reports;
  analysis::RouteTally routing;
  std::uint64_t queue_peak = 0;
  std::uint64_t window_peak = 0;
  bool saw_interrupt = false;

  void reset_for_run(bool run_ordered, std::uint32_t np,
                     const std::unordered_map<Addr, Value>* init,
                     const std::unordered_map<Addr, Value>* fin,
                     const WriteOrderLog* wo, const search::Limits* opts) {
    ordered = run_ordered;
    num_processes = np;
    initials = init;
    finals = fin;
    orders = wo;
    exact = opts;
    abort.store(false, std::memory_order_relaxed);
    slots.clear();
    runs.clear();
    arena.reset();
    reports.clear();
    routing = {};
    queue_peak = 0;
    window_peak = 0;
    saw_interrupt = false;
  }

  void run();
  void accumulate(const OpRecord& event);
  void observe_ordered(const OpRecord& event);
  void finish_complete();
  void finish_ordered();
  void check_one_complete(Addr addr, ArenaVec<OpRecord>& run);
  [[nodiscard]] CheckResult online_violation(std::uint32_t slot) const;
  void emit_aborted_reports();
};

void StreamVerifier::Shard::run() {
  obs::Span span("stream.shard");
  static const obs::Histogram depth_hist =
      obs::histogram("vermem_stream_queue_depth");
  for (;;) {
    EventBlock* block = queue.front();
    if (block == nullptr) {
      if (abort.load(std::memory_order_acquire)) {
        emit_aborted_reports();
        return;
      }
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t depth = queue.size_approx();
    if (depth > queue_peak) queue_peak = depth;
    if (obs::enabled()) depth_hist.observe(depth);
    const bool last = block->last;
    if (ordered) {
      for (std::uint32_t i = 0; i < block->count; ++i)
        observe_ordered(block->events[i]);
    } else {
      for (std::uint32_t i = 0; i < block->count; ++i)
        accumulate(block->events[i]);
    }
    queue.pop();
    if (last) break;
  }
  if (ordered)
    finish_ordered();
  else
    finish_complete();
  if (span.active()) {
    span.attr("addresses", static_cast<std::uint64_t>(reports.size()));
    span.attr("queue_peak", queue_peak);
  }
}

void StreamVerifier::Shard::accumulate(const OpRecord& event) {
  const auto [slot, fresh] = slots.find_or_add(event.op.addr);
  if (fresh) runs.emplace_back(arena);
  runs[slot].push_back(event);
}

void StreamVerifier::Shard::observe_ordered(const OpRecord& event) {
  const auto [slot, fresh] = slots.find_or_add(event.op.addr);
  if (fresh) {
    if (slot == online.size()) online.emplace_back();
    OnlineSlot& taken = online[slot];
    const auto seed = initials->find(event.op.addr);
    taken.state.reset(num_processes,
                      seed != initials->end() ? seed->second : Value{0});
    taken.violation.reset();
  }
  OnlineSlot& s = online[slot];
  if (s.violation) return;  // latched; the rest of the run is ignored
  // The decoder admits only blocks of declared processes, so the process
  // has an anchor here.
  s.violation = s.state.observe(event.ref.process, event.op);
  if (s.violation) s.violation_at = event.ref;
}

CheckResult StreamVerifier::Shard::online_violation(std::uint32_t slot) const {
  // The verdict of the first offending event, with its original-trace
  // coordinates. The write_order field stays empty: the serialization is
  // the stream itself, not a supplied log.
  const OnlineSlot& s = online[slot];
  const Addr addr = slots.addr(slot);
  return CheckResult::no(
      *s.violation == vmc::OnlineViolationKind::kRmwMismatch
          ? certify::order_rmw_mismatch(addr, s.violation_at, {})
          : certify::order_read_window(addr, s.violation_at, {}));
}

void StreamVerifier::Shard::finish_ordered() {
  for (const std::uint32_t slot : slots.by_address()) {
    const Addr addr = slots.addr(slot);
    const OnlineSlot& s = online[slot];
    window_peak += s.state.peak_retained();
    if (exact->interrupted()) {
      saw_interrupt = true;
      reports.push_back({addr, skipped_result()});
      continue;
    }
    if (s.violation) {
      reports.push_back({addr, online_violation(slot)});
      continue;
    }
    // End-of-stream final check, restricted to this address: the batch
    // path ignores recorded finals on addresses no operation touches,
    // so the streamed path must too.
    const auto rec = finals->find(addr);
    if (rec == finals->end() || rec->second == s.state.last_value()) {
      reports.push_back({addr, CheckResult::yes({})});
    } else {
      reports.push_back(
          {addr, CheckResult::no(certify::order_final_mismatch(
                     addr, s.state.last_value(), rec->second, {}))});
    }
  }
}

void StreamVerifier::Shard::finish_complete() {
  for (const std::uint32_t slot : slots.by_address()) {
    const Addr addr = slots.addr(slot);
    if (exact->interrupted()) {
      saw_interrupt = true;
      reports.push_back({addr, skipped_result()});
      continue;
    }
    check_one_complete(addr, runs[slot]);
  }
}

void StreamVerifier::Shard::check_one_complete(Addr addr,
                                               ArenaVec<OpRecord>& run) {
  // A view wants its run sorted by ref: grouped by process, program order
  // within each group, as AddressIndex lays it out. The canonical encoding
  // already delivers events in that order, so the sort runs only for
  // another block interleaving (refs are unique, so the order is total).
  const auto by_ref = [](const OpRecord& a, const OpRecord& b) {
    return a.ref < b.ref;
  };
  if (!std::is_sorted(run.data(), run.data() + run.size(), by_ref))
    std::sort(run.data(), run.data() + run.size(), by_ref);
  const std::span<const OpRecord> records(run.data(), run.size());
  const auto init = initials->find(addr);
  const auto fin = finals->find(addr);
  const ProjectedView view(
      AddressEntry::of(addr, records), records,
      init != initials->end() ? init->second : Value{0},
      fin != finals->end() ? std::optional<Value>(fin->second) : std::nullopt);

  // The log stays in original coordinates, exactly as on the batch path.
  const std::vector<OpRef>* order = nullptr;
  if (orders != nullptr) {
    const auto it = orders->find(addr);
    if (it != orders->end()) order = &it->second;
  }
  analysis::RouteOutcome outcome = analysis::check_routed(view, order, *exact);
  routing.add(outcome);
  reports.push_back({addr, std::move(outcome.result)});
}

void StreamVerifier::Shard::emit_aborted_reports() {
  // The stream stopped mid-ingest (cancel or decode error): incomplete
  // per-address data must never yield a definite verdict, except an
  // ordered-mode violation already latched — a violation on a prefix of
  // the declared serialization is conclusive.
  for (const std::uint32_t slot : slots.by_address()) {
    const Addr addr = slots.addr(slot);
    if (ordered) {
      window_peak += online[slot].state.peak_retained();
      if (online[slot].violation) {
        reports.push_back({addr, online_violation(slot)});
        continue;
      }
    }
    reports.push_back({addr, skipped_result()});
  }
}

// ---------------------------------------------------------------------------
// StreamVerifier: the reader side.

StreamVerifier::StreamVerifier(StreamOptions options)
    : options_(std::move(options)) {
  const std::size_t count = resolve_shards(options_.shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<Shard>(options_.queue_blocks));
}

StreamVerifier::~StreamVerifier() = default;

StreamResult StreamVerifier::run(BinaryTraceReader& reader) {
  obs::Span span("stream.verify");
  static const obs::Counter runs = obs::counter("vermem_stream_runs_total");
  static const obs::Counter events_total =
      obs::counter("vermem_stream_events_total");
  static const obs::Counter blocks_total =
      obs::counter("vermem_stream_blocks_total");
  static const obs::Counter violations_total =
      obs::counter("vermem_stream_violations_total");
  runs.add();

  StreamResult out;
  out.shards_used = shards_.size();
  if (!reader.read_header()) {
    out.error = reader.error();
    out.error_byte = reader.byte_offset();
    out.report.verdict = Verdict::kUnknown;
    return out;
  }
  const bool ordered = reader.ordered();
  out.ordered = ordered;

  const WriteOrderLog* orders =
      reader.has_write_orders() ? &reader.write_orders() : nullptr;
  for (const auto& shard : shards_) {
    shard->reset_for_run(ordered, reader.num_processes(),
                         &reader.initial_values(), &reader.final_values(),
                         orders, &options_.exact);
    shard->thread = std::thread([s = shard.get()] { s->run(); });
  }

  const std::size_t num_shards = shards_.size();
  std::vector<EventBlock*> open(num_shards, nullptr);
  OpRecord event;
  bool decode_error = false;
  bool cancelled = false;

  for (;;) {
    if ((out.events & 1023u) == 0 && options_.exact.interrupted()) {
      cancelled = true;
      break;
    }
    const BinaryTraceReader::Next next = reader.next(event);
    if (next == BinaryTraceReader::Next::kEnd) break;
    if (next == BinaryTraceReader::Next::kError) {
      decode_error = true;
      break;
    }
    ++out.events;
    // Sync ops advance program-order coordinates (the decoder already
    // counted them into event.ref) but are never routed: the checkers'
    // address space has no entry for them, matching AddressIndex.
    if (event.op.is_sync()) continue;
    const std::size_t s = shard_of(event.op.addr, num_shards);
    EventBlock* block = open[s];
    if (block == nullptr) {
      block = shards_[s]->queue.begin_push();
      if (block == nullptr) {
        // Bounded memory means the reader waits for the slowest shard.
        // No deadlock — the shard only stops draining after the last
        // block, which has not been sent yet.
        do {
          if (options_.exact.interrupted()) {
            cancelled = true;
            break;
          }
          std::this_thread::yield();
          block = shards_[s]->queue.begin_push();
        } while (block == nullptr);
        if (cancelled) break;
      }
      block->count = 0;
      block->last = false;
      open[s] = block;
    }
    block->events[block->count++] = event;
    if (block->count == kBlockEvents) {
      shards_[s]->queue.commit_push();
      open[s] = nullptr;
      ++out.blocks;
    }
  }

  if (decode_error || cancelled) {
    for (const auto& shard : shards_)
      shard->abort.store(true, std::memory_order_release);
  } else {
    // Clean end of stream: flush partial blocks and deliver the
    // end-of-stream marker to every shard.
    for (std::size_t s = 0; s < num_shards; ++s) {
      EventBlock* block = open[s];
      if (block == nullptr) {
        do {
          block = shards_[s]->queue.begin_push();
          if (block == nullptr) std::this_thread::yield();
        } while (block == nullptr);
        block->count = 0;
      }
      block->last = true;
      shards_[s]->queue.commit_push();
      ++out.blocks;
    }
  }
  for (const auto& shard : shards_) shard->thread.join();

  out.cancelled = cancelled;
  std::vector<vmc::AddressReport> merged;
  for (const auto& shard : shards_) {
    merged.insert(merged.end(),
                  std::make_move_iterator(shard->reports.begin()),
                  std::make_move_iterator(shard->reports.end()));
    out.routing.merge(shard->routing);
    if (shard->queue_peak > out.queue_peak_blocks)
      out.queue_peak_blocks = shard->queue_peak;
    out.online_window_peak += shard->window_peak;
    out.cancelled = out.cancelled || shard->saw_interrupt;
  }

  const std::uint64_t queue_bytes =
      static_cast<std::uint64_t>(num_shards) * shards_[0]->queue.capacity() *
      sizeof(EventBlock);
  out.resident_peak_bytes = queue_bytes;
  if (ordered) {
    out.resident_peak_bytes += out.online_window_peak * sizeof(Value);
  } else {
    for (const auto& shard : shards_)
      out.resident_peak_bytes += shard->arena.stats().high_water;
  }

  events_total.add(out.events);
  blocks_total.add(out.blocks);

  if (decode_error) {
    out.error = reader.error();
    out.error_byte = reader.byte_offset();
    out.report.verdict = Verdict::kUnknown;
    if (span.active()) span.attr("error", "decode");
    return out;
  }

  std::sort(merged.begin(), merged.end(),
            [](const vmc::AddressReport& a, const vmc::AddressReport& b) {
              return a.addr < b.addr;
            });
  out.report = vmc::aggregate_reports(std::move(merged));
  // A cancelled run can hold definite per-address violations (sound on
  // any prefix) but must never claim whole-trace coherence: ingestion
  // stopped early, so addresses may be missing from the report entirely.
  if (out.cancelled && out.report.verdict == Verdict::kCoherent)
    out.report.verdict = Verdict::kUnknown;

  std::uint64_t violations = 0;
  for (const vmc::AddressReport& report : out.report.addresses)
    if (report.result.verdict == Verdict::kIncoherent) ++violations;
  if (violations != 0) violations_total.add(violations);

  if (span.active()) {
    span.attr("events", out.events);
    span.attr("shards", static_cast<std::uint64_t>(out.shards_used));
    span.attr("ordered", static_cast<std::uint64_t>(ordered ? 1 : 0));
    span.attr("verdict", vmc::to_string(out.report.verdict));
  }
  return out;
}

StreamResult StreamVerifier::run(std::istream& in) {
  BinaryTraceReader reader(in, {}, options_.limits);
  return run(reader);
}

StreamResult verify_stream(std::istream& in, const StreamOptions& options) {
  StreamVerifier verifier(options);
  return verifier.run(in);
}

}  // namespace vermem::stream
