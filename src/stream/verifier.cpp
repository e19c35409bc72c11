#include "stream/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stream/spsc_queue.hpp"
#include "support/arena.hpp"
#include "vmc/online.hpp"

namespace vermem::stream {

namespace {

using vmc::CheckResult;
using vmc::Verdict;

bool interrupted(const vmc::ExactOptions& options) {
  return options.deadline.expired() ||
         (options.cancel && options.cancel->cancelled());
}

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

}  // namespace

// ---------------------------------------------------------------------------
// Shard: one checker thread plus all its per-run state. Instances persist
// across runs (owned by the StreamVerifier), so the arena and the online
// checker pool reach steady state with no per-trace system allocations.

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
  const vmc::ExactOptions* exact = nullptr;

  // kComplete accumulation: per-address event runs in arena storage.
  Arena arena;
  std::unordered_map<Addr, ArenaVec<OpRecord>> accum;

  // kOrdered state: one pooled checker per live address; latched
  // violations keep the CheckResult built at the offending event.
  std::unordered_map<Addr, std::unique_ptr<vmc::OnlineCoherenceChecker>> checkers;
  std::vector<std::unique_ptr<vmc::OnlineCoherenceChecker>> checker_pool;
  std::unordered_map<Addr, CheckResult> online_done;

  // Per-run outputs, merged by the reader after join.
  std::vector<vmc::AddressReport> reports;
  analysis::RouteTally routing;
  std::uint64_t queue_peak = 0;
  std::uint64_t window_peak = 0;
  bool saw_interrupt = false;

  void reset_for_run(bool run_ordered, std::uint32_t np,
                     const std::unordered_map<Addr, Value>* init,
                     const std::unordered_map<Addr, Value>* fin,
                     const WriteOrderLog* wo, const vmc::ExactOptions* opts) {
    ordered = run_ordered;
    num_processes = np;
    initials = init;
    finals = fin;
    orders = wo;
    exact = opts;
    abort.store(false, std::memory_order_relaxed);
    accum.clear();
    arena.reset();
    for (auto& [addr, checker] : checkers)
      checker_pool.push_back(std::move(checker));
    checkers.clear();
    online_done.clear();
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
  void emit_aborted_reports();
  [[nodiscard]] std::vector<Addr> sorted_addresses() const;
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
  auto [it, fresh] = accum.try_emplace(event.op.addr, arena);
  it->second.push_back(event);
}

void StreamVerifier::Shard::observe_ordered(const OpRecord& event) {
  const Addr addr = event.op.addr;
  auto [it, fresh] = checkers.try_emplace(addr);
  if (fresh) {
    if (!checker_pool.empty()) {
      it->second = std::move(checker_pool.back());
      checker_pool.pop_back();
    } else {
      it->second = std::make_unique<vmc::OnlineCoherenceChecker>(0);
    }
    std::unordered_map<Addr, Value> init;
    const auto seed = initials->find(addr);
    if (seed != initials->end()) init.emplace(addr, seed->second);
    it->second->reset(num_processes, std::move(init));
  }
  vmc::OnlineCoherenceChecker& checker = *it->second;
  if (!checker.ok()) return;  // latched; the verdict is already recorded
  if (checker.observe(event.ref.process, event.op)) return;

  // First offending event on this address: freeze a typed verdict with
  // the event's original-trace coordinates. The write_order field stays
  // empty — the serialization is the stream itself, not a supplied log.
  const vmc::OnlineViolation& v = *checker.violation();
  CheckResult result;
  switch (v.kind) {
    case vmc::OnlineViolationKind::kUnregisteredProcess:
      result = CheckResult::unknown(certify::UnknownReason::kMalformed, v.reason);
      break;
    case vmc::OnlineViolationKind::kReadNotReachable:
      result = CheckResult::no(certify::order_read_window(addr, event.ref, {}));
      break;
    case vmc::OnlineViolationKind::kRmwMismatch:
      result = CheckResult::no(certify::order_rmw_mismatch(addr, event.ref, {}));
      break;
    case vmc::OnlineViolationKind::kFinalMismatch:
      // finish()-only kind; observe() cannot produce it.
      result = CheckResult::unknown(certify::UnknownReason::kMalformed, v.reason);
      break;
  }
  online_done.emplace(addr, std::move(result));
}

std::vector<Addr> StreamVerifier::Shard::sorted_addresses() const {
  std::vector<Addr> addrs;
  if (ordered) {
    addrs.reserve(checkers.size());
    for (const auto& [addr, checker] : checkers) addrs.push_back(addr);
  } else {
    addrs.reserve(accum.size());
    for (const auto& [addr, events] : accum) addrs.push_back(addr);
  }
  std::sort(addrs.begin(), addrs.end());
  return addrs;
}

void StreamVerifier::Shard::finish_ordered() {
  for (const Addr addr : sorted_addresses()) {
    vmc::OnlineCoherenceChecker& checker = *checkers.find(addr)->second;
    window_peak += checker.stats().max_retained_entries;
    if (interrupted(*exact)) {
      saw_interrupt = true;
      reports.push_back({addr, skipped_result()});
      continue;
    }
    const auto done = online_done.find(addr);
    if (done != online_done.end()) {
      reports.push_back({addr, std::move(done->second)});
      continue;
    }
    // End-of-stream final check, restricted to this address: the batch
    // path ignores recorded finals on addresses no operation touches,
    // so the streamed path must too.
    std::unordered_map<Addr, Value> fin;
    const auto rec = finals->find(addr);
    if (rec != finals->end()) fin.emplace(addr, rec->second);
    if (checker.finish(fin)) {
      reports.push_back({addr, CheckResult::yes({})});
    } else {
      const vmc::OnlineViolation& v = *checker.violation();
      reports.push_back(
          {addr, CheckResult::no(certify::order_final_mismatch(
                     addr, v.last_value, rec->second, {}))});
    }
  }
}

void StreamVerifier::Shard::finish_complete() {
  for (const Addr addr : sorted_addresses()) {
    if (interrupted(*exact)) {
      saw_interrupt = true;
      reports.push_back({addr, skipped_result()});
      continue;
    }
    check_one_complete(addr, accum.find(addr)->second);
  }
}

void StreamVerifier::Shard::check_one_complete(Addr addr,
                                               ArenaVec<OpRecord>& run) {
  // A view wants its run sorted by ref: grouped by process, program order
  // within each group, as AddressIndex lays it out. The canonical encoding
  // already delivers events in that order; an ordered interleaving does
  // not, hence the sort (refs are unique, so the order is total).
  std::sort(run.data(), run.data() + run.size(),
            [](const OpRecord& a, const OpRecord& b) { return a.ref < b.ref; });
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
  for (const Addr addr : sorted_addresses()) {
    if (ordered) {
      vmc::OnlineCoherenceChecker& checker = *checkers.find(addr)->second;
      window_peak += checker.stats().max_retained_entries;
      const auto done = online_done.find(addr);
      if (done != online_done.end()) {
        reports.push_back({addr, std::move(done->second)});
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
  static const obs::Counter shed_total =
      obs::counter("vermem_stream_shed_events_total");
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
  const bool ordered = options_.mode == IngestMode::kOrdered ||
                       (options_.mode == IngestMode::kAuto && reader.ordered());
  if (ordered && !reader.ordered()) {
    out.error =
        "ordered ingest requires a trace encoded with the ordered "
        "stream flag (encode_binary_ordered)";
    out.report.verdict = Verdict::kUnknown;
    return out;
  }
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
  std::unordered_set<Addr> shed_addrs;
  OpRecord event;
  bool decode_error = false;
  bool cancelled = false;

  for (;;) {
    if ((out.events & 1023u) == 0 && interrupted(options_.exact)) {
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
        if (options_.backpressure == BackpressurePolicy::kShed) {
          ++out.shed_events;
          if (shed_addrs.insert(event.op.addr).second) {
            // First shed for this address: one flight breadcrumb + a
            // rate-limited warning (a shed storm degrades to a trickle
            // plus a suppression count, never a log flood).
            obs::flight_event(obs::FlightEventKind::kShed, "queue full",
                              static_cast<std::uint64_t>(event.op.addr),
                              static_cast<std::uint64_t>(s));
            static const obs::LogSite shed_site =
                obs::log_site("stream.backpressure", 8.0, 16.0);
            if (shed_site.should(obs::LogLevel::kWarn))
              obs::LogLine(shed_site, obs::LogLevel::kWarn,
                           "shedding events for address (shard queue full)")
                  .field("addr", static_cast<std::uint64_t>(event.op.addr))
                  .field("shard", static_cast<std::uint64_t>(s));
          }
          continue;
        }
        // kBlock: bounded memory means the reader waits for the slowest
        // shard. No deadlock — the shard only stops draining after the
        // last block, which has not been sent yet.
        do {
          if (interrupted(options_.exact)) {
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
  if (out.shed_events != 0) {
    shed_total.add(out.shed_events);
    out.degraded = true;
  }

  if (decode_error) {
    out.error = reader.error();
    out.error_byte = reader.byte_offset();
    out.report.verdict = Verdict::kUnknown;
    if (span.active()) span.attr("error", "decode");
    return out;
  }

  // Shed addresses can never keep a definite verdict: the shard saw an
  // incomplete event set for them.
  if (!shed_addrs.empty()) {
    std::unordered_set<Addr> still_missing = shed_addrs;
    for (vmc::AddressReport& report : merged) {
      if (shed_addrs.contains(report.addr)) {
        report.result = CheckResult::unknown(
            certify::UnknownReason::kBudget,
            "events shed under backpressure (queue full)");
        still_missing.erase(report.addr);
      }
    }
    for (const Addr addr : still_missing)
      merged.push_back(
          {addr, CheckResult::unknown(
                     certify::UnknownReason::kBudget,
                     "events shed under backpressure (queue full)")});
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
