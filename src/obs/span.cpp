#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace vermem::obs {

std::int64_t trace_now_ns() noexcept {
  using SteadyClock = std::chrono::steady_clock;
  // All obs timestamps share one epoch so they are comparable.
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - epoch)
      .count();
}

namespace {

/// Finished spans of one thread. Appends lock the buffer's own mutex —
/// uncontended in steady state (the exporter is the only other reader).
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct TraceLog {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
  std::uint64_t next_span_id = 0;  // ids handed out in blocks per thread
};

TraceLog& trace_log() {
  static TraceLog* log = new TraceLog;  // leaked: spans may finish late
  return *log;
}

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  Span* open = nullptr;        ///< innermost live span on this thread
  std::uint64_t next_id = 0;   ///< next span id in this thread's block
  std::uint64_t block_end = 0;
};

thread_local ThreadState t_state;

constexpr std::uint64_t kIdBlock = 1 << 16;

ThreadState& local_state() {
  ThreadState& state = t_state;
  if (state.buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    TraceLog& log = trace_log();
    std::lock_guard<std::mutex> lock(log.mutex);
    buffer->tid = log.next_tid++;
    log.buffers.push_back(buffer);
    state.buffer = buffer.get();
  }
  return state;
}

[[nodiscard]] std::uint64_t next_span_id(ThreadState& state) {
  if (state.next_id == state.block_end) {
    TraceLog& log = trace_log();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.next_span_id += kIdBlock;
    state.next_id = log.next_span_id - kIdBlock;
    state.block_end = log.next_span_id;
  }
  return ++state.next_id;  // pre-increment keeps 0 = "no parent"
}

}  // namespace

namespace {

/// Reports one span lost to the per-thread cap (or to an allocation
/// failure) via the registry, so truncation is never silent. Registered
/// eagerly: a zero-drop process must still export the family as an
/// explicit 0 (absence would be indistinguishable from "not tracked").
const Counter kDroppedSpans =
    counter("vermem_obs_dropped_total{kind=\"span\"}");

void count_dropped_span() {
  if (!enabled()) return;
  kDroppedSpans.add();
}

}  // namespace

Span::Span(const char* name) {
  // Active when the global tracer collects OR the calling thread is
  // inside a flight-recorder capture window (span trees for retained
  // slow/wrong requests work with tracing off).
  if (!tracing_enabled() && !detail::flight_spans_wanted()) return;
  ThreadState& state = local_state();
  active_ = true;
  event_.name = name;
  event_.tid = state.buffer->tid;
  event_.id = next_span_id(state);
  event_.parent_id = state.open != nullptr ? state.open->event_.id : 0;
  prev_open_ = state.open;
  state.open = this;
  event_.start_ns = trace_now_ns();  // last: exclude setup from the span
}

Span::~Span() {
  if (!active_) return;
  event_.dur_ns = trace_now_ns() - event_.start_ns;
  ThreadState& state = t_state;
  state.open = prev_open_;
  if (detail::flight_spans_wanted())
    detail::flight_capture_span(event_.name, event_.start_ns, event_.dur_ns,
                                event_.id, event_.parent_id);
  if (!tracing_enabled()) return;  // flight-only span: not retained here
  ThreadBuffer& buffer = *state.buffer;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    count_dropped_span();
    return;
  }
  try {
    buffer.events.push_back(event_);
  } catch (...) {
    ++buffer.dropped;  // allocation failure must not escape a destructor
    count_dropped_span();
  }
}

void write_chrome_trace(std::ostream& out) {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceLog& log = trace_log();
    std::lock_guard<std::mutex> lock(log.mutex);
    buffers = log.buffers;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    // Spans are appended at *end* time; Chrome/Perfetto and our validity
    // checker want start-ordered events per thread.
    std::vector<SpanEvent> events = buffer->events;
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.start_ns < b.start_ns;
                     });
    for (const SpanEvent& event : events) {
      if (!first) out << ',';
      first = false;
      out << "\n{\"name\":\"" << json_escape(event.name) << '"';
      std::snprintf(buf, sizeof buf,
                    ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(event.start_ns) / 1e3,
                    static_cast<double>(event.dur_ns) / 1e3);
      out << buf << ",\"pid\":1,\"tid\":" << event.tid
          << ",\"args\":{\"id\":" << event.id
          << ",\"parent\":" << event.parent_id;
      for (std::uint8_t i = 0; i < event.num_numeric; ++i) {
        out << ",\"" << json_escape(event.numeric_keys[i])
            << "\":" << event.numeric_values[i];
      }
      for (std::uint8_t i = 0; i < event.num_strings; ++i) {
        out << ",\"" << json_escape(event.string_keys[i]) << "\":\""
            << json_escape(event.string_values[i]) << '"';
      }
      out << "}}";
    }
  }
  out << "\n]}\n";
}

std::size_t trace_event_count() {
  TraceLog& log = trace_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  std::size_t total = 0;
  for (const auto& buffer : log.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

std::uint64_t trace_dropped_count() {
  TraceLog& log = trace_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : log.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void reset_trace() {
  TraceLog& log = trace_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  for (const auto& buffer : log.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

}  // namespace vermem::obs
