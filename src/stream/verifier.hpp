#pragma once
// Sharded streaming ingestion: the layer between trace I/O and the
// checkers that never materializes a whole Execution.
//
// Topology: one reader thread decodes a binary trace incrementally
// (BinaryTraceReader) and routes each operation by address through a
// bounded SPSC ring (one per shard, blocks of events to amortize the
// atomics) into N checker shards. An address always maps to the same
// shard, so each shard sees every operation on its addresses in stream
// order — exactly the per-address decomposition (paper Section 4) that
// makes sharding sound.
//
// Two ingest modes, because exact VMC needs the whole per-address
// subtrace (it is NP-complete — no online algorithm can decide it in
// bounded memory), while the Section 5.2 write-order algorithm is
// naturally incremental:
//
//  - kComplete (any trace): shards accumulate each address's run of
//    OpRecords in arena-backed storage and, at end-of-stream, sort the
//    run by ref and build a ProjectedView directly over it — the same
//    view type AddressIndex hands the batch path, with no rebuilt
//    Execution or coordinate translation — then route it through
//    analysis::check_routed with the write-order log in original
//    coordinates. Verdicts, evidence, witnesses, and effort stats are
//    identical to verify_coherence_routed by construction — the
//    differential suite in tests/stream_test.cpp pins this. Memory is
//    O(ops), but streamed into per-shard arenas that are recycled
//    across runs.
//
//  - kOrdered (traces whose encoder declared an ordered event stream,
//    e.g. recorded from a bus/directory commit order): each shard feeds
//    a pooled per-address OnlineCoherenceChecker as events arrive.
//    Verdicts are emitted at the first offending event, with typed
//    certify::Evidence, and resident memory is bounded by the queue
//    capacity plus the checkers' GC'd write windows — independent of
//    trace length for workloads where every process keeps touching the
//    address (the window GC needs every process's anchor to advance).
//
// Backpressure is explicit: when a shard's ring is full the reader
// either blocks (kBlock, the default — bounded memory, wire-speed
// throttled by the slowest shard) or sheds the event (kShed — the
// affected addresses degrade to kUnknown, never to a wrong verdict).
// Cancellation/deadline (vmc::ExactOptions) is checked by the reader
// and by every shard; a run interrupted mid-ingest reports its
// addresses as skipped, identical to the batch path's convention.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/router.hpp"
#include "trace/binary_io.hpp"
#include "vmc/exact.hpp"

namespace vermem::stream {

enum class IngestMode : std::uint8_t {
  kAuto,      ///< kOrdered when the trace declares it, else kComplete
  kComplete,  ///< accumulate per-address, decide at end-of-stream (exact)
  kOrdered,   ///< online per-address checking; requires the ordered flag
};

enum class BackpressurePolicy : std::uint8_t {
  kBlock,  ///< reader spins when a shard ring is full (bounded memory)
  kShed,   ///< reader drops events; affected addresses become kUnknown
};

struct StreamOptions {
  /// Checker shards (and threads). 0 = min(hardware_concurrency / 2, 8),
  /// at least 1.
  std::size_t shards = 0;
  /// Per-shard ring capacity in event blocks (rounded up to a power of
  /// two). Together with the block size this bounds queued bytes.
  std::size_t queue_blocks = 64;
  IngestMode mode = IngestMode::kAuto;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Budget / deadline / cancellation for the per-address checks; the
  /// deadline and cancel token also govern the ingest loop itself.
  vmc::ExactOptions exact;
  /// Decoder hardening limits (run(std::istream&) only).
  DecodeLimits limits;
};

/// Events per queue block. One block is the granule of queue traffic:
/// the reader packs decoded events into a block in-place and publishes
/// it whole, so the SPSC atomics are paid once per ~256 events.
inline constexpr std::size_t kBlockEvents = 256;

struct EventBlock {
  std::uint32_t count = 0;
  bool last = false;  ///< end-of-stream marker (count may be 0)
  std::array<OpRecord, kBlockEvents> events;
};

struct StreamResult {
  /// Aggregated per-address verdicts, same shape (and, in kComplete
  /// mode, same content) as the batch path's CoherenceReport.
  vmc::CoherenceReport report;

  /// Routing provenance (kComplete mode; empty in kOrdered mode, where
  /// every address is decided by the online checker).
  analysis::RouteTally routing;

  // Pipeline accounting.
  std::uint64_t events = 0;            ///< operations ingested (incl. sync)
  std::uint64_t blocks = 0;            ///< queue blocks published
  std::uint64_t shed_events = 0;       ///< dropped under kShed backpressure
  std::uint64_t queue_peak_blocks = 0; ///< max observed ring occupancy
  /// Peak bytes of pipeline-owned state: ring storage plus, per mode,
  /// arena high water (kComplete) or the online checkers' retained write
  /// windows (kOrdered). Excludes the decoder's fixed 64 KiB buffer.
  std::uint64_t resident_peak_bytes = 0;
  /// Sum of per-address retained-window peaks (kOrdered mode).
  std::uint64_t online_window_peak = 0;

  bool ordered = false;     ///< which mode actually ran
  bool cancelled = false;   ///< deadline/cancel interrupted the run
  bool degraded = false;    ///< kShed dropped events somewhere
  std::size_t shards_used = 0;

  /// Non-empty on a malformed stream (typed decoder error); the report
  /// then covers nothing and its verdict is kUnknown.
  std::string error;
  std::uint64_t error_byte = 0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Reusable pipeline: shard arenas and online-checker instances persist
/// across run() calls (reset, not reallocated), so a long-lived daemon
/// reaches steady state with no per-trace system allocations in the
/// ingest path. Not thread-safe; one StreamVerifier serves one trace at
/// a time.
class StreamVerifier {
 public:
  explicit StreamVerifier(StreamOptions options = {});
  ~StreamVerifier();

  StreamVerifier(const StreamVerifier&) = delete;
  StreamVerifier& operator=(const StreamVerifier&) = delete;

  /// Runs one trace through the pipeline. The reader may be fresh or
  /// already have had read_header() called (it is idempotent).
  [[nodiscard]] StreamResult run(BinaryTraceReader& reader);
  /// Convenience: wraps `in` in a BinaryTraceReader with options.limits.
  [[nodiscard]] StreamResult run(std::istream& in);

  /// Updates the per-run policy (mode, backpressure, exact options,
  /// decode limits) for subsequent run() calls. The structural fields —
  /// shard count and queue capacity — are fixed at construction and
  /// keep their constructed values; a pooling caller (the verification
  /// service) rebuilds the verifier when those change.
  void set_options(const StreamOptions& options) {
    options_.mode = options.mode;
    options_.backpressure = options.backpressure;
    options_.exact = options.exact;
    options_.limits = options.limits;
  }

 private:
  struct Shard;

  StreamOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One-shot convenience wrapper.
[[nodiscard]] StreamResult verify_stream(std::istream& in,
                                         const StreamOptions& options = {});

}  // namespace vermem::stream
