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
// naturally incremental. The trace picks the mode: its VMTB header's
// ordered flag selects ordered mode, every other trace runs complete.
//
//  - complete mode (any trace): shards accumulate each address's run of
//    OpRecords in arena-backed storage, one run per address slot, and,
//    at end-of-stream, sort the run by ref (unless it already is, as a
//    canonical encoding delivers it) and build a ProjectedView directly
//    over it — the same view type AddressIndex hands the batch path,
//    with no rebuilt Execution or coordinate translation — then route
//    it through analysis::check_routed with the write-order log in
//    original coordinates. Verdicts, evidence, witnesses, and effort stats are
//    identical to verify_coherence_routed by construction — the
//    differential suite in tests/stream_test.cpp pins this. Memory is
//    O(ops), but streamed into per-shard arenas that are recycled
//    across runs.
//
//  - ordered mode (traces whose encoder declared an ordered event stream,
//    e.g. recorded from a bus/directory commit order): each shard keeps
//    one slot per address it has seen, found by one open-addressing
//    probe per event, and feeds each event to the online checker's
//    per-address state (vmc::OnlineAddress) held in that slot. Verdicts are
//    emitted at the first offending event, with typed certify::Evidence,
//    and resident memory is bounded by the queue capacity plus the GC'd
//    write windows — independent of trace length for workloads where
//    every process keeps touching the address (the window GC needs every
//    process's anchor to advance).
//
// Backpressure: when a shard's ring is full the reader blocks, so
// memory stays bounded and ingest runs at the slowest shard's speed; no
// event is ever dropped. Cancellation/deadline (search::Limits) is
// checked by the reader and by every shard; a run interrupted mid-ingest
// reports its addresses as skipped, identical to the batch path's
// convention.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/router.hpp"
#include "search/limits.hpp"
#include "trace/binary_io.hpp"

namespace vermem::stream {

struct StreamOptions {
  /// Checker shards (and threads). 0 = min(hardware_concurrency / 2, 8),
  /// at least 1.
  std::size_t shards = 0;
  /// Per-shard ring capacity in event blocks (rounded up to a power of
  /// two). Together with the block size this bounds queued bytes.
  std::size_t queue_blocks = 64;
  /// Budget / deadline / cancellation for the per-address checks; the
  /// deadline and cancel token also govern the ingest loop itself.
  search::Limits exact;
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
  /// Aggregated per-address verdicts, same shape (and, in complete
  /// mode, same content) as the batch path's CoherenceReport.
  vmc::CoherenceReport report;

  /// Routing provenance (complete mode; empty in ordered mode, where
  /// every address is decided by the online checker).
  analysis::RouteTally routing;

  // Pipeline accounting.
  std::uint64_t events = 0;            ///< operations ingested (incl. sync)
  std::uint64_t blocks = 0;            ///< queue blocks published
  /// Always 0: the reader never drops events. Kept only for callers
  /// that still report it.
  std::uint64_t shed_events = 0;
  std::uint64_t queue_peak_blocks = 0; ///< max observed ring occupancy
  /// Peak bytes of pipeline-owned state: ring storage plus, per mode,
  /// arena high water (complete) or the online checkers' retained write
  /// windows (ordered). Excludes the decoder's fixed 64 KiB buffer.
  std::uint64_t resident_peak_bytes = 0;
  /// Sum of per-address retained-window peaks (ordered mode).
  std::uint64_t online_window_peak = 0;

  bool ordered = false;     ///< the header's ordered flag: which mode ran
  bool cancelled = false;   ///< deadline/cancel interrupted the run
  std::size_t shards_used = 0;

  /// Non-empty on a malformed stream (typed decoder error); the report
  /// then covers nothing and its verdict is kUnknown.
  std::string error;
  std::uint64_t error_byte = 0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Reusable pipeline: shard queues, arenas and per-address slots persist
/// across run() calls (reset, not reallocated), so once a daemon has seen
/// its largest trace, ingest allocates nothing per event or per address.
/// Each run() still starts and joins one thread per shard. Not
/// thread-safe; one StreamVerifier serves one trace at a time.
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

  /// Updates the per-run policy (exact options, decode limits) for
  /// subsequent run() calls. The structural fields — shard count and
  /// queue capacity — are fixed at construction and
  /// keep their constructed values; a pooling caller (the verification
  /// service) rebuilds the verifier when those change.
  void set_options(const StreamOptions& options) {
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
