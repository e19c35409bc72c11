#pragma once
// Long-lived verification service: the paper's dynamic-verification
// checker packaged the way a real memory-system pipeline would run it
// (continuously, against a stream of recorded traces), rather than as a
// one-shot library call.
//
// Architecture: submit() fingerprints the trace and consults an LRU
// result cache; a miss posts the request straight to a persistent
// ThreadPool, which runs requests FIFO on whichever worker frees up
// first. The worker builds the request's single-pass AddressIndex (the
// same pass the checkers and the analyzer reuse) and runs it.
// Per-request deadlines and cooperative cancellation are plumbed into
// every decision procedure (exact VMC/SC search, SAT, model search); a
// request that cannot finish resolves to kUnknown with a structured
// reason, it never hangs and never stalls other requests. Definite
// verdicts are cached by trace fingerprint + mode.
//
// Thread-safety: submit(), cancel via Ticket, stats(), and shutdown()
// may be called concurrently from any thread. Every submitted request's
// future is eventually resolved, including across shutdown (queued and
// in-flight requests resolve as cancelled).

#include <array>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "analysis/router.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"
#include "stream/verifier.hpp"
#include "support/cancellation.hpp"
#include "support/thread_pool.hpp"

namespace vermem::service {

struct ServiceOptions {
  std::size_t workers = 0;        ///< pool size; 0 = hardware concurrency
  /// Ignored: requests go straight to the pool. Kept only so existing
  /// callers that still set it compile.
  std::size_t max_batch = 16;
  std::size_t cache_capacity = 1024;  ///< result-cache entries; 0 disables
  /// Rolling-window SLO accounting (per-kind error budgets and latency
  /// objectives; see obs/slo.hpp). Always on — recording is one short
  /// mutex-guarded update per response.
  obs::SloOptions slo = {};
};

/// Monotonic counters plus a point-in-time snapshot of queue state and
/// recent-latency percentiles.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< responses resolved, cache hits included
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t coherent = 0;    ///< responses with verdict kCoherent
  std::uint64_t incoherent = 0;
  std::uint64_t unknown = 0;
  std::size_t queue_depth = 0;   ///< queued in the pool, not yet picked up
  std::size_t in_flight = 0;     ///< picked up by a worker, not yet resolved
  std::size_t cache_entries = 0;
  /// End-to-end latency estimates from the log-bucketed histogram
  /// (exact to within a factor of 2 per bucket; see obs/metrics.hpp).
  double p50_micros = 0;
  double p99_micros = 0;
  /// Raw latency distribution (nanoseconds) behind the percentiles.
  obs::HistogramData latency_nanos;
  /// Aggregate solver effort over every resolved request: exact-search
  /// states/transitions/prunes summed, peak frontier maxed.
  vmc::SearchStats effort;
  /// Routing provenance, summed over every address of every
  /// coherence, vscc and streamed request: fragment and decider counts,
  /// poly vs exact routing, saturation-tier outcomes, and portfolio
  /// races. `effort` above attributes each verdict to its winning engine
  /// only; the losers' effort lands in routing.wasted_effort instead of
  /// inflating the latency-explaining tallies.
  analysis::RouteTally routing;
  /// Warning-severity lint diagnostics emitted by analyze requests.
  std::uint64_t lint_warnings = 0;
  /// Streaming ingestion (verify_stream): runs served and operations
  /// ingested. Streamed runs stay out of submitted/completed/timed_out/cancelled (they never pass
  /// through the queue) but their verdicts and routing provenance fold
  /// into the shared counters above.
  std::uint64_t streamed = 0;
  std::uint64_t stream_events = 0;
  /// Per-request-kind latency breakdown (coherence / vscc / consistency
  /// / stream), recorded once per response. stats() derives completed,
  /// latency_nanos and p50/p99_micros from the queued kinds, streamed
  /// from kStream.
  struct KindStats {
    std::uint64_t total = 0;
    double p50_micros = 0;
    double p99_micros = 0;
    obs::HistogramData latency_nanos;
  };
  std::array<KindStats, obs::kNumRequestKinds> kinds{};
  /// Rolling-window SLO state (per-kind error budget, breaches, and
  /// exemplar-decorated latency; see obs/slo.hpp).
  obs::SloSnapshot slo;
  /// Flight-recorder records currently resident / retained ever.
  std::uint64_t flight_retained = 0;
  std::uint64_t flight_retained_total = 0;

  [[nodiscard]] double cache_hit_rate() const noexcept {
    const double total =
        static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

  /// Prometheus text exposition of every field but `routing`, which the
  /// metrics registry exports once (RouteTally::publish; absent under
  /// VERMEM_OBS=off). Its vermem_service_* names do not collide with
  /// obs::MetricsSnapshot::to_prometheus()'s, so the two concatenate.
  [[nodiscard]] std::string to_prometheus() const;
};

/// Policy for one streamed verification (verify_stream).
struct StreamRequest {
  stream::StreamOptions options;
  /// Wall-clock budget from the start of ingestion; plumbed into the
  /// reader loop and every shard's check phase. nullopt = unbounded.
  std::optional<std::chrono::milliseconds> deadline;
  bool drop_witnesses = true;
  std::string tag;
};

class VerificationService {
 public:
  explicit VerificationService(ServiceOptions options = {});
  ~VerificationService();

  VerificationService(const VerificationService&) = delete;
  VerificationService& operator=(const VerificationService&) = delete;

  /// Handle to one submitted request: the response future plus a
  /// cooperative cancel. Cancelling never drops the future — the request
  /// still resolves, marked cancelled (or with its real verdict if one
  /// was reached first).
  class Ticket {
   public:
    Ticket() = default;
    std::future<VerificationResponse> response;
    /// Requests cooperative cancellation; no-op for already-resolved
    /// (e.g. cache-hit) responses.
    void cancel() noexcept {
      if (token_) token_->cancel();
    }

   private:
    friend class VerificationService;
    std::shared_ptr<CancellationToken> token_;
  };

  /// Submits one request. Cache hits resolve the returned future
  /// immediately; after shutdown() the future resolves as cancelled.
  [[nodiscard]] Ticket submit(VerificationRequest request);

  /// Verifies one binary trace by streaming it through the sharded
  /// ingest pipeline (src/stream/) without ever materializing an
  /// Execution. Synchronous — the caller's thread acts as the pipeline's
  /// reader, and each call starts and joins its own shard threads; the
  /// shards' queues, arenas and per-address slots are pooled across
  /// calls. Serialized internally: concurrent callers take turns on the
  /// pooled pipeline. Results are never cached (there is no materialized
  /// trace to fingerprint).
  [[nodiscard]] VerificationResponse verify_stream(std::istream& in,
                                                   StreamRequest request = {});

  [[nodiscard]] VerificationResponse verify_stream(BinaryTraceReader& reader,
                                                   StreamRequest request = {});

  [[nodiscard]] ServiceStats stats() const;

  /// Stops intake, cancels in-flight requests cooperatively, resolves
  /// requests still queued in the pool as cancelled, and joins the
  /// workers. Idempotent; also run by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return pool_.num_workers();
  }

 private:
  struct Slot;
  struct Accounting;

  void run_request(const std::shared_ptr<Slot>& slot);
  VerificationResponse execute(Slot& slot);
  void respond(Slot& slot, VerificationResponse&& response);
  /// The one accounting step of every response, queued or streamed:
  /// folds it into counters_ under one lock, then records the SLO.
  void account(const VerificationResponse& response,
               const Accounting& accounting);

  ServiceOptions options_;

  mutable std::mutex mutex_;
  std::unordered_set<Slot*> active_;  // picked up, unresolved; guarded by mutex_
  ResultCache cache_;                 // guarded by mutex_
  bool shutting_down_ = false;        // guarded by mutex_; no post after it

  // Monotonic counters (including the per-kind latency histograms and
  // effort aggregate embedded in ServiceStats), guarded by mutex_ and
  // written only by account().
  ServiceStats counters_;

  // Rolling-window SLO accounting; internally synchronized.
  obs::SloTracker slo_;

  ThreadPool pool_;

  // Pooled streaming pipeline: shard queues, arenas, and per-address
  // slots persist across verify_stream calls (the shard threads are
  // started per call). Rebuilt only when a request changes the
  // structural options (shard count / queue size).
  std::mutex stream_mutex_;
  std::unique_ptr<stream::StreamVerifier> stream_verifier_;
  std::size_t stream_shards_ = 0;
  std::size_t stream_queue_blocks_ = 0;
};

}  // namespace vermem::service
