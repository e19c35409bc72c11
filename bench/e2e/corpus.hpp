#pragma once
// Workload table, seeded request corpora, and request order for
// vermem_bench.
//
// Every request's expected verdict is fixed here, when the trace is
// built, and never by asking the system under test:
//   - workload::generate_sc traces, and witness prefixes of them, are
//     sequentially consistent by construction, hence coherent at every
//     address;
//   - a read rewritten to a value no write produces (negative values lie
//     outside every generator's range, and initial values are 0) is
//     incoherent at its address, hence the trace is neither coherent nor
//     sequentially consistent.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/request.hpp"
#include "support/rng.hpp"

namespace vermem::bench_e2e {

/// Which generator builds a workload's corpus (portfolio_race reuses
/// contended_exact's, so the two differ only in the solver choice).
enum class CorpusKind : std::uint8_t { kFleet, kContended, kStream, kSessions };

struct WorkloadSpec {
  const char* name = "";
  CorpusKind corpus = CorpusKind::kFleet;
  bool binary = false;  ///< VMTB through verify_stream, else text via submit
  service::CheckMode mode = service::CheckMode::kCoherence;
  service::SolverChoice solver = service::SolverChoice::kAuto;
  std::size_t window = 1;  ///< closed loop: requests outstanding at once
  std::chrono::milliseconds deadline{0};  ///< per request
  std::size_t warmup = 0;  ///< schedule positions served during set-up
  /// Share of requests that re-send a recent request (intended cache hits).
  double duplicate_share = 0;
  /// Schedule positions the traced pass replays at most.
  std::size_t traced_requests = 0;
};

/// The five workloads, in the order vermem_bench runs them.
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct Request {
  std::string bytes;     ///< text trace plus "wo" lines, or a VMTB trace
  bool coherent = true;  ///< expected verdict (sequentially consistent for kVscc)
  std::uint64_t ops = 0;
};

/// Deterministic in (spec.corpus, seed).
[[nodiscard]] std::vector<Request> generate_corpus(const WorkloadSpec& spec,
                                                   std::uint64_t seed);

/// The order requests are sent in: a fixed cycle through the corpus.
/// With a duplicate share, that share of requests instead re-sends one
/// of the previous 64 requests, at least 8 positions back so that it has
/// completed under any window the table uses (the driver collects
/// responses oldest first). Deterministic in (spec, seed).
class RequestSchedule {
 public:
  RequestSchedule(const WorkloadSpec& spec, std::size_t corpus_size,
                  std::uint64_t seed);

  struct Pick {
    std::size_t entry = 0;
    bool duplicate = false;
  };
  [[nodiscard]] Pick next();

 private:
  static constexpr std::size_t kRecent = 64;
  static constexpr std::size_t kMinDistance = 8;

  std::size_t corpus_size_;
  double duplicate_share_;
  Xoshiro256ss rng_;
  std::size_t cursor_ = 0;
  std::uint64_t sent_ = 0;
  std::vector<std::size_t> recent_ = std::vector<std::size_t>(kRecent);
};

}  // namespace vermem::bench_e2e
