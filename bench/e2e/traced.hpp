#pragma once
// The traced pass: per-layer attribution for one workload.
//
// Phase A replays the first spec.traced_requests schedule positions one
// at a time (or as many as fit in half the run), calling each module's
// public functions in the service's order and timing every call from
// the bench, so the spans sit around the calls into each layer and none
// inside the program:
//   text:  trace parse -> fingerprint -> AddressIndex -> per address
//          analysis::classify + analysis::check_routed (kVscc:
//          vsc::check_vscc on a bench-held warm sweep) -> certify::check
//          -> verdict line
//   VMTB:  decode_binary -> stream::StreamVerifier::run -> certify::check
//          -> verdict line
// Phase B sends the same positions through a fresh service as the
// untraced closed loop does, for the queue/run split and batch sizes.
//
// Spans are kept in memory and written as Chrome trace-event JSON.

#include <cstdint>
#include <string>

#include "corpus.hpp"
#include "serve.hpp"

namespace vermem::bench_e2e {

/// Below this share of traced request time covered by layer spans the
/// attribution is incomplete and the run is invalid.
inline constexpr double kMinTraceCoverage = 0.9;

[[nodiscard]] RunResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                                   double seconds, const std::string& trace_path);

}  // namespace vermem::bench_e2e
