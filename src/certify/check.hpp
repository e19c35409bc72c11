#pragma once
// The independent certificate checker (Section 5.2's "checking is easy"
// half, applied to our own verdicts).
//
// check() re-validates a Certificate against the raw trace without
// trusting the decider that produced it:
//   - kCoherent: the witness schedule is replayed by the linear-time
//     schedule validators.
//   - kIncoherent: the typed evidence is re-checked per kind. Every kind
//     is polynomial (most are linear scans; the write-order kinds re-run
//     the O(n^2) Section 5.2 procedure; RUP refutations replay against a
//     deterministic re-encoding) except kSearchExhaustion, which can only
//     be re-decided — an independent bounded search governed by
//     CheckOptions::max_states.
//   - kUnknown: nothing to certify; passes if the evidence shape matches.
//
// A malformed or mutated certificate (dangling OpRef, wrong value, edited
// proof, truncated write order) is rejected with a description of the
// first violated condition.
//
// The kOrder* kinds prove "incoherent under the embedded write order"
// only: check() replays the order the certificate carries, and an
// Execution records no write-order log to compare it with. A caller that
// holds the trace's log must bind it separately (vermemcert requires the
// embedded order to equal the logged one, entry for entry).

#include <string>

#include "certify/certificate.hpp"

namespace vermem::certify {

struct CheckOutcome {
  bool ok = false;
  std::string violation;  ///< first violated condition when !ok

  [[nodiscard]] explicit operator bool() const noexcept { return ok; }

  static CheckOutcome pass() { return {true, {}}; }
  static CheckOutcome fail(std::string why) { return {false, std::move(why)}; }
};

struct CheckOptions {
  /// State budget for the re-deciding searches behind kSearchExhaustion
  /// certificates (the one non-polynomial kind). Exceeding it fails the
  /// check with a budget message rather than trusting the producer.
  std::uint64_t max_states = 1'000'000;
};

/// Re-validates `cert` against `exec`. Returns pass() iff every claim the
/// certificate makes is confirmed by the trace itself.
[[nodiscard]] CheckOutcome check(const Execution& exec, const Certificate& cert,
                                 const CheckOptions& options = {});

}  // namespace vermem::certify
