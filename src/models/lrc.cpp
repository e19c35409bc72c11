#include "models/lrc.hpp"

#include "analysis/router.hpp"
#include "reductions/sync_wrap.hpp"
#include "trace/address_index.hpp"

namespace vermem::models {

bool is_fully_wrapped(const Execution& exec, Addr lock) {
  for (const auto& history : exec.histories()) {
    const auto& ops = history.ops();
    if (ops.size() % 3 != 0) return false;
    for (std::size_t i = 0; i < ops.size(); i += 3) {
      if (!(ops[i] == Acq(lock))) return false;
      if (ops[i + 1].is_sync()) return false;
      if (!(ops[i + 2] == Rel(lock))) return false;
    }
  }
  return true;
}

vmc::CheckResult check_lrc_wrapped(const Execution& exec, Addr lock,
                                   const search::Limits& limits) {
  if (!is_fully_wrapped(exec, lock))
    return vmc::CheckResult::unknown(
        certify::UnknownReason::kNotApplicable,
        "execution is not fully Acq/Rel-wrapped on lock " +
            std::to_string(lock));

  // One data op per critical section + a single lock means the critical
  // sections of each location must serialize coherently; sections of
  // different locations impose no mutual constraints under LRC (its
  // happens-before only transports values through the lock order, which
  // the per-address schedules embody).
  const Execution stripped = reductions::strip_synchronization(exec, lock);
  const AddressIndex index(stripped);
  const auto report =
      analysis::verify_coherence_routed(index, nullptr, limits).report;
  switch (report.verdict) {
    case vmc::Verdict::kCoherent:
      return vmc::CheckResult::yes({});
    case vmc::Verdict::kIncoherent: {
      // The evidence refers to the stripped execution's coordinates; it
      // is informational here (LRC results are model-scoped, never
      // certified against the original trace).
      const auto* violation = report.first_violation();
      certify::Incoherence evidence;
      if (violation) {
        if (const auto* inc = violation->result.incoherence()) evidence = *inc;
        evidence.addr = violation->addr;
      }
      return vmc::CheckResult::no(std::move(evidence));
    }
    case vmc::Verdict::kUnknown:
      return vmc::CheckResult::unknown(certify::UnknownReason::kBudget,
                                       "per-address check exceeded budget");
  }
  return vmc::CheckResult::unknown(certify::UnknownReason::kUnsupported,
                                   "unreachable");
}

}  // namespace vermem::models
