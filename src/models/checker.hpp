#pragma once
// Operational consistency-model checkers.
//
// check_model(exec, m) decides whether a machine implementing model m
// could have produced the observed execution, by exhaustive (memoized)
// search over the model's operational semantics — each model one policy
// of search/engine.hpp:
//
//   SC   delegates to the exact VSC search.
//   TSO  one FIFO store buffer per processor, with store->load
//        forwarding; a buffered store drains to global memory at any
//        point, in FIFO order. RMWs and sync operations require an empty
//        buffer (they are fences, matching SPARC/x86 atomics).
//   PSO  like TSO, but a store may drain as soon as it is the oldest
//        buffered store *to its own address* (stores to different
//        addresses reorder).
//   CoherenceOnly   per-address coherence and nothing more, decided by
//        the coherence router (analysis::verify_coherence_routed); the
//        result carries the router's effort and, when undecided, the
//        first undecided address's reason.
//
// The witness of a TSO/PSO kCoherent result is the *issue order* of the
// program operations (drain events interleave with it internally); it is
// not an SC schedule and is returned for diagnostics only.

#include "models/model.hpp"
#include "search/limits.hpp"
#include "trace/execution.hpp"
#include "vmc/result.hpp"

namespace vermem::models {

/// Decides whether `exec` is admissible under model `m`; every model
/// runs under `limits`.
[[nodiscard]] vmc::CheckResult check_model(const Execution& exec, Model m,
                                           const search::Limits& limits = {});

}  // namespace vermem::models
