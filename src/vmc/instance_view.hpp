#pragma once
// The adapter behind the VmcInstance overloads of the view-based
// deciders (check_exact, check_read_map): it lays an instance out as a
// one-address view, runs the decider there, and maps the answer back.

#include <utility>
#include <vector>

#include "trace/address_index.hpp"
#include "vmc/instance.hpp"
#include "vmc/result.hpp"

namespace vermem::vmc {

/// Calls `decide(view, values)` on a view of the well-formed `instance`
/// whose record refs are instance coordinates (the view drops the
/// instance's empty histories, so its coordinates may differ), then maps
/// the result's witness and evidence back to instance coordinates.
template <typename Decide>
CheckResult decide_on_view(const VmcInstance& instance, Decide&& decide) {
  std::vector<OpRecord> run;
  run.reserve(instance.num_operations());
  for (std::uint32_t p = 0; p < instance.num_histories(); ++p) {
    const auto& history = instance.execution.history(p);
    for (std::uint32_t i = 0; i < history.size(); ++i)
      run.push_back({OpRef{p, i}, history[i]});
  }
  const ProjectedView view(AddressEntry::of(instance.addr, run), run,
                           instance.initial_value(), instance.final_value());
  CheckResult result = std::forward<Decide>(decide)(view, ValueTable(view));
  const auto to_instance = [&](OpRef& ref) { ref = view.original_of(ref); };
  for (OpRef& ref : result.witness) to_instance(ref);
  certify::for_each_ref(result.evidence, to_instance);
  return result;
}

}  // namespace vermem::vmc
