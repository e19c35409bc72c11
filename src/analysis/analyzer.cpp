#include "analysis/analyzer.hpp"

namespace vermem::analysis {

AnalysisReport analyze(const AddressIndex& index,
                       const vmc::WriteOrderMap* write_orders,
                       std::span<std::optional<RouteFacts>> routed) {
  AnalysisReport out;
  out.addresses.reserve(index.num_addresses());
  for (std::size_t i = 0; i < index.num_addresses(); ++i) {
    const ProjectedView view = index.view_at(i);
    const std::vector<OpRef>* order = nullptr;
    if (write_orders) {
      const auto it = write_orders->find(view.addr());
      if (it != write_orders->end()) order = &it->second;
    }
    std::optional<RouteFacts>* facts =
        i < routed.size() && routed[i] ? &routed[i] : nullptr;
    AddressAnalysis address;
    address.profile =
        facts ? (*facts)->profile : classify(view, order != nullptr);
    // Saturation feeds W005 (contention hotspots on exact-bound
    // fragments) and W006 (log entries the trace itself contradicts);
    // it is skipped wherever neither rule can fire. Routing ran the same
    // log-free pass on the non-inert exact-bound addresses.
    if (address.profile.num_writes >= 2 &&
        (order != nullptr ||
         address.profile.fragment == Fragment::kBoundedProcesses ||
         address.profile.fragment == Fragment::kGeneral)) {
      if (facts && (*facts)->saturation)
        address.saturation = std::move((*facts)->saturation);
      else
        address.saturation = saturate::saturate(view);
    }
    lint_view(view, address.profile, order,
              address.saturation ? &*address.saturation : nullptr,
              address.diagnostics);
    ++out.fragment_counts[static_cast<std::size_t>(address.profile.fragment)];
    for (const Diagnostic& diagnostic : address.diagnostics) {
      if (diagnostic.severity == Severity::kWarning)
        ++out.warning_count;
      else
        ++out.info_count;
    }
    out.addresses.push_back(std::move(address));
  }
  return out;
}

AnalysisReport analyze(const Execution& exec,
                       const vmc::WriteOrderMap* write_orders) {
  return analyze(AddressIndex(exec), write_orders);
}

}  // namespace vermem::analysis
