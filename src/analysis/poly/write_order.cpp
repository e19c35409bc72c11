#include "analysis/poly/write_order.hpp"

#include <vector>

#include "obs/span.hpp"

namespace vermem::analysis::poly {

WriteOrderLogCheck validate_write_order_log(const ProjectedView& view,
                                            std::span<const OpRef> order) {
  if (order.size() != view.stats().write_count) {
    return {false,
            "log lists " + std::to_string(order.size()) + " writes, address " +
                std::to_string(view.addr()) + " has " +
                std::to_string(view.stats().write_count),
            std::nullopt};
  }
  // Distinctness + membership via projected coordinates; program-order
  // monotonicity per history (projected indices are program-ordered).
  std::vector<std::uint32_t> last_index(view.num_histories(), 0);
  std::vector<bool> started(view.num_histories(), false);
  std::vector<std::vector<bool>> seen(view.num_histories());
  for (std::size_t h = 0; h < view.num_histories(); ++h)
    seen[h].assign(view.history(h).size(), false);
  for (const OpRef original : order) {
    const auto projected = view.projected_of(original);
    if (!projected) {
      return {false,
              "log entry P" + std::to_string(original.process) + "#" +
                  std::to_string(original.index) +
                  " is not an operation on address " +
                  std::to_string(view.addr()),
              original};
    }
    if (!view.record(*projected).op.writes_memory()) {
      return {false,
              "log entry P" + std::to_string(original.process) + "#" +
                  std::to_string(original.index) + " does not write",
              original};
    }
    if (seen[projected->process][projected->index]) {
      return {false,
              "log repeats entry P" + std::to_string(original.process) + "#" +
                  std::to_string(original.index),
              original};
    }
    seen[projected->process][projected->index] = true;
    if (started[projected->process] &&
        projected->index <= last_index[projected->process]) {
      return {false,
              "log contradicts program order within P" +
                  std::to_string(view.history_process(projected->process)),
              original};
    }
    started[projected->process] = true;
    last_index[projected->process] = projected->index;
  }
  return {};
}

vmc::CheckResult decide_with_write_order(const vmc::VmcInstance& instance,
                                         const ProjectedView& view,
                                         std::span<const OpRef> order,
                                         bool rmw_only) {
  obs::Span span("poly.write_order");
  vmc::WriteOrder local;
  local.reserve(order.size());
  for (const OpRef original : order) {
    const auto projected = view.projected_of(original);
    if (!projected) {
      return vmc::CheckResult::unknown(
          certify::UnknownReason::kInvalidWriteOrder,
          "write-order references operations outside address " +
              std::to_string(view.addr()));
    }
    local.push_back(*projected);
  }
  return rmw_only ? vmc::check_rmw_with_write_order(instance, local)
                  : vmc::check_with_write_order(instance, local);
}

}  // namespace vermem::analysis::poly
