#include "vmc/checker.hpp"

namespace vermem::vmc {

CoherenceReport aggregate_reports(std::vector<AddressReport> reports) {
  CoherenceReport out;
  out.addresses = std::move(reports);
  for (std::size_t i = 0; i < out.addresses.size(); ++i) {
    const auto& report = out.addresses[i];
    if (report.result.verdict == Verdict::kIncoherent &&
        out.first_violation_index == CoherenceReport::kNoViolation) {
      out.verdict = Verdict::kIncoherent;
      out.first_violation_index = i;
    } else if (report.result.verdict == Verdict::kUnknown &&
               out.verdict != Verdict::kIncoherent) {
      out.verdict = Verdict::kUnknown;
    }

    // Effort aggregation with peak provenance: merge sums the counters
    // and maxes the peaks; remember which address owned each new peak so
    // per-shard provenance survives a parallel sweep.
    const SearchStats& stats = report.result.stats;
    if (stats.max_frontier > out.effort.max_frontier)
      out.peak_frontier_index = i;
    if (stats.states_visited > 0 &&
        (out.peak_visited_index == CoherenceReport::kNoViolation ||
         stats.states_visited >
             out.addresses[out.peak_visited_index].result.stats.states_visited))
      out.peak_visited_index = i;
    if (stats.arena_high_water > out.effort.arena_high_water)
      out.peak_arena_index = i;
    out.effort.merge(stats);
  }
  return out;
}

}  // namespace vermem::vmc
