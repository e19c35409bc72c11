#include "verdict_line.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "support/json.hpp"

namespace vermem::bench_e2e {

namespace {

[[gnu::format(printf, 2, 3)]] void append(std::string& out, const char* format,
                                          ...) {
  char buffer[512];
  std::va_list args;
  va_start(args, format);
  const int length = std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  if (length > 0)
    out.append(buffer, std::min(static_cast<std::size_t>(length),
                                sizeof buffer - 1));
}

using ull = unsigned long long;

}  // namespace

std::string verdict_line(const std::string& tag,
                         const service::VerificationResponse& response) {
  std::string out = "{\"trace\":\"";
  out += json_escape(tag);
  out += "\",\"verdict\":\"";
  out += to_string(response.verdict);
  out += "\",\"reason\":\"";
  out += json_escape(response.reason);
  append(out,
         "\",\"timed_out\":%s,\"cancelled\":%s,\"cache_hit\":%s,"
         "\"fingerprint\":\"%016llx\",\"ops\":%zu,\"addresses\":%zu,"
         "\"queue_us\":%.1f,\"run_us\":%.1f,\"flight_id\":%llu",
         response.timed_out ? "true" : "false",
         response.cancelled ? "true" : "false",
         response.cache_hit ? "true" : "false",
         static_cast<ull>(response.fingerprint), response.num_operations,
         response.num_addresses, response.queue_micros, response.run_micros,
         static_cast<ull>(response.flight_id));
  append(out,
         ",\"effort\":{\"states\":%llu,\"transitions\":%llu,\"prunes\":%llu,"
         "\"max_frontier\":%llu,\"arena_reserved\":%llu,"
         "\"arena_high_water\":%llu,\"arena_allocs\":%llu}",
         static_cast<ull>(response.effort.states_visited),
         static_cast<ull>(response.effort.transitions),
         static_cast<ull>(response.effort.prunes),
         static_cast<ull>(response.effort.max_frontier),
         static_cast<ull>(response.effort.arena_reserved),
         static_cast<ull>(response.effort.arena_high_water),
         static_cast<ull>(response.effort.arena_allocations));
  if (response.portfolio_races > 0) {
    std::string wins;
    for (std::size_t e = 0; e < analysis::kNumEngines; ++e) {
      if (response.engine_wins[e] == 0) continue;
      if (!wins.empty()) wins += ",";
      wins += "\"";
      wins += to_string(static_cast<analysis::Engine>(e));
      wins += "\":" + std::to_string(response.engine_wins[e]);
    }
    out += ",\"portfolio\":{\"races\":" +
           std::to_string(response.portfolio_races) + ",\"wins\":{" + wins +
           "}";
    append(out, ",\"wasted_states\":%llu,\"wasted_transitions\":%llu}",
           static_cast<ull>(response.wasted_effort.states_visited),
           static_cast<ull>(response.wasted_effort.transitions));
  }
  if (response.warm_sweep)
    append(out, ",\"warm_sweep\":true,\"suffix_extension\":%s",
           response.suffix_extension ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace vermem::bench_e2e
