// Quickstart: verify memory coherence of a recorded execution.
//
// This walks the core workflow in ~60 lines:
//   1. describe an execution (or parse one from the textual trace format),
//   2. run the coherence verifier,
//   3. inspect the witness schedule or the violation report.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "analysis/router.hpp"
#include "trace/address_index.hpp"
#include "trace/schedule.hpp"
#include "trace/text_io.hpp"

int main() {
  using namespace vermem;

  // An execution is a set of per-process histories with observed values.
  // This one is fine: both readers saw the two writes in the same order.
  const char* good_trace =
      "# two writers, two readers, one location\n"
      "P: W(0,1)\n"
      "P: W(0,2)\n"
      "P: R(0,1) R(0,2)\n"
      "P: R(0,1) R(0,2)\n";

  // This one is the classic coherence violation: the readers disagree on
  // the order of the writes.
  const char* bad_trace =
      "P: W(0,1)\n"
      "P: W(0,2)\n"
      "P: R(0,1) R(0,2)\n"
      "P: R(0,2) R(0,1)\n";

  for (const char* text : {good_trace, bad_trace}) {
    const ParseResult parsed = parse_execution(text);
    if (!parsed.ok()) {
      std::printf("trace parse error at line %zu: %s\n", parsed.line,
                  parsed.error.c_str());
      return 1;
    }

    // The index projects each address in one pass; the router classifies
    // each projection and picks the cheapest applicable decision
    // procedure (Figure 5.3 cascade), falling back to the exact
    // exponential search only when it must.
    const AddressIndex index(parsed.execution);
    const vmc::CoherenceReport report =
        analysis::verify_coherence_routed(index).report;

    if (report.coherent()) {
      std::printf("coherent.\n");
      for (const auto& [addr, result] : report.addresses) {
        std::printf("  address %u witness: %s\n", addr,
                    to_string(parsed.execution, result.witness).c_str());
      }
    } else {
      const auto* violation = report.first_violation();
      std::printf("INCOHERENT at address %u: %s\n", violation->addr,
                  violation->result.reason().c_str());
    }
  }
  return 0;
}
