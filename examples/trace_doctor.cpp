// trace_doctor: command-line verifier for recorded memory traces.
//
// Reads a trace in the vermem text format (see trace/text_io.hpp) and
// checks it against a consistency requirement. This is the tool a
// hardware or simulator team would actually point at their logs.
//
// Usage:
//   trace_doctor [--model=coherence|sc|tso|pso] [--sat]
//                [--write-order=WOFILE] [FILE]
//
// With no FILE, reads stdin. --sat routes single-address coherence
// through the CNF encoder + CDCL solver instead of the native cascade;
// --write-order supplies the memory system's recorded per-address write
// serialization (format: "wo <addr> <proc>:<index> ..."), switching
// coherence checking to the polynomial Section 5.2 path.
// Exit code: 0 verified, 1 violation found, 2 undecided/usage error.
//
// Try:  ./build/examples/trace_doctor --model=sc <<'EOF'
//       P: W(0,1) W(1,1)
//       P: R(1,1) R(0,0)
//       EOF

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/router.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "models/checker.hpp"
#include "trace/address_index.hpp"
#include "trace/stats.hpp"
#include "trace/text_io.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_doctor [--model=coherence|sc|tso|pso] [--sat] "
               "[--write-order=WOFILE] [FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vermem;

  std::string model = "coherence";
  bool use_sat = false;
  std::string path;
  std::string write_order_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--model=", 0) == 0)
      model = arg.substr(8);
    else if (arg == "--sat")
      use_sat = true;
    else if (arg.rfind("--write-order=", 0) == 0)
      write_order_path = arg.substr(14);
    else if (arg.rfind("--", 0) == 0)
      return usage();
    else
      path = arg;
  }

  std::string text;
  if (path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  const ParseResult parsed = parse_execution(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error at line %zu: %s\n", parsed.line,
                 parsed.error.c_str());
    return 2;
  }
  const Execution& exec = parsed.execution;
  std::printf("%s\n", summarize(compute_stats(exec)).c_str());

  vmc::Verdict verdict;
  std::string detail;
  if (!write_order_path.empty() && model == "coherence") {
    std::ifstream wofile(write_order_path);
    if (!wofile) {
      std::fprintf(stderr, "cannot open %s\n", write_order_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << wofile.rdbuf();
    const auto orders = parse_write_orders(buffer.str());
    if (!orders.ok()) {
      std::fprintf(stderr, "write-order parse error at line %zu: %s\n",
                   orders.line, orders.error.c_str());
      return 2;
    }
    const vmc::WriteOrderMap write_orders(orders.orders.begin(),
                                          orders.orders.end());
    const AddressIndex index(exec);
    const auto report =
        analysis::verify_coherence_routed(index, &write_orders).report;
    verdict = report.verdict;
    if (const auto* violation = report.first_violation())
      detail = "address " + std::to_string(violation->addr) + ": " +
               violation->result.reason();
  } else if (model == "coherence" && use_sat) {
    verdict = vmc::Verdict::kCoherent;
    for (const Addr addr : exec.addresses()) {
      const auto result = encode::check_via_sat(
          vmc::VmcInstance::from_execution(exec, addr));
      if (result.verdict != vmc::Verdict::kCoherent) {
        verdict = result.verdict;
        detail = "address " + std::to_string(addr) + ": " + result.reason();
        break;
      }
    }
  } else if (model == "coherence") {
    const AddressIndex index(exec);
    const auto report = analysis::verify_coherence_routed(index).report;
    verdict = report.verdict;
    if (const auto* violation = report.first_violation())
      detail = "address " + std::to_string(violation->addr) + ": " +
               violation->result.reason();
  } else {
    models::Model m;
    if (model == "sc")
      m = models::Model::kSc;
    else if (model == "tso")
      m = models::Model::kTso;
    else if (model == "pso")
      m = models::Model::kPso;
    else
      return usage();
    const auto result = models::check_model(exec, m);
    verdict = result.verdict;
    detail = result.reason();
  }

  switch (verdict) {
    case vmc::Verdict::kCoherent:
      std::printf("VERIFIED under %s%s\n", model.c_str(),
                  use_sat ? " (via SAT)" : "");
      return 0;
    case vmc::Verdict::kIncoherent:
      std::printf("VIOLATION under %s: %s\n", model.c_str(), detail.c_str());
      return 1;
    case vmc::Verdict::kUnknown:
      std::printf("UNDECIDED: %s\n", detail.c_str());
      return 2;
  }
  return 2;
}
