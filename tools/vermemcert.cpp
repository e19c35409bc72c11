// vermemcert: the independent certificate checker. Reads vermemd
// --certify JSON verdict lines on stdin, re-validates every embedded
// certificate against the raw traces with certify::check(), and prints
// one line per certificate. It shares no decision state with the
// producer: verdicts are confirmed from the trace text and the
// certificate alone, so a bug in the service or the deciders cannot
// vouch for itself.
//
// Usage:
//   vermemd --certify TRACE... | vermemcert [--max-states=N] TRACE...
//
// Each TRACE is a trace file in the text_io format; it must be the same
// file (same path) that was handed to vermemd, because stdin lines are
// matched to traces by their "trace" tag. Lines without a "certs" field
// (e.g. consistency-mode verdicts) are ignored.
//
// Order-kind evidence (order-*) proves "incoherent under the embedded
// write order" only. It binds to the trace here: such a certificate FAILs
// unless the trace's "wo" lines log that address and the log equals the
// embedded order entry for entry.
//
// Exit codes:
//   0  at least one certificate was seen and every one checked
//   1  at least one certificate failed to check
//   2  usage error, unreadable/unparsable trace, malformed stdin, or no
//      certificates found (an empty check proves nothing)

#include <cstdio>
#include <iostream>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "certify/check.hpp"
#include "certify/text.hpp"
#include "support/json.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"

namespace {

using namespace vermem;

struct Trace {
  Execution execution;
  WriteOrderLog orders;
};

/// Why an order-kind certificate does not bind to the trace's logged
/// write order; empty when it binds or carries no order-kind evidence.
std::string unbound_order(const certify::Certificate& cert,
                          const WriteOrderLog& orders) {
  const auto* e = std::get_if<certify::Incoherence>(&cert.evidence);
  if (cert.verdict != vmc::Verdict::kIncoherent || e == nullptr ||
      !certify::is_order_kind(e->kind))
    return {};
  const auto it = orders.find(e->addr);
  if (it == orders.end())
    return std::string(certify::to_string(e->kind)) +
           " evidence, but the trace logs no write order for address " +
           std::to_string(e->addr);
  if (it->second != e->write_order)
    return std::string(certify::to_string(e->kind)) +
           " evidence embeds a write order that differs from the trace's "
           "log for address " +
           std::to_string(e->addr);
  return {};
}

int usage() {
  std::fprintf(stderr,
               "usage: vermemcert [--max-states=N] TRACE [TRACE...]\n"
               "reads vermemd --certify JSON lines on stdin; TRACE files\n"
               "must match the ones vermemd verified\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  certify::CheckOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-states=", 0) == 0) {
      std::size_t states = 0;
      if (!tools::parse_size_arg(arg, 13, states)) return usage();
      options.max_states = states;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  std::vector<tools::TraceSource> sources;
  if (!tools::load_trace_sources(paths, sources)) return 2;
  std::unordered_map<std::string, Trace> traces;
  for (const tools::TraceSource& source : sources) {
    ParseResult parsed = parse_execution(source.execution_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: parse error at line %zu: %s\n",
                   source.tag.c_str(), parsed.line, parsed.error.c_str());
      return 2;
    }
    WriteOrderParseResult orders = parse_write_orders(source.write_order_text);
    if (!orders.ok()) {
      std::fprintf(stderr, "%s: write-order parse error at line %zu: %s\n",
                   source.tag.c_str(), orders.line, orders.error.c_str());
      return 2;
    }
    traces.emplace(source.tag, Trace{std::move(parsed.execution),
                                     std::move(orders.orders)});
  }

  std::size_t checked = 0;
  std::size_t failed = 0;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto certs = json_string_array_field(line, "certs");
    if (!certs) continue;  // a verdict line without certificates
    const auto tag = json_string_field(line, "trace");
    if (!tag) {
      std::fprintf(stderr, "stdin:%zu: no \"trace\" tag\n", line_number);
      return 2;
    }
    const auto trace = traces.find(*tag);
    if (trace == traces.end()) {
      std::fprintf(stderr, "stdin:%zu: trace \"%s\" was not given on the "
                   "command line\n", line_number, tag->c_str());
      return 2;
    }
    for (std::size_t i = 0; i < certs->size(); ++i) {
      const certify::ParseResult parsed = certify::parse_certificates((*certs)[i]);
      if (!parsed.ok || parsed.certs.size() != 1) {
        std::fprintf(stderr, "stdin:%zu: cert %zu does not parse: %s\n",
                     line_number, i,
                     parsed.ok ? "expected exactly one certificate"
                               : parsed.error.c_str());
        return 2;
      }
      const certify::Certificate& cert = parsed.certs[0];
      const std::string unbound = unbound_order(cert, trace->second.orders);
      const certify::CheckOutcome outcome =
          unbound.empty()
              ? certify::check(trace->second.execution, cert, options)
              : certify::CheckOutcome::fail(unbound);
      ++checked;
      if (outcome.ok) {
        std::printf("%s cert %zu (%s a%u %s): OK\n", tag->c_str(), i,
                    to_string(cert.scope), cert.addr,
                    vmc::to_string(cert.verdict));
      } else {
        ++failed;
        std::printf("%s cert %zu (%s a%u %s): FAIL: %s\n", tag->c_str(), i,
                    to_string(cert.scope), cert.addr,
                    vmc::to_string(cert.verdict), outcome.violation.c_str());
      }
    }
  }

  if (checked == 0) {
    std::fprintf(stderr, "no certificates found on stdin\n");
    return 2;
  }
  std::printf("%zu certificate%s checked, %zu failed\n", checked,
              checked == 1 ? "" : "s", failed);
  return failed == 0 ? 0 : 1;
}
