#pragma once
// Plain-text serialization of executions, so traces can be saved from the
// simulator, shipped to the checkers, and embedded in tests/docs.
//
// Format (one directive per line, '#' starts a comment):
//   init <addr> <value>        initial value of a location
//   final <addr> <value>       final-value constraint for a location
//   P: <op> <op> ...           next process history, program order
// with operations spelled as in the paper: R(a,d)  W(a,d)  RW(a,dr,dw)
// Acq(a)  Rel(a). Each parser is one forward scan over the text; the
// whitespace set, comment, error and line-number rules are in
// docs/TRACE_FORMAT.md ("Parsing rules").

#include <string>
#include <string_view>

#include "trace/execution.hpp"

namespace vermem {

/// Outcome of parsing; on failure `error` is non-empty and `line` is the
/// 1-based offending line.
struct ParseResult {
  Execution execution;
  std::string error;
  std::size_t line = 0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Parses the textual trace format described above.
[[nodiscard]] ParseResult parse_execution(std::string_view text);

/// Serializes an execution to the same format (round-trips with
/// parse_execution).
[[nodiscard]] std::string serialize_execution(const Execution& exec);

/// Parses a single operation token such as "RW(3,1,2)"; returns nullopt on
/// malformed input.
[[nodiscard]] std::optional<Operation> parse_operation(std::string_view token);

/// Per-address write serialization orders, as recorded by a memory
/// system (OpRefs into the accompanying execution).
using WriteOrderLog = std::unordered_map<Addr, std::vector<OpRef>>;

/// Serializes write orders as "wo <addr> <proc>:<index> ..." lines
/// (round-trips with parse_write_orders).
[[nodiscard]] std::string serialize_write_orders(const WriteOrderLog& orders);

/// Parses the write-order format. On failure `error` is non-empty.
struct WriteOrderParseResult {
  WriteOrderLog orders;
  std::string error;
  std::size_t line = 0;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};
[[nodiscard]] WriteOrderParseResult parse_write_orders(std::string_view text);

}  // namespace vermem
