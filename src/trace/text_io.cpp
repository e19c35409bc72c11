#include "trace/text_io.hpp"

#include <algorithm>
#include <charconv>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/format.hpp"

namespace vermem {

namespace {

enum class TokenParse : std::uint8_t { kOk, kMalformed, kOverflow };

/// Operation tokens carry at most three numbers (RW(addr, read, write)).
constexpr std::size_t kMaxOperands = 3;

/// Parses the comma-separated fields of `inner` into `out`, keeping the
/// first kMaxOperands and checking every field, so an overflow anywhere
/// still reports as overflow. Returns the field count in `count`; a count
/// above kMaxOperands fails the caller's arity check.
TokenParse parse_numbers(std::string_view inner,
                         long long (&out)[kMaxOperands], std::size_t& count) {
  count = 0;
  while (true) {
    const std::size_t comma = inner.find(',');
    long long v = 0;
    switch (parse_i64_checked(trim(inner.substr(0, comma)), v)) {
      case ParseIntStatus::kOk: break;
      case ParseIntStatus::kOutOfRange: return TokenParse::kOverflow;
      case ParseIntStatus::kMalformed: return TokenParse::kMalformed;
    }
    if (count < kMaxOperands) out[count] = v;
    ++count;
    if (comma == std::string_view::npos) return TokenParse::kOk;
    inner.remove_prefix(comma + 1);
  }
}

/// Full-detail operation parse: distinguishes syntactic garbage from
/// numerically valid tokens whose address/value overflows its type, so
/// trace ingestion can report overflow explicitly instead of a generic
/// "malformed" (or, worse, silently wrapping).
TokenParse parse_operation_checked(std::string_view token, Operation& out) {
  const std::size_t open = token.find('(');
  if (open == std::string_view::npos || token.back() != ')')
    return TokenParse::kMalformed;
  const std::string_view name = token.substr(0, open);
  const std::string_view inner = token.substr(open + 1, token.size() - open - 2);
  long long nums[kMaxOperands] = {};
  std::size_t count = 0;
  if (const TokenParse status = parse_numbers(inner, nums, count);
      status != TokenParse::kOk)
    return status;

  auto arity_ok = [&](std::size_t want) { return count == want; };
  auto addr_overflow = [&] {
    return nums[0] < 0 || nums[0] > static_cast<long long>(~Addr{0});
  };
  TokenParse status = TokenParse::kMalformed;
  if (name == "R" && arity_ok(2)) {
    out = R(static_cast<Addr>(nums[0]), nums[1]);
    status = TokenParse::kOk;
  } else if (name == "W" && arity_ok(2)) {
    out = W(static_cast<Addr>(nums[0]), nums[1]);
    status = TokenParse::kOk;
  } else if (name == "RW" && arity_ok(3)) {
    out = RW(static_cast<Addr>(nums[0]), nums[1], nums[2]);
    status = TokenParse::kOk;
  } else if (name == "Acq" && arity_ok(1)) {
    out = Acq(static_cast<Addr>(nums[0]));
    status = TokenParse::kOk;
  } else if (name == "Rel" && arity_ok(1)) {
    out = Rel(static_cast<Addr>(nums[0]));
    status = TokenParse::kOk;
  }
  if (status == TokenParse::kOk && addr_overflow()) return TokenParse::kOverflow;
  return status;
}

}  // namespace

std::optional<Operation> parse_operation(std::string_view token) {
  Operation op;
  if (parse_operation_checked(token, op) != TokenParse::kOk) return std::nullopt;
  return op;
}

namespace {

ParseResult parse_execution_impl(std::string_view text) {
  ParseResult result;
  std::size_t line_no = 0;
  for (std::string_view raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    auto fail = [&](std::string why) {
      result.error = std::move(why);
      result.line = line_no;
      return result;
    };

    if (starts_with(line, "init ") || starts_with(line, "final ")) {
      const auto fields = split_ws(line);
      long long addr = 0, value = 0;
      if (fields.size() != 3)
        return fail("malformed init/final directive");
      const auto addr_status = parse_i64_checked(fields[1], addr);
      const auto value_status = parse_i64_checked(fields[2], value);
      if (addr_status == ParseIntStatus::kOutOfRange ||
          value_status == ParseIntStatus::kOutOfRange ||
          (addr_status == ParseIntStatus::kOk &&
           (addr < 0 || addr > static_cast<long long>(~Addr{0}))))
        return fail("integer overflow in init/final directive: " +
                    std::string(line));
      if (addr_status != ParseIntStatus::kOk ||
          value_status != ParseIntStatus::kOk)
        return fail("malformed init/final directive");
      if (fields[0] == "init") {
        if (result.execution.initial_values().contains(static_cast<Addr>(addr)))
          return fail("duplicate init directive for address " +
                      std::string(fields[1]));
        result.execution.set_initial_value(static_cast<Addr>(addr), value);
      } else {
        if (result.execution.final_values().contains(static_cast<Addr>(addr)))
          return fail("duplicate final directive for address " +
                      std::string(fields[1]));
        result.execution.set_final_value(static_cast<Addr>(addr), value);
      }
      continue;
    }

    if (starts_with(line, "P:") || starts_with(line, "P ")) {
      const auto tokens = split_ws(line.substr(2));
      std::vector<Operation> ops;
      ops.reserve(tokens.size());
      for (std::string_view token : tokens) {
        Operation op;
        switch (parse_operation_checked(token, op)) {
          case TokenParse::kOk: break;
          case TokenParse::kOverflow:
            return fail("integer overflow in operation: " + std::string(token));
          case TokenParse::kMalformed:
            return fail("malformed operation: " + std::string(token));
        }
        ops.push_back(op);
      }
      result.execution.add_history(ProcessHistory{std::move(ops)});
      continue;
    }

    return fail("unrecognized directive: " + std::string(line));
  }
  return result;
}

}  // namespace

ParseResult parse_execution(std::string_view text) {
  obs::Span span("trace.parse");
  ParseResult result = parse_execution_impl(text);
  if (span.active()) {
    span.attr("bytes", text.size());
    span.attr("ops", result.execution.num_operations());
    span.attr("ok", result.ok() ? std::uint64_t{1} : std::uint64_t{0});
  }
  if (obs::enabled()) {
    static const obs::Counter parsed = obs::counter("vermem_traces_parsed_total");
    static const obs::Counter errors = obs::counter("vermem_parse_errors_total");
    static const obs::Histogram trace_ops = obs::histogram("vermem_trace_ops");
    if (result.ok()) {
      parsed.add();
      trace_ops.observe(result.execution.num_operations());
    } else {
      errors.add();
    }
  }
  return result;
}

std::string serialize_write_orders(const WriteOrderLog& orders) {
  // Deterministic output: addresses ascending.
  std::vector<Addr> addresses;
  addresses.reserve(orders.size());
  for (const auto& [addr, order] : orders) addresses.push_back(addr);
  std::sort(addresses.begin(), addresses.end());
  std::string out;
  for (const Addr addr : addresses) {
    out += "wo " + std::to_string(addr);
    for (const OpRef ref : orders.at(addr))
      out += ' ' + std::to_string(ref.process) + ':' + std::to_string(ref.index);
    out += '\n';
  }
  return out;
}

WriteOrderParseResult parse_write_orders(std::string_view text) {
  WriteOrderParseResult result;
  std::size_t line_no = 0;
  for (std::string_view raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    auto fail = [&](std::string why) {
      result.error = std::move(why);
      result.line = line_no;
      return result;
    };
    const auto fields = split_ws(line);
    if (fields.size() < 2 || fields[0] != "wo")
      return fail("expected: wo <addr> <proc>:<index> ...");
    long long addr = 0;
    if (!parse_i64(fields[1], addr) || addr < 0 ||
        addr > static_cast<long long>(~Addr{0}))
      return fail("bad address: " + std::string(fields[1]));
    auto& order = result.orders[static_cast<Addr>(addr)];
    for (std::size_t f = 2; f < fields.size(); ++f) {
      const auto parts = split(fields[f], ':');
      long long proc = 0, index = 0;
      if (parts.size() != 2 || !parse_i64(parts[0], proc) ||
          !parse_i64(parts[1], index) || proc < 0 || index < 0 ||
          proc > 0xffffffffLL || index > 0xffffffffLL)
        return fail("bad op reference: " + std::string(fields[f]));
      order.push_back(OpRef{static_cast<std::uint32_t>(proc),
                            static_cast<std::uint32_t>(index)});
    }
  }
  return result;
}

std::string serialize_execution(const Execution& exec) {
  // Deterministic output (addresses ascending), so serialization is
  // canonical: the same execution always yields the same bytes, and the
  // text and binary formats round-trip byte-identically through each
  // other (the CI conversion smoke step relies on this).
  const auto sorted_addresses = [](const std::unordered_map<Addr, Value>& m) {
    std::vector<Addr> addresses;
    addresses.reserve(m.size());
    for (const auto& [addr, value] : m) addresses.push_back(addr);
    std::sort(addresses.begin(), addresses.end());
    return addresses;
  };
  std::string out;
  for (const Addr addr : sorted_addresses(exec.initial_values())) {
    out += "init " + std::to_string(addr) + ' ' +
           std::to_string(exec.initial_value(addr)) + '\n';
  }
  for (const Addr addr : sorted_addresses(exec.final_values())) {
    out += "final " + std::to_string(addr) + ' ' +
           std::to_string(*exec.final_value(addr)) + '\n';
  }
  for (const auto& history : exec.histories()) {
    out += "P:";
    for (const auto& op : history) {
      out += ' ';
      out += to_string(op);
    }
    out += '\n';
  }
  return out;
}

}  // namespace vermem
