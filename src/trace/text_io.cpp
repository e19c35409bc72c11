#include "trace/text_io.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/format.hpp"

namespace vermem {

namespace {

enum class TokenParse : std::uint8_t { kOk, kMalformed, kOverflow };

/// Operation tokens carry at most three numbers (RW(addr, read, write)).
constexpr std::size_t kMaxOperands = 3;

constexpr long long kMaxAddr = static_cast<long long>(~Addr{0});

/// The C locale's isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr std::string_view trim_space(std::string_view text) noexcept {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

/// Cuts the next whitespace-delimited field off the front of `rest`;
/// returns an empty view when only whitespace is left.
constexpr std::string_view next_field(std::string_view& rest) noexcept {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view field = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return field;
}

/// Forward walk over the '\n'-separated lines of a text (find() is a
/// memchr). Each line comes back with its '#' comment cut off and
/// surrounding whitespace trimmed; line() is the 1-based number of the
/// line last returned. A text of k newlines has k + 1 lines, the last
/// possibly empty.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) noexcept : rest_(text) {}

  bool next(std::string_view& line) noexcept {
    if (done_) return false;
    ++line_no_;
    const std::size_t newline = rest_.find('\n');
    line = rest_.substr(0, newline);
    if (newline == std::string_view::npos)
      done_ = true;
    else
      rest_.remove_prefix(newline + 1);
    line = trim_space(line.substr(0, line.find('#')));
    return true;
  }

  [[nodiscard]] std::size_t line() const noexcept { return line_no_; }

 private:
  std::string_view rest_;
  std::size_t line_no_ = 0;
  bool done_ = false;
};

/// Reads one comma-separated operand of an operation token, starting at
/// `i` and stopping at the next ',' or at `end`, with the same result as
/// parse_i64_checked on the trimmed field: an optional '-', one or more
/// digits and nothing else is kOk, or kOverflow when it does not fit a
/// long long; anything else is kMalformed. On return `i` is at the ','
/// or at `end`.
TokenParse parse_operand(std::string_view token, std::size_t& i,
                         std::size_t end, long long& out) noexcept {
  while (i < end && is_space(token[i])) ++i;
  const bool negative = i < end && token[i] == '-';
  if (negative) ++i;
  // Magnitude bound: 2^63 for a negative value, 2^63 - 1 otherwise.
  const unsigned long long limit =
      (~0ULL >> 1) + (negative ? 1ULL : 0ULL);
  unsigned long long magnitude = 0;
  bool overflow = false;
  const std::size_t digits_begin = i;
  for (; i < end; ++i) {
    const auto digit = static_cast<unsigned>(token[i] - '0');
    if (digit > 9) break;
    if (magnitude > (limit - digit) / 10)
      overflow = true;
    else
      magnitude = magnitude * 10 + digit;
  }
  const bool any_digits = i != digits_begin;
  while (i < end && is_space(token[i])) ++i;
  if (!any_digits || (i < end && token[i] != ',')) return TokenParse::kMalformed;
  if (overflow) return TokenParse::kOverflow;
  out = negative ? static_cast<long long>(0ULL - magnitude)
                 : static_cast<long long>(magnitude);
  return TokenParse::kOk;
}

/// The one operation-token parser (parse_execution and parse_operation
/// both use it), a single scan of the token. Distinguishes syntactic
/// garbage from numerically valid tokens whose address/value overflows
/// its type, so trace ingestion can report overflow explicitly instead of
/// a generic "malformed" (or, worse, silently wrapping). Every operand is
/// checked before the name and arity, so an overflow anywhere still
/// reports as overflow. A valid token holds exactly one ')', its last
/// byte.
TokenParse parse_token(std::string_view token, Operation& out) noexcept {
  std::size_t open = 0;
  while (open < token.size() && token[open] != '(') ++open;
  if (open == token.size() || token.back() != ')') return TokenParse::kMalformed;
  const std::size_t end = token.size() - 1;  // the closing ')'
  long long nums[kMaxOperands] = {};
  std::size_t count = 0;
  for (std::size_t i = open + 1;; ++i) {  // i steps over each ','
    long long value = 0;
    if (const TokenParse status = parse_operand(token, i, end, value);
        status != TokenParse::kOk)
      return status;
    if (count < kMaxOperands) nums[count] = value;
    ++count;
    if (i == end) break;
  }

  const std::string_view name = token.substr(0, open);
  const auto addr = static_cast<Addr>(nums[0]);
  if (name == "R" && count == 2) {
    out = R(addr, nums[1]);
  } else if (name == "W" && count == 2) {
    out = W(addr, nums[1]);
  } else if (name == "RW" && count == 3) {
    out = RW(addr, nums[1], nums[2]);
  } else if (name == "Acq" && count == 1) {
    out = Acq(addr);
  } else if (name == "Rel" && count == 1) {
    out = Rel(addr);
  } else {
    return TokenParse::kMalformed;
  }
  return nums[0] < 0 || nums[0] > kMaxAddr ? TokenParse::kOverflow
                                           : TokenParse::kOk;
}

/// Parses the operation tokens of one "P:" line (`tokens` is the line
/// after "P:") into a new history of `exec`. The vector is sized once:
/// each valid token holds one ')'. Returns the error, empty on success.
std::string parse_history(std::string_view tokens, Execution& exec) {
  std::vector<Operation> ops;
  ops.reserve(static_cast<std::size_t>(
      std::count(tokens.begin(), tokens.end(), ')')));
  for (std::string_view token = next_field(tokens); !token.empty();
       token = next_field(tokens)) {
    Operation op;
    switch (parse_token(token, op)) {
      case TokenParse::kOk: break;
      case TokenParse::kOverflow:
        return "integer overflow in operation: " + std::string(token);
      case TokenParse::kMalformed:
        return "malformed operation: " + std::string(token);
    }
    ops.push_back(op);
  }
  exec.add_history(ProcessHistory{std::move(ops)});
  return {};
}

/// Parses an "init <addr> <value>" / "final <addr> <value>" line into
/// `exec`. Returns the error, empty on success.
std::string parse_location_directive(std::string_view line, bool is_init,
                                     Execution& exec) {
  std::string_view rest = line.substr(is_init ? 5 : 6);
  const std::string_view addr_field = next_field(rest);
  const std::string_view value_field = next_field(rest);
  if (value_field.empty() || !next_field(rest).empty())
    return "malformed init/final directive";
  long long addr = 0, value = 0;
  const auto addr_status = parse_i64_checked(addr_field, addr);
  const auto value_status = parse_i64_checked(value_field, value);
  if (addr_status == ParseIntStatus::kOutOfRange ||
      value_status == ParseIntStatus::kOutOfRange ||
      (addr_status == ParseIntStatus::kOk && (addr < 0 || addr > kMaxAddr)))
    return "integer overflow in init/final directive: " + std::string(line);
  if (addr_status != ParseIntStatus::kOk || value_status != ParseIntStatus::kOk)
    return "malformed init/final directive";
  const auto& seen = is_init ? exec.initial_values() : exec.final_values();
  if (seen.contains(static_cast<Addr>(addr)))
    return (is_init ? "duplicate init directive for address "
                    : "duplicate final directive for address ") +
           std::string(addr_field);
  if (is_init)
    exec.set_initial_value(static_cast<Addr>(addr), value);
  else
    exec.set_final_value(static_cast<Addr>(addr), value);
  return {};
}

}  // namespace

std::optional<Operation> parse_operation(std::string_view token) {
  Operation op;
  if (parse_token(token, op) != TokenParse::kOk) return std::nullopt;
  return op;
}

namespace {

ParseResult parse_execution_impl(std::string_view text) {
  ParseResult result;
  LineCursor lines(text);
  std::string_view line;
  while (lines.next(line)) {
    if (line.empty()) continue;
    std::string error;
    if (line.size() >= 2 && line[0] == 'P' && (line[1] == ':' || line[1] == ' '))
      error = parse_history(line.substr(2), result.execution);
    else if (starts_with(line, "init ") || starts_with(line, "final "))
      error = parse_location_directive(line, line[0] == 'i', result.execution);
    else
      error = "unrecognized directive: " + std::string(line);
    if (!error.empty()) {
      result.error = std::move(error);
      result.line = lines.line();
      return result;
    }
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
  LineCursor lines(text);
  std::string_view line;
  const auto fail = [&](std::string why) {
    result.error = std::move(why);
    result.line = lines.line();
    return result;
  };
  while (lines.next(line)) {
    if (line.empty()) continue;
    std::string_view rest = line;
    const std::string_view keyword = next_field(rest);
    const std::string_view addr_field = next_field(rest);
    if (keyword != "wo" || addr_field.empty())
      return fail("expected: wo <addr> <proc>:<index> ...");
    long long addr = 0;
    if (!parse_i64(addr_field, addr) || addr < 0 || addr > kMaxAddr)
      return fail("bad address: " + std::string(addr_field));
    auto& order = result.orders[static_cast<Addr>(addr)];
    // Each valid reference holds one ':'.
    if (order.empty())
      order.reserve(static_cast<std::size_t>(
          std::count(rest.begin(), rest.end(), ':')));
    for (std::string_view field = next_field(rest); !field.empty();
         field = next_field(rest)) {
      const std::size_t colon = field.find(':');
      long long proc = 0, index = 0;
      if (colon == std::string_view::npos ||
          !parse_i64(field.substr(0, colon), proc) ||
          !parse_i64(field.substr(colon + 1), index) || proc < 0 ||
          index < 0 || proc > 0xffffffffLL || index > 0xffffffffLL)
        return fail("bad op reference: " + std::string(field));
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
