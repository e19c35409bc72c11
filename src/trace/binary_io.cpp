#include "trace/binary_io.hpp"

#include <algorithm>
#include <istream>
#include <utility>

#include "obs/metrics.hpp"

namespace vermem {

namespace {

constexpr std::size_t kReadBufferBytes = 64 * 1024;
constexpr std::size_t kMaxVarintBytes = 10;

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

std::uint64_t zigzag(Value v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

Value unzigzag(std::uint64_t u) {
  return static_cast<Value>((u >> 1) ^ (~(u & 1) + 1));
}

void put_zigzag(std::string& out, Value v) { put_varint(out, zigzag(v)); }

void put_value_section(std::string& out,
                       const std::unordered_map<Addr, Value>& values) {
  std::vector<Addr> addresses;
  addresses.reserve(values.size());
  for (const auto& [addr, value] : values) addresses.push_back(addr);
  std::sort(addresses.begin(), addresses.end());
  put_varint(out, addresses.size());
  for (const Addr addr : addresses) {
    put_varint(out, addr);
    put_zigzag(out, values.at(addr));
  }
}

void put_op(std::string& out, const Operation& op) {
  out += static_cast<char>(op.kind);
  put_varint(out, op.addr);
  switch (op.kind) {
    case OpKind::kRead:
      put_zigzag(out, op.value_read);
      break;
    case OpKind::kWrite:
      put_zigzag(out, op.value_written);
      break;
    case OpKind::kRmw:
      put_zigzag(out, op.value_read);
      put_zigzag(out, op.value_written);
      break;
    case OpKind::kAcquire:
    case OpKind::kRelease:
      break;
  }
}

std::string encode_prefix(const Execution& exec, const WriteOrderLog* orders,
                          bool ordered) {
  std::string out;
  out.append(kBinaryTraceMagic.data(), kBinaryTraceMagic.size());
  out += static_cast<char>(kBinaryTraceVersion);
  std::uint8_t flags = 0;
  if (ordered) flags |= kBinaryFlagOrdered;
  const bool has_orders = orders != nullptr && !orders->empty();
  if (has_orders) flags |= kBinaryFlagWriteOrders;
  out += static_cast<char>(flags);
  put_varint(out, exec.num_processes());
  put_varint(out, exec.num_operations());
  put_value_section(out, exec.initial_values());
  put_value_section(out, exec.final_values());
  if (has_orders) {
    std::vector<Addr> addresses;
    addresses.reserve(orders->size());
    for (const auto& [addr, order] : *orders) addresses.push_back(addr);
    std::sort(addresses.begin(), addresses.end());
    put_varint(out, addresses.size());
    for (const Addr addr : addresses) {
      const std::vector<OpRef>& order = orders->at(addr);
      put_varint(out, addr);
      put_varint(out, order.size());
      for (const OpRef ref : order) {
        put_varint(out, ref.process);
        put_varint(out, ref.index);
      }
    }
  }
  return out;
}

}  // namespace

bool looks_like_binary_trace(std::string_view bytes) noexcept {
  return bytes.size() >= kBinaryTraceMagic.size() &&
         std::equal(kBinaryTraceMagic.begin(), kBinaryTraceMagic.end(),
                    bytes.begin());
}

std::string encode_binary(const Execution& exec, const WriteOrderLog* orders) {
  std::string out = encode_prefix(exec, orders, /*ordered=*/false);
  for (std::size_t p = 0; p < exec.num_processes(); ++p) {
    const ProcessHistory& history = exec.history(p);
    if (history.empty()) continue;
    put_varint(out, p + 1);
    put_varint(out, history.size());
    for (const Operation& op : history) put_op(out, op);
  }
  put_varint(out, 0);
  return out;
}

std::string encode_binary_ordered(const Execution& exec,
                                  const std::vector<OpRef>& event_order,
                                  const WriteOrderLog* orders) {
  // The interleaving must cover every operation exactly once, in program
  // order per process — the same invariant the online checker needs.
  if (event_order.size() != exec.num_operations()) return {};
  std::vector<std::uint32_t> seen(exec.num_processes(), 0);
  for (const OpRef ref : event_order) {
    if (ref.process >= exec.num_processes()) return {};
    if (ref.index != seen[ref.process]) return {};
    ++seen[ref.process];
  }
  for (std::size_t p = 0; p < exec.num_processes(); ++p)
    if (seen[p] != exec.history(p).size()) return {};

  std::string out = encode_prefix(exec, orders, /*ordered=*/true);
  std::size_t i = 0;
  while (i < event_order.size()) {
    const std::uint32_t process = event_order[i].process;
    std::size_t run = i;
    while (run < event_order.size() && event_order[run].process == process)
      ++run;
    put_varint(out, static_cast<std::uint64_t>(process) + 1);
    put_varint(out, run - i);
    for (; i < run; ++i) put_op(out, exec.op(event_order[i]));
  }
  put_varint(out, 0);
  return out;
}

BinaryTraceReader::BinaryTraceReader(std::istream& in,
                                     std::string_view prefetched,
                                     DecodeLimits limits)
    : in_(&in), limits_(limits) {
  buf_.assign(prefetched.begin(), prefetched.end());
  data_ = buf_.data();
  len_ = buf_.size();
}

BinaryTraceReader::BinaryTraceReader(std::string_view bytes, DecodeLimits limits)
    : mem_(bytes), data_(bytes.data()), len_(bytes.size()), limits_(limits) {}

bool BinaryTraceReader::fill() {
  if (in_ == nullptr) return false;  // memory mode: no more bytes
  base_offset_ += len_;
  buf_.resize(kReadBufferBytes);
  in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  len_ = static_cast<std::size_t>(in_->gcount());
  pos_ = 0;
  data_ = buf_.data();
  return len_ > 0;
}

bool BinaryTraceReader::get(std::uint8_t& byte) {
  if (pos_ >= len_ && !fill()) return false;
  byte = static_cast<std::uint8_t>(data_[pos_++]);
  return true;
}

bool BinaryTraceReader::fail(std::string reason) {
  if (error_.empty()) error_ = std::move(reason);
  return false;
}

bool BinaryTraceReader::read_varint(std::uint64_t& out, const char* what) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    std::uint8_t byte = 0;
    if (!get(byte))
      return fail(std::string("truncated varint in ") + what);
    if (i + 1 == kMaxVarintBytes && byte > 1)
      return fail(std::string("varint overflows 64 bits in ") + what);
    value |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      // Minimal encodings only: a zero continuation byte means the same
      // number had a shorter spelling, which breaks canonical round-trips
      // and gives attackers needless freedom.
      if (i > 0 && byte == 0)
        return fail(std::string("non-minimal varint in ") + what);
      out = value;
      return true;
    }
  }
  return fail(std::string("varint longer than 10 bytes in ") + what);
}

bool BinaryTraceReader::read_zigzag(Value& out, const char* what) {
  std::uint64_t u = 0;
  if (!read_varint(u, what)) return false;
  out = unzigzag(u);
  return true;
}

bool BinaryTraceReader::read_addr(Addr& out, const char* what) {
  std::uint64_t u = 0;
  if (!read_varint(u, what)) return false;
  if (u > 0xffffffffull)
    return fail(std::string("address overflows 32 bits in ") + what);
  out = static_cast<Addr>(u);
  return true;
}

bool BinaryTraceReader::read_value_section(std::unordered_map<Addr, Value>& out,
                                           const char* what) {
  std::uint64_t count = 0;
  if (!read_varint(count, what)) return false;
  if (count > limits_.max_value_entries)
    return fail(std::string(what) + " entry count " + std::to_string(count) +
                " exceeds limit " + std::to_string(limits_.max_value_entries));
  Addr prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Addr addr = 0;
    Value value = 0;
    if (!read_addr(addr, what) || !read_zigzag(value, what)) return false;
    if (i > 0 && addr <= prev)
      return fail(std::string(what) +
                  " addresses not strictly ascending at address " +
                  std::to_string(addr));
    prev = addr;
    out.emplace(addr, value);
  }
  return true;
}

bool BinaryTraceReader::read_write_order_section() {
  std::uint64_t num_addresses = 0;
  if (!read_varint(num_addresses, "write-order section")) return false;
  if (num_addresses > limits_.max_value_entries)
    return fail("write-order address count " + std::to_string(num_addresses) +
                " exceeds limit " + std::to_string(limits_.max_value_entries));
  std::uint64_t total_refs = 0;
  Addr prev = 0;
  for (std::uint64_t i = 0; i < num_addresses; ++i) {
    Addr addr = 0;
    if (!read_addr(addr, "write-order section")) return false;
    if (i > 0 && addr <= prev)
      return fail("write-order addresses not strictly ascending at address " +
                  std::to_string(addr));
    prev = addr;
    std::uint64_t n = 0;
    if (!read_varint(n, "write-order section")) return false;
    total_refs += n;
    if (total_refs > limits_.max_write_order_refs)
      return fail("write-order log exceeds " +
                  std::to_string(limits_.max_write_order_refs) + " refs");
    std::vector<OpRef>& order = orders_[addr];
    for (std::uint64_t r = 0; r < n; ++r) {
      std::uint64_t process = 0;
      std::uint64_t index = 0;
      if (!read_varint(process, "write-order ref") ||
          !read_varint(index, "write-order ref"))
        return false;
      if (process > 0xffffffffull || index > 0xffffffffull)
        return fail("write-order ref overflows 32 bits");
      order.push_back(OpRef{static_cast<std::uint32_t>(process),
                            static_cast<std::uint32_t>(index)});
    }
  }
  return true;
}

bool BinaryTraceReader::read_header() {
  if (header_done_) return ok();
  for (const char expected : kBinaryTraceMagic) {
    std::uint8_t byte = 0;
    if (!get(byte) || byte != static_cast<std::uint8_t>(expected))
      return fail("bad magic: not a VMTB binary trace");
  }
  std::uint8_t version = 0;
  if (!get(version)) return fail("truncated header: missing version");
  if (version != kBinaryTraceVersion)
    return fail("unsupported binary trace version " + std::to_string(version) +
                " (expected " + std::to_string(kBinaryTraceVersion) + ")");
  std::uint8_t flags = 0;
  if (!get(flags)) return fail("truncated header: missing flags");
  if ((flags & ~(kBinaryFlagOrdered | kBinaryFlagWriteOrders)) != 0)
    return fail("unknown flag bits 0x" + std::to_string(flags));
  ordered_ = (flags & kBinaryFlagOrdered) != 0;
  has_orders_ = (flags & kBinaryFlagWriteOrders) != 0;

  std::uint64_t processes = 0;
  if (!read_varint(processes, "header num_processes")) return false;
  if (processes > limits_.max_processes)
    return fail("process count " + std::to_string(processes) +
                " exceeds limit " + std::to_string(limits_.max_processes));
  num_processes_ = static_cast<std::uint32_t>(processes);
  if (!read_varint(total_ops_, "header total_ops")) return false;
  if (total_ops_ > limits_.max_ops)
    return fail("op count " + std::to_string(total_ops_) + " exceeds limit " +
                std::to_string(limits_.max_ops));
  if (!read_value_section(initials_, "init section")) return false;
  if (!read_value_section(finals_, "final section")) return false;
  if (has_orders_ && !read_write_order_section()) return false;
  next_index_.assign(num_processes_, 0);
  header_done_ = true;
  if (obs::enabled()) {
    static const obs::Counter decoded =
        obs::counter("vermem_binary_headers_decoded_total");
    decoded.add();
  }
  return true;
}

BinaryTraceReader::Next BinaryTraceReader::next(OpRecord& out) {
  if (!error_.empty()) return Next::kError;
  if (!header_done_) {
    fail("next() called before read_header()");
    return Next::kError;
  }
  if (at_end_) return Next::kEnd;

  if (block_left_ == 0) {
    std::uint64_t tag = 0;
    if (!read_varint(tag, "op block tag")) return Next::kError;
    if (tag == 0) {
      if (ops_seen_ != total_ops_) {
        fail("op blocks carry " + std::to_string(ops_seen_) +
             " ops but the header declared " + std::to_string(total_ops_));
        return Next::kError;
      }
      at_end_ = true;
      return Next::kEnd;
    }
    if (tag - 1 >= num_processes_) {
      fail("op block for process " + std::to_string(tag - 1) +
           " but the header declared " + std::to_string(num_processes_) +
           " processes");
      return Next::kError;
    }
    block_process_ = static_cast<std::uint32_t>(tag - 1);
    if (!read_varint(block_left_, "op block count")) return Next::kError;
    if (block_left_ == 0) {
      fail("empty op block for process " + std::to_string(block_process_));
      return Next::kError;
    }
    if (block_left_ > total_ops_ - ops_seen_) {
      fail("op block of " + std::to_string(block_left_) +
           " ops overruns the declared total of " + std::to_string(total_ops_));
      return Next::kError;
    }
  }

  std::uint8_t kind_byte = 0;
  if (!get(kind_byte)) {
    fail("truncated op: missing kind");
    return Next::kError;
  }
  if (kind_byte > static_cast<std::uint8_t>(OpKind::kRelease)) {
    fail("unknown op kind " + std::to_string(kind_byte));
    return Next::kError;
  }
  Operation op;
  op.kind = static_cast<OpKind>(kind_byte);
  if (!read_addr(op.addr, "op")) return Next::kError;
  switch (op.kind) {
    case OpKind::kRead:
      if (!read_zigzag(op.value_read, "op value")) return Next::kError;
      break;
    case OpKind::kWrite:
      if (!read_zigzag(op.value_written, "op value")) return Next::kError;
      break;
    case OpKind::kRmw:
      if (!read_zigzag(op.value_read, "op value") ||
          !read_zigzag(op.value_written, "op value"))
        return Next::kError;
      break;
    case OpKind::kAcquire:
    case OpKind::kRelease:
      break;
  }
  std::uint32_t& index = next_index_[block_process_];
  if (index == 0xffffffffu) {
    fail("history for process " + std::to_string(block_process_) +
         " exceeds 2^32 ops");
    return Next::kError;
  }
  out.ref = OpRef{block_process_, index};
  ++index;
  out.op = op;
  ++ops_seen_;
  --block_left_;
  return Next::kEvent;
}

bool BinaryTraceReader::at_clean_end() const noexcept {
  return at_end_ && in_ == nullptr && pos_ == len_;
}

BinaryParseResult decode_binary(std::string_view bytes,
                                const DecodeLimits& limits) {
  BinaryParseResult result;
  BinaryTraceReader reader(bytes, limits);
  auto propagate_error = [&] {
    result.error = reader.error();
    result.byte_offset = reader.byte_offset();
    if (obs::enabled()) {
      static const obs::Counter errors =
          obs::counter("vermem_binary_decode_errors_total");
      errors.add();
    }
  };
  if (!reader.read_header()) {
    propagate_error();
    return result;
  }
  result.ordered = reader.ordered();
  for (std::uint32_t p = 0; p < reader.num_processes(); ++p)
    result.execution.add_history(ProcessHistory{});
  OpRecord event;
  for (;;) {
    const auto status = reader.next(event);
    if (status == BinaryTraceReader::Next::kError) {
      propagate_error();
      return result;
    }
    if (status == BinaryTraceReader::Next::kEnd) break;
    result.execution.append(event.ref.process, event.op);
  }
  if (!reader.at_clean_end()) {
    result.error = "trailing bytes after the op block terminator";
    result.byte_offset = reader.byte_offset();
    return result;
  }
  for (const auto& [addr, value] : reader.initial_values())
    result.execution.set_initial_value(addr, value);
  for (const auto& [addr, value] : reader.final_values())
    result.execution.set_final_value(addr, value);
  result.write_orders = reader.write_orders();
  if (obs::enabled()) {
    static const obs::Counter decoded =
        obs::counter("vermem_binary_traces_decoded_total");
    decoded.add();
  }
  return result;
}

}  // namespace vermem
