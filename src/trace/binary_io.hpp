#pragma once
// Binary trace serialization — the wire format for streaming ingestion.
//
// The text format (text_io.hpp) is for humans and docs; this one is for
// daemons fronting live traffic: compact (LEB128 varints, zigzag values),
// versioned, and decodable *incrementally* — BinaryTraceReader yields one
// operation at a time without ever materializing an Execution, which is
// what the sharded stream pipeline (src/stream/) consumes.
//
// Layout of version 1 ("VMTB", docs/FORMATS.md has the normative spec):
//
//   magic   "VMTB"                        4 bytes
//   version u8 = 1
//   flags   u8   bit0 = ordered event stream (blocks interleave in an
//                       order satisfying the online-checker invariants)
//                bit1 = write-order section present
//   varint  num_processes
//   varint  total_ops
//   init section:   varint count, then count x (varint addr, zigzag value),
//                   addresses strictly ascending
//   final section:  same shape
//   write-order section (iff flag bit1): varint num_addresses, then per
//                   address (strictly ascending): varint addr, varint n,
//                   n x (varint process, varint index)
//   op blocks:      repeated { varint process+1, varint op_count (> 0),
//                   op_count x op }, terminated by a single varint 0
//   op:             u8 kind (0=R 1=W 2=RW 3=Acq 4=Rel), varint addr, then
//                   R: zigzag value_read / W: zigzag value_written /
//                   RW: zigzag value_read, zigzag value_written / none
//
// The canonical encoder (encode_binary) emits one block per process in
// process order, sorted init/final/write-order sections, and minimal
// varints, so encoding is deterministic and byte-identical round-trips
// with the (canonicalized) text format. encode_binary_ordered run-length
// encodes an explicit interleaving into many small blocks and sets flag
// bit0; block boundaries then carry the event order across the wire.
//
// The decoder is hardened against adversarial input: truncated files,
// oversized or non-minimal varints, unknown versions/flags, out-of-range
// counts, and op blocks that contradict the declared totals all produce
// typed errors with a byte offset — never UB, and never an allocation
// proportional to a *claimed* (rather than actually materialized) size.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/execution.hpp"
#include "trace/text_io.hpp"

namespace vermem {

inline constexpr std::array<char, 4> kBinaryTraceMagic{'V', 'M', 'T', 'B'};
inline constexpr std::uint8_t kBinaryTraceVersion = 1;
inline constexpr std::uint8_t kBinaryFlagOrdered = 0x01;
inline constexpr std::uint8_t kBinaryFlagWriteOrders = 0x02;

/// True when `bytes` starts with the binary trace magic (callers peek the
/// first 4 bytes of a stream to auto-detect the format).
[[nodiscard]] bool looks_like_binary_trace(std::string_view bytes) noexcept;

/// Canonical encoding: one op block per process, sorted sections, minimal
/// varints. Deterministic for a given execution + write-order log.
[[nodiscard]] std::string encode_binary(const Execution& exec,
                                        const WriteOrderLog* orders = nullptr);

/// Encodes an explicit event interleaving (e.g. a witness schedule or a
/// simulator commit order) as run-length op blocks and sets the ordered
/// flag. `event_order` must be a permutation of all operations that
/// respects each process's program order; returns an empty string when it
/// is not (callers treat that as a programming error, not a trace error).
[[nodiscard]] std::string encode_binary_ordered(
    const Execution& exec, const std::vector<OpRef>& event_order,
    const WriteOrderLog* orders = nullptr);

/// Hard ceilings the decoder enforces before trusting any declared count.
/// Every limit is checked against the *declared* value, and no container
/// is ever reserved from a declared size — growth is paid for entry by
/// entry, each of which consumes input bytes, so a tiny adversarial file
/// cannot demand a large allocation.
struct DecodeLimits {
  std::uint64_t max_processes = 1u << 20;
  std::uint64_t max_ops = std::uint64_t{1} << 32;
  std::uint64_t max_value_entries = 1u << 24;  ///< per init/final section
  std::uint64_t max_write_order_refs = std::uint64_t{1} << 32;
};

/// Incremental pull decoder. Reads the header (including the init/final
/// and write-order sections) eagerly, then yields ops one at a time as
/// OpRecords: `ref.process` is the op block's process, `ref.index` its
/// program-order index within that process.
///
///   BinaryTraceReader reader(in);
///   if (!reader.read_header()) { ...reader.error()... }
///   OpRecord event;
///   while (reader.next(event) == BinaryTraceReader::Next::kEvent) { ... }
///
/// Works over an std::istream (buffered, for pipes and sockets) or over
/// an in-memory byte range. All failures are typed: `error()` is a
/// human-readable reason and `byte_offset()` the offending position.
class BinaryTraceReader {
 public:
  /// Stream mode. `prefetched` holds bytes already consumed from `in` by
  /// format auto-detection; they are logically prepended.
  explicit BinaryTraceReader(std::istream& in, std::string_view prefetched = {},
                             DecodeLimits limits = {});
  /// Memory mode over `bytes` (not owned; must outlive the reader).
  explicit BinaryTraceReader(std::string_view bytes, DecodeLimits limits = {});

  /// Parses magic, header, and all sections before the op blocks.
  /// Returns false (with error() set) on malformed input.
  [[nodiscard]] bool read_header();

  enum class Next : std::uint8_t { kEvent, kEnd, kError };
  /// Yields the next operation. kEnd after the block terminator (and a
  /// verified op-count match); kError latches.
  [[nodiscard]] Next next(OpRecord& out);

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::uint64_t byte_offset() const noexcept {
    return base_offset_ + pos_;
  }

  // Header accessors (valid after read_header()).
  [[nodiscard]] std::uint32_t num_processes() const noexcept { return num_processes_; }
  [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }
  [[nodiscard]] bool ordered() const noexcept { return ordered_; }
  [[nodiscard]] bool has_write_orders() const noexcept { return has_orders_; }
  [[nodiscard]] const std::unordered_map<Addr, Value>& initial_values() const noexcept {
    return initials_;
  }
  [[nodiscard]] const std::unordered_map<Addr, Value>& final_values() const noexcept {
    return finals_;
  }
  [[nodiscard]] const WriteOrderLog& write_orders() const noexcept { return orders_; }

  /// True when the input ends exactly at the block terminator (memory
  /// mode only; a stream may legitimately carry unrelated bytes after).
  [[nodiscard]] bool at_clean_end() const noexcept;

 private:
  bool fill();
  bool get(std::uint8_t& byte);
  bool read_varint(std::uint64_t& out, const char* what);
  bool read_zigzag(Value& out, const char* what);
  bool read_addr(Addr& out, const char* what);
  bool read_value_section(std::unordered_map<Addr, Value>& out, const char* what);
  bool read_write_order_section();
  bool fail(std::string reason);

  std::istream* in_ = nullptr;   ///< null in memory mode
  std::string_view mem_;
  std::vector<char> buf_;
  const char* data_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::uint64_t base_offset_ = 0;
  DecodeLimits limits_;

  std::uint32_t num_processes_ = 0;
  std::uint64_t total_ops_ = 0;
  bool ordered_ = false;
  bool has_orders_ = false;
  std::unordered_map<Addr, Value> initials_;
  std::unordered_map<Addr, Value> finals_;
  WriteOrderLog orders_;

  std::uint32_t block_process_ = 0;
  std::uint64_t block_left_ = 0;
  std::vector<std::uint32_t> next_index_;
  std::uint64_t ops_seen_ = 0;
  bool header_done_ = false;
  bool at_end_ = false;
  std::string error_;
};

/// Whole-buffer decode into an Execution (the batch-path convenience;
/// round-trips with encode_binary). Rejects trailing bytes after the
/// block terminator. On failure `error` is non-empty and `byte_offset`
/// points at the offending input position.
struct BinaryParseResult {
  Execution execution;
  WriteOrderLog write_orders;
  bool ordered = false;
  std::string error;
  std::uint64_t byte_offset = 0;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

[[nodiscard]] BinaryParseResult decode_binary(std::string_view bytes,
                                              const DecodeLimits& limits = {});

}  // namespace vermem
