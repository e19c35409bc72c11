// Tests for the streaming ingestion subsystem: the binary trace format
// (trace/binary_io), the SPSC ring (stream/spsc_queue), the sharded
// pipeline (stream/verifier), and the service's verify_stream entry
// point. The differential suites pin the subsystem's core contract:
// kComplete-mode streaming produces verdicts, evidence, witnesses, and
// routing provenance identical to the batch path
// (analysis::verify_coherence_routed) by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/router.hpp"
#include "certify/check.hpp"
#include "certify/text.hpp"
#include "service/service.hpp"
#include "stream/spsc_queue.hpp"
#include "stream/verifier.hpp"
#include "support/rng.hpp"
#include "trace/address_index.hpp"
#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "vmc/online.hpp"
#include "workload/random.hpp"

namespace vermem {
namespace {

Execution parse_or_die(std::string_view text) {
  ParseResult parsed = parse_execution(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return std::move(parsed.execution);
}

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Minimal hand-rolled header: magic, version, flags, processes, ops,
/// empty init/final sections. Lets hardening tests splice bad bytes at
/// controlled positions.
std::string header_bytes(std::uint8_t version, std::uint8_t flags,
                         std::uint64_t processes, std::uint64_t ops) {
  std::string out(kBinaryTraceMagic.data(), kBinaryTraceMagic.size());
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(flags));
  append_varint(out, processes);
  append_varint(out, ops);
  append_varint(out, 0);  // init section
  append_varint(out, 0);  // final section
  return out;
}

// ---------------------------------------------------------------------------
// Binary format: encoding, decoding, round-trips.

TEST(BinaryFormat, MagicDetection) {
  EXPECT_TRUE(looks_like_binary_trace("VMTB"));
  EXPECT_TRUE(looks_like_binary_trace(std::string("VMTB\x01\x00", 6)));
  EXPECT_FALSE(looks_like_binary_trace("VMT"));
  EXPECT_FALSE(looks_like_binary_trace("init 0 1\n"));
  EXPECT_FALSE(looks_like_binary_trace(""));
}

TEST(BinaryFormat, RoundTripsExecutionAndWriteOrders) {
  const Execution exec = parse_or_die(
      "init 0 1\n"
      "init 7 -3\n"
      "final 0 2\n"
      "P: W(0,2) R(7,-3) Acq(1) Rel(1)\n"
      "P: R(0,1) RW(7,-3,9)\n");
  WriteOrderLog orders;
  orders[0] = {OpRef{0, 0}};
  orders[7] = {OpRef{1, 1}};

  const std::string bytes = encode_binary(exec, &orders);
  BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_FALSE(decoded.ordered);
  EXPECT_EQ(serialize_execution(decoded.execution), serialize_execution(exec));
  EXPECT_EQ(serialize_write_orders(decoded.write_orders),
            serialize_write_orders(orders));
}

TEST(BinaryFormat, TextBinaryTextIsByteIdentical) {
  // Canonical text (sorted init/final sections, "P:" histories) must
  // survive text -> binary -> text unchanged; CI's conversion smoke step
  // asserts the same property with vermemconv.
  const std::string canonical =
      "init 0 0\n"
      "init 3 5\n"
      "final 3 6\n"
      "P: W(3,6) R(0,0)\n"
      "P: R(3,5) W(0,0)\n";
  const Execution exec = parse_or_die(canonical);
  BinaryParseResult decoded = decode_binary(encode_binary(exec));
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(serialize_execution(decoded.execution), canonical);
}

TEST(BinaryFormat, EncodingIsDeterministic) {
  const Execution exec = parse_or_die("init 2 1\nP: W(2,4) R(2,4)\n");
  EXPECT_EQ(encode_binary(exec), encode_binary(exec));
}

TEST(BinaryFormat, ExtremeAddressesAndValuesRoundTrip) {
  Execution exec;
  const Addr max_addr = ~Addr{0};
  const Value min_v = std::numeric_limits<Value>::min();
  const Value max_v = std::numeric_limits<Value>::max();
  exec.set_initial_value(max_addr, min_v);
  exec.set_final_value(max_addr, max_v);
  exec.add_history(ProcessHistory{{W(max_addr, max_v), R(max_addr, min_v)}});

  BinaryParseResult decoded = decode_binary(encode_binary(exec));
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(serialize_execution(decoded.execution), serialize_execution(exec));
}

TEST(BinaryFormat, IncrementalReaderYieldsProgramOrderRefs) {
  const Execution exec = parse_or_die(
      "P: W(0,1) R(1,0) Acq(0)\n"
      "P: R(0,1)\n");
  const std::string bytes = encode_binary(exec);
  BinaryTraceReader reader{std::string_view(bytes)};
  ASSERT_TRUE(reader.read_header()) << reader.error();
  EXPECT_EQ(reader.num_processes(), 2u);
  EXPECT_EQ(reader.total_ops(), 4u);
  EXPECT_FALSE(reader.ordered());

  std::vector<OpRecord> events;
  OpRecord event;
  while (reader.next(event) == BinaryTraceReader::Next::kEvent)
    events.push_back(event);
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ref, (OpRef{0, 0}));
  EXPECT_EQ(events[2].ref, (OpRef{0, 2}));
  EXPECT_EQ(events[3].ref, (OpRef{1, 0}));
  EXPECT_EQ(events[3].op, R(0, 1));
  EXPECT_TRUE(reader.at_clean_end());
}

TEST(BinaryFormat, StreamModeWithPrefetchMatchesMemoryMode) {
  const Execution exec = parse_or_die("init 0 0\nP: W(0,1) R(0,1)\n");
  const std::string bytes = encode_binary(exec);

  // Simulate format auto-detection: the caller consumed 4 magic bytes.
  std::istringstream in(bytes.substr(4));
  BinaryTraceReader streamed(in, bytes.substr(0, 4));
  ASSERT_TRUE(streamed.read_header()) << streamed.error();

  BinaryTraceReader memory{std::string_view(bytes)};
  ASSERT_TRUE(memory.read_header());
  EXPECT_EQ(streamed.total_ops(), memory.total_ops());
  OpRecord a, b;
  while (memory.next(a) == BinaryTraceReader::Next::kEvent) {
    ASSERT_EQ(streamed.next(b), BinaryTraceReader::Next::kEvent);
    EXPECT_EQ(a.ref, b.ref);
    EXPECT_EQ(a.op, b.op);
  }
  EXPECT_EQ(streamed.next(b), BinaryTraceReader::Next::kEnd);
}

TEST(BinaryFormat, OrderedEncodingRoundTripsAndSetsFlag) {
  Xoshiro256ss rng(7);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 12;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);

  const std::string bytes = encode_binary_ordered(trace.execution, trace.witness);
  ASSERT_FALSE(bytes.empty());
  BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_TRUE(decoded.ordered);
  EXPECT_EQ(serialize_execution(decoded.execution),
            serialize_execution(trace.execution));
}

TEST(BinaryFormat, OrderedEncoderRejectsBadInterleavings) {
  const Execution exec = parse_or_die("P: W(0,1) R(0,1)\n");
  // Wrong length.
  EXPECT_TRUE(encode_binary_ordered(exec, {OpRef{0, 0}}).empty());
  // Duplicate.
  EXPECT_TRUE(encode_binary_ordered(exec, {OpRef{0, 0}, OpRef{0, 0}}).empty());
  // Violates program order.
  EXPECT_TRUE(encode_binary_ordered(exec, {OpRef{0, 1}, OpRef{0, 0}}).empty());
  // A valid one works.
  EXPECT_FALSE(encode_binary_ordered(exec, {OpRef{0, 0}, OpRef{0, 1}}).empty());
}

// ---------------------------------------------------------------------------
// Decoder hardening: adversarial input must produce typed errors, never
// UB, a crash, or an allocation proportional to a claimed size.

TEST(BinaryHardening, EveryTruncationFailsCleanly) {
  const Execution exec = parse_or_die(
      "init 0 1\n"
      "final 0 2\n"
      "P: W(0,2) R(0,2) RW(0,2,3)\n"
      "P: R(0,1) Acq(2)\n");
  WriteOrderLog orders;
  orders[0] = {OpRef{0, 0}, OpRef{0, 2}};
  const std::string bytes = encode_binary(exec, &orders);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    BinaryParseResult decoded = decode_binary(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << len << " accepted";
    EXPECT_FALSE(decoded.error.empty());
    EXPECT_LE(decoded.byte_offset, len);
  }
  EXPECT_TRUE(decode_binary(bytes).ok());
}

TEST(BinaryHardening, SingleByteCorruptionNeverCrashes) {
  Xoshiro256ss rng(21);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 8;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  const std::string bytes = encode_binary(trace.execution);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned flip : {0x01u, 0x80u, 0xffu}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned>(corrupt[i]) ^ flip);
      const BinaryParseResult decoded = decode_binary(corrupt);
      // Either a typed error or a (different) well-formed trace; the
      // point is the decoder survives and stays internally consistent.
      if (!decoded.ok()) {
        EXPECT_FALSE(decoded.error.empty());
      }
    }
  }
}

TEST(BinaryHardening, OversizedVarintRejected) {
  std::string bytes(kBinaryTraceMagic.data(), kBinaryTraceMagic.size());
  bytes.push_back(static_cast<char>(kBinaryTraceVersion));
  bytes.push_back('\x00');
  bytes.append(10, '\xff');  // varint longer than 64 bits
  const BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error.find("varint"), std::string::npos) << decoded.error;
}

TEST(BinaryHardening, NonMinimalVarintRejected) {
  std::string bytes(kBinaryTraceMagic.data(), kBinaryTraceMagic.size());
  bytes.push_back(static_cast<char>(kBinaryTraceVersion));
  bytes.push_back('\x00');
  bytes.push_back('\x80');  // 0 encoded in two bytes
  bytes.push_back('\x00');
  const BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error.find("minimal"), std::string::npos) << decoded.error;
}

TEST(BinaryHardening, DeclaredCountsBeyondLimitsRejected) {
  // A tiny file claiming 2^40 processes must be rejected from the
  // declared count alone (no allocation, no long loop).
  const std::string bytes =
      header_bytes(kBinaryTraceVersion, 0, std::uint64_t{1} << 40, 0);
  const BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error.find("process count"), std::string::npos)
      << decoded.error;

  DecodeLimits tight;
  tight.max_ops = 4;
  std::string small = header_bytes(kBinaryTraceVersion, 0, 1, 100);
  EXPECT_FALSE(decode_binary(small, tight).ok());
}

TEST(BinaryHardening, UnknownVersionAndFlagsRejected) {
  EXPECT_FALSE(decode_binary(header_bytes(99, 0, 1, 0)).ok());
  EXPECT_FALSE(decode_binary(header_bytes(kBinaryTraceVersion, 0x80, 1, 0)).ok());
}

TEST(BinaryHardening, BlockContradictionsRejected) {
  // Process id out of range.
  std::string bad_process = header_bytes(kBinaryTraceVersion, 0, 1, 1);
  append_varint(bad_process, 3);  // block for process 2 of 1
  append_varint(bad_process, 1);
  EXPECT_FALSE(decode_binary(bad_process).ok());

  // Fewer ops than declared (terminator arrives early).
  std::string missing_ops = header_bytes(kBinaryTraceVersion, 0, 1, 2);
  append_varint(missing_ops, 0);  // terminator with 0 of 2 ops seen
  EXPECT_FALSE(decode_binary(missing_ops).ok());

  // Invalid op kind.
  std::string bad_kind = header_bytes(kBinaryTraceVersion, 0, 1, 1);
  append_varint(bad_kind, 1);  // block for process 0
  append_varint(bad_kind, 1);  // one op
  bad_kind.push_back('\x09');  // kind 9 does not exist
  EXPECT_FALSE(decode_binary(bad_kind).ok());
}

TEST(BinaryHardening, TrailingBytesRejectedByWholeBufferDecode) {
  const Execution exec = parse_or_die("P: W(0,1)\n");
  std::string bytes = encode_binary(exec);
  bytes.push_back('x');
  const BinaryParseResult decoded = decode_binary(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error.find("trailing"), std::string::npos) << decoded.error;
}

// ---------------------------------------------------------------------------
// Decoder equivalence: a seeded corpus of well-formed and malformed VMTB
// spellings, decoded in memory mode and through std::istream (whole, and
// with the first bytes prefetched so a buffer refill lands mid-op). What
// each decode yields — its events, its final status, error() and
// byte_offset() — is folded into one digest pinned below. A decoder
// change must leave it unchanged; a corpus change re-pins it from the
// code before the decoder change.

std::uint64_t fold(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return (h ^ 0x100) * 0x100000001b3ULL;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return fold(h, std::to_string(word));
}

/// Events, then status, error and offset of one decode through `reader`.
std::uint64_t decode_digest(BinaryTraceReader& reader) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (!reader.read_header())
    return fold(fold(fold(h, "header error"), reader.error()),
                reader.byte_offset());
  OpRecord event;
  BinaryTraceReader::Next status;
  while ((status = reader.next(event)) == BinaryTraceReader::Next::kEvent) {
    h = fold(h, event.ref.process);
    h = fold(h, event.ref.index);
    h = fold(h, static_cast<std::uint64_t>(event.op.kind));
    h = fold(h, event.op.addr);
    h = fold(h, static_cast<std::uint64_t>(event.op.value_read));
    h = fold(h, static_cast<std::uint64_t>(event.op.value_written));
  }
  h = fold(h, status == BinaryTraceReader::Next::kEnd ? "end" : "error");
  h = fold(h, reader.error());
  return fold(h, reader.byte_offset());
}

/// Well-formed inputs the mutations start from: RMW and sync kinds,
/// 5-byte addresses and 10-byte values, write orders, and two random
/// traces, each in the canonical and the ordered encoding.
std::vector<std::string> decode_corpus_bases() {
  const Value lo = std::numeric_limits<Value>::min();
  const Value hi = std::numeric_limits<Value>::max();
  const Addr top = std::numeric_limits<Addr>::max();
  Execution exec;
  exec.add_history(ProcessHistory{
      {W(0, 1), RW(0, 1, 2), Acq(7), R(top, lo), Rel(7), W(top, hi)}});
  exec.add_history(ProcessHistory{{R(0, 2), RW(top, hi, lo), W(300, -5)}});
  exec.add_history(ProcessHistory{{Acq(7), R(300, -5), R(0, 2)}});
  exec.set_initial_value(top, lo);
  exec.set_final_value(0, 2);
  exec.set_final_value(top, lo);
  WriteOrderLog orders;
  orders[0] = {OpRef{0, 0}, OpRef{0, 1}};
  orders[top] = {OpRef{0, 5}, OpRef{1, 1}};
  std::vector<OpRef> interleaving;
  for (std::uint32_t i = 0; i < 6; ++i)
    for (std::uint32_t p = 0; p < 3; ++p)
      if (i < exec.history(p).size()) interleaving.push_back(OpRef{p, i});

  std::vector<std::string> bases = {
      encode_binary(exec), encode_binary(exec, &orders),
      encode_binary_ordered(exec, interleaving, &orders)};
  for (const std::uint64_t seed : {31u, 32u}) {
    Xoshiro256ss rng(seed);
    workload::MultiAddressParams params;
    params.num_processes = 4;
    params.ops_per_process = 24;
    params.num_addresses = 5;
    params.num_values = seed == 31 ? 0 : 3;
    params.rmw_fraction = 0.3;
    const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
    bases.push_back(encode_binary(trace.execution));
    bases.push_back(encode_binary_ordered(trace.execution, trace.witness));
  }
  return bases;
}

/// A one-process trace: `before` three-byte reads in one block, then
/// `spelled` (block-header and op bytes as given), then `after` reads in
/// a block of their own and the terminator. The header declares
/// `spelled_ops` ops for the spelled part.
std::string spliced(std::string_view spelled, std::uint64_t spelled_ops,
                    std::size_t before, std::size_t after) {
  std::string out = header_bytes(kBinaryTraceVersion, kBinaryFlagOrdered, 1,
                                 before + spelled_ops + after);
  const auto filler_block = [&](std::size_t n) {
    if (n == 0) return;
    append_varint(out, 1);
    append_varint(out, n);
    for (std::size_t i = 0; i < n; ++i) out.append("\x00\x05\x00", 3);
  };
  filler_block(before);
  out.append(spelled);
  filler_block(after);
  append_varint(out, 0);
  return out;
}

/// Op and block-header spellings, well-formed and not, for splicing.
/// Ops are preceded by a one-op block header for process 0.
std::vector<std::pair<std::string, std::uint64_t>> spelled_pieces() {
  const auto op = [](std::string_view body) {
    return std::pair<std::string, std::uint64_t>(std::string("\x01\x01", 2) +
                                                     std::string(body),
                                                 1);
  };
  const std::string ten_ok = std::string(9, '\xff') + '\x01';
  const std::string ten_over = std::string(9, '\xff') + '\x02';
  const std::string ten_zero = std::string(9, '\xff') + '\x00';
  const std::string eleven = std::string(10, '\xff') + '\x01';
  std::string two_32, two_35;
  append_varint(two_32, std::uint64_t{1} << 32);
  append_varint(two_35, (std::uint64_t{1} << 35) + 9);
  using namespace std::string_literals;
  return {
      // Well-formed ops of every kind and width.
      op("\x00\x05\x00"s), op("\x01\x05\x02"s), op("\x02\x05\x02\x04"s),
      op("\x03\x05"s), op("\x04\x07"s), op("\x00\xff\xff\xff\xff\x0f\x03"s),
      op("\x01\x05"s + ten_ok), op("\x02\x05"s + ten_ok + ten_ok),
      op("\x02\x05\x01"s + ten_ok),
      // Bad kinds.
      op("\x05\x05"s), op("\x09\x05\x00"s), op("\xff\x05\x00"s),
      // Addresses above 2^32, oversized and non-minimal.
      op("\x00"s + two_32 + "\x00"s), op("\x03"s + two_35),
      op("\x00"s + ten_ok + "\x00"s), op("\x00"s + eleven + "\x00"s),
      op("\x00\x85\x00\x00"s), op("\x00\x80\x00\x00"s),
      // Values: 10-byte overflow, 11 bytes, non-minimal at 2 and 10 bytes.
      op("\x01\x05"s + ten_over), op("\x00\x05"s + eleven),
      op("\x01\x05\x80\x00"s), op("\x01\x05\x81\x80\x00"s),
      op("\x00\x05"s + ten_zero), op("\x02\x05\x02"s + ten_over),
      op("\x02\x05\x02\x80\x00"s),
      // Block headers: non-minimal or oversized tag and count, process
      // out of range, empty block, overrun, early terminator.
      {"\x81\x00\x01\x00\x05\x00"s, 1}, {"\x01\x81\x00\x00\x05\x00"s, 1},
      {ten_ok + "\x01\x00\x05\x00"s, 1}, {"\x01"s + eleven + "\x00\x05\x00"s, 1},
      {"\x02\x01\x00\x05\x00"s, 1}, {"\x01\x00\x00\x05\x00"s, 1},
      {"\x01\x02\x00\x05\x00"s, 1}, {"\x00"s, 1},
      {"\x01\x03\x00\x05\x00\x03\x05\x04\x07"s, 3}};
}

struct DecodeDigest {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;

  /// Decodes `bytes` in memory mode and through std::istream, whole and
  /// split after `split` prefetched bytes; the three must agree.
  void add(const std::string& bytes, std::size_t split) {
    BinaryTraceReader memory{std::string_view(bytes)};
    const std::uint64_t h = decode_digest(memory);
    const bool clean = memory.at_clean_end();
    std::istringstream whole(bytes);
    BinaryTraceReader streamed(whole);
    split = std::min(split, bytes.size());
    std::istringstream rest(bytes.substr(split));
    BinaryTraceReader prefetched(rest, std::string_view(bytes).substr(0, split));
    if (decode_digest(streamed) != h || decode_digest(prefetched) != h)
      ++mismatches;
    ++inputs;
    accepted += clean ? 1 : 0;
    digest = fold(fold(digest, h), clean ? "clean" : "not clean");
  }
};

TEST(BinaryFormat, DecodeEquivalence) {
  DecodeDigest d;
  Xoshiro256ss rng(3101);
  for (const std::string& base : decode_corpus_bases()) {
    ASSERT_FALSE(base.empty());
    for (std::size_t len = 0; len <= base.size(); ++len)
      d.add(base.substr(0, len), len / 2);
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (const unsigned flip : {0x01u, 0x80u, 0xffu}) {
        std::string corrupt = base;
        corrupt[i] = static_cast<char>(static_cast<unsigned>(corrupt[i]) ^ flip);
        d.add(corrupt, i);
      }
    }
    // Random edits, half of them splicing a malformed varint.
    for (std::size_t m = 0; m < 200; ++m) {
      std::string text = base;
      const std::size_t pos = rng.below(text.size() + 1);
      switch (rng.below(4)) {
        case 0: text.erase(pos, 1 + rng.below(4)); break;
        case 1: text.insert(pos, 1, static_cast<char>(rng.below(256))); break;
        case 2: text.insert(pos, std::string(9, '\xff') + '\x02'); break;
        default: text.insert(pos, "\x80\x00", 2); break;
      }
      d.add(text, rng.below(text.size() + 1));
    }
  }
  // Every spelling mid-buffer and at each distance from the end up to
  // well past any decoder look-ahead, after zero and forty ops.
  for (const auto& [spelled, ops] : spelled_pieces()) {
    for (const std::size_t before : {0u, 40u}) {
      for (std::size_t after = 0; after <= 24; ++after)
        d.add(spliced(spelled, ops, before, after), 7 + after);
      d.add(spliced(spelled, ops, before, 64), 0);
    }
  }
  // A trace longer than the 64 KiB stream buffer, intact and with a flip
  // on each byte around the first refill.
  {
    Xoshiro256ss trace_rng(33);
    workload::MultiAddressParams params;
    params.num_processes = 8;
    params.ops_per_process = 3000;
    params.num_addresses = 64;
    params.num_values = 0;
    params.rmw_fraction = 0.2;
    const auto trace = workload::generate_sc(params, trace_rng);
    const std::string big = encode_binary_ordered(trace.execution, trace.witness);
    ASSERT_GT(big.size(), std::size_t{80} * 1024);
    d.add(big, 4);
    for (std::size_t i = 65536 - 40; i < 65536 + 40; ++i) {
      std::string corrupt = big;
      corrupt[i] = static_cast<char>(static_cast<unsigned>(corrupt[i]) ^ 0x80u);
      d.add(corrupt, 4);
    }
  }

  EXPECT_EQ(d.mismatches, 0u);
  EXPECT_GT(d.accepted, d.inputs / 50);
  EXPECT_LT(d.accepted, d.inputs / 2);
  std::ostringstream got;
  got << std::hex << "digest 0x" << d.digest << std::dec << " (" << d.accepted
      << '/' << d.inputs << " inputs accepted)";
  EXPECT_EQ(d.digest, 0xd920f99b8ee801e8ULL) << got.str();
}

// ---------------------------------------------------------------------------
// SPSC ring.

TEST(SpscQueue, SingleThreadedWrapAround) {
  stream::SpscRing<int> ring(4);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      int* slot = ring.begin_push();
      ASSERT_NE(slot, nullptr);
      *slot = round * 10 + i;
      ring.commit_push();
    }
    EXPECT_EQ(ring.begin_push(), nullptr);  // full
    for (int i = 0; i < 4; ++i) {
      const int* front = ring.front();
      ASSERT_NE(front, nullptr);
      EXPECT_EQ(*front, round * 10 + i);
      ring.pop();
    }
    EXPECT_EQ(ring.front(), nullptr);  // empty
  }
}

TEST(SpscQueue, TwoThreadFifoStress) {
  constexpr int kItems = 200000;
  stream::SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int i = 0; i < kItems;) {
      int* slot = ring.begin_push();
      if (slot == nullptr) {
        std::this_thread::yield();
        continue;
      }
      *slot = i++;
      ring.commit_push();
    }
  });
  long long sum = 0;
  int expected = 0;
  while (expected < kItems) {
    const int* front = ring.front();
    if (front == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*front, expected) << "FIFO order broken";
    sum += *front;
    ++expected;
    ring.pop();
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

// ---------------------------------------------------------------------------
// Differential suite: kComplete streaming == batch routed verification.

void expect_stream_matches_batch(const Execution& exec,
                                 const WriteOrderLog* orders,
                                 const std::string& label) {
  const std::string bytes = encode_binary(exec, orders);
  stream::StreamOptions opts;
  opts.shards = 2;
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult streamed = verifier.run(reader);
  ASSERT_TRUE(streamed.ok()) << label << ": " << streamed.error;
  ASSERT_FALSE(streamed.ordered) << label;
  EXPECT_FALSE(streamed.cancelled) << label;
  EXPECT_EQ(streamed.events, exec.num_operations()) << label;

  AddressIndex index(exec);
  vmc::WriteOrderMap order_map;
  if (orders != nullptr) order_map = *orders;
  const analysis::RoutedReport batch = analysis::verify_coherence_routed(
      index, orders != nullptr ? &order_map : nullptr);

  EXPECT_EQ(streamed.report.verdict, batch.report.verdict) << label;
  EXPECT_EQ(streamed.report.first_violation_index,
            batch.report.first_violation_index)
      << label;
  ASSERT_EQ(streamed.report.addresses.size(), batch.report.addresses.size())
      << label;
  for (std::size_t i = 0; i < batch.report.addresses.size(); ++i) {
    const vmc::AddressReport& s = streamed.report.addresses[i];
    const vmc::AddressReport& b = batch.report.addresses[i];
    EXPECT_EQ(s.addr, b.addr) << label;
    EXPECT_EQ(s.result.verdict, b.result.verdict)
        << label << " @a" << b.addr;
    // Evidence identity: same kind, same fields (the rendering covers
    // every populated field).
    EXPECT_EQ(s.result.reason(), b.result.reason()) << label << " @a" << b.addr;
    // Witness identity in original coordinates.
    EXPECT_EQ(s.result.witness, b.result.witness) << label << " @a" << b.addr;
    // Effort identity: complete mode promises the batch path's stats.
    EXPECT_EQ(s.result.stats.states_visited, b.result.stats.states_visited)
        << label << " @a" << b.addr;
    EXPECT_EQ(s.result.stats.transitions, b.result.stats.transitions)
        << label << " @a" << b.addr;
    EXPECT_EQ(s.result.stats.prunes, b.result.stats.prunes)
        << label << " @a" << b.addr;
    EXPECT_EQ(s.result.stats.oracle_prunes, b.result.stats.oracle_prunes)
        << label << " @a" << b.addr;
    EXPECT_EQ(s.result.stats.max_frontier, b.result.stats.max_frontier)
        << label << " @a" << b.addr;
    // Certificate identity, and the streamed certificate re-validates
    // against the original Execution.
    const certify::Certificate cert =
        certify::from_result(certify::Scope::kAddress, s.addr, s.result);
    EXPECT_EQ(certify::dump(cert),
              certify::dump(certify::from_result(certify::Scope::kAddress,
                                                 b.addr, b.result)))
        << label << " @a" << b.addr;
    const certify::CheckOutcome checked = certify::check(exec, cert);
    EXPECT_TRUE(checked.ok) << label << " @a" << b.addr << ": "
                            << checked.violation;
  }
  EXPECT_EQ(streamed.routing.fragment_counts, batch.routing.fragment_counts) << label;
  EXPECT_EQ(streamed.routing.decider_counts, batch.routing.decider_counts) << label;
  EXPECT_EQ(streamed.routing.poly_routed, batch.routing.poly_routed) << label;
  EXPECT_EQ(streamed.routing.exact_routed, batch.routing.exact_routed) << label;
  EXPECT_EQ(streamed.routing.saturate_ran, batch.routing.saturate_ran) << label;
  EXPECT_EQ(streamed.routing.saturate_decided, batch.routing.saturate_decided)
      << label;
  EXPECT_EQ(streamed.routing.saturate_edges, batch.routing.saturate_edges)
      << label;
}

TEST(StreamDifferential, MatchesBatchOnRandomScTraces) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed);
    workload::MultiAddressParams params;
    params.num_processes = 3 + seed % 2;
    params.ops_per_process = 16;
    params.num_addresses = 1 + seed % 5;
    params.num_values = 3;
    params.rmw_fraction = seed % 3 == 0 ? 0.2 : 0.0;
    const workload::GeneratedMultiTrace trace =
        workload::generate_sc(params, rng);
    expect_stream_matches_batch(trace.execution, nullptr,
                                "sc seed " + std::to_string(seed));
  }
}

TEST(StreamDifferential, MatchesBatchOnContendedSingleAddress) {
  // Small value domain + one hot address: the regime that routes to the
  // exact frontier search, so this also pins witness translation.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256ss rng(seed * 97);
    workload::SingleAddressParams params;
    params.num_histories = 3;
    params.ops_per_history = 6;
    params.num_values = 2;
    params.write_fraction = 0.6;
    const workload::GeneratedTrace trace =
        workload::generate_coherent(params, rng);
    expect_stream_matches_batch(trace.execution, nullptr,
                                "contended seed " + std::to_string(seed));
  }
}

TEST(StreamDifferential, MatchesBatchOnFaultInjectedTraces) {
  using workload::Fault;
  for (const Fault fault : {Fault::kStaleRead, Fault::kLostWrite,
                            Fault::kFabricatedRead, Fault::kReorderedOps}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Xoshiro256ss rng(seed * 1031);
      workload::SingleAddressParams params;
      params.num_histories = 3;
      params.ops_per_history = 8;
      params.num_values = 3;
      const workload::GeneratedTrace trace =
          workload::generate_coherent(params, rng);
      Xoshiro256ss fault_rng(seed);
      const std::optional<Execution> faulty =
          workload::inject_fault(trace, fault, fault_rng);
      if (!faulty.has_value()) continue;
      expect_stream_matches_batch(
          *faulty, nullptr,
          std::string(to_string(fault)) + " seed " + std::to_string(seed));
    }
  }
}

TEST(StreamDifferential, MatchesBatchWithWriteOrders) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256ss rng(seed * 13);
    workload::MultiAddressParams params;
    params.num_processes = 4;
    params.ops_per_process = 20;
    params.num_addresses = 3;
    const workload::GeneratedMultiTrace trace =
        workload::generate_sc(params, rng);
    WriteOrderLog orders(trace.write_orders.begin(), trace.write_orders.end());
    expect_stream_matches_batch(trace.execution, &orders,
                                "wo seed " + std::to_string(seed));
  }
}

TEST(StreamDifferential, MatchesBatchOnCorruptedWriteOrders) {
  Xoshiro256ss rng(5);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 16;
  params.num_addresses = 2;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  WriteOrderLog orders(trace.write_orders.begin(), trace.write_orders.end());

  // Point an entry at an operation that does not exist: both paths must
  // agree (kUnknown / invalid-write-order, identical detail).
  for (auto& [addr, order] : orders) {
    if (!order.empty()) {
      order[0] = OpRef{1000, 1000};
      break;
    }
  }
  expect_stream_matches_batch(trace.execution, &orders, "corrupt write order");

  // Reversed order: typically an order/program-order contradiction —
  // whatever the batch path says, streaming must say the same.
  WriteOrderLog reversed(trace.write_orders.begin(), trace.write_orders.end());
  for (auto& [addr, order] : reversed) std::reverse(order.begin(), order.end());
  expect_stream_matches_batch(trace.execution, &reversed, "reversed write order");

  // An entry naming a real operation on the other address, and one naming
  // a read on the log's own address: both invalidate the log, and both
  // paths must report the same invalid-write-order detail.
  const Execution& exec = trace.execution;
  for (const auto& [addr, order] : trace.write_orders) {
    if (order.empty()) continue;
    std::optional<OpRef> foreign;
    std::optional<OpRef> read;
    for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
      for (std::uint32_t i = 0; i < exec.history(p).size(); ++i) {
        const Operation& op = exec.history(p)[i];
        if (op.is_sync()) continue;
        if (op.addr != addr && !foreign) foreign = OpRef{p, i};
        if (op.addr == addr && op.kind == OpKind::kRead && !read)
          read = OpRef{p, i};
      }
    }
    ASSERT_TRUE(foreign.has_value());
    ASSERT_TRUE(read.has_value());
    WriteOrderLog cross(trace.write_orders.begin(), trace.write_orders.end());
    cross[addr][0] = *foreign;
    expect_stream_matches_batch(exec, &cross, "cross-address write order");
    WriteOrderLog with_read(trace.write_orders.begin(),
                            trace.write_orders.end());
    with_read[addr][0] = *read;
    expect_stream_matches_batch(exec, &with_read, "read in write order");
    break;
  }
}

TEST(StreamDifferential, MatchesBatchOnSyncHeavyTraces) {
  // Acq/Rel carry no data; they must count toward ingested events and
  // program-order indices but never reach a checker shard.
  const Execution exec = parse_or_die(
      "init 0 0\n"
      "P: Acq(0) W(0,1) Rel(0) R(0,1) Acq(9)\n"
      "P: Acq(0) R(0,0) Rel(0)\n");
  expect_stream_matches_batch(exec, nullptr, "sync heavy");
}

// ---------------------------------------------------------------------------
// Ordered (online) mode.

TEST(StreamOrdered, AcceptsCoherentOrderedStream) {
  Xoshiro256ss rng(11);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 24;
  params.num_addresses = 3;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  const std::string bytes =
      encode_binary_ordered(trace.execution, trace.witness);
  ASSERT_FALSE(bytes.empty());

  stream::StreamOptions opts;
  opts.shards = 2;  // the header's ordered flag selects ordered mode
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult result = verifier.run(reader);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.ordered);
  EXPECT_EQ(result.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(result.report.addresses.size(), 3u);
  EXPECT_GT(result.resident_peak_bytes, 0u);
}

TEST(StreamOrdered, FlagsViolationsWithTypedEvidence) {
  // A read of a never-written value trips the online checker.
  const Execution bad_read = parse_or_die("P: R(0,5)\n");
  const std::string bytes = encode_binary_ordered(bad_read, {OpRef{0, 0}});
  ASSERT_FALSE(bytes.empty());
  stream::StreamOptions opts;
  opts.shards = 1;
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult result = verifier.run(reader);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.ordered);
  ASSERT_EQ(result.report.verdict, vmc::Verdict::kIncoherent);
  const vmc::AddressReport* violation = result.report.first_violation();
  ASSERT_NE(violation, nullptr);
  const certify::Incoherence* evidence = violation->result.incoherence();
  ASSERT_NE(evidence, nullptr);
  EXPECT_EQ(evidence->kind, certify::IncoherenceKind::kOrderReadWindow);
  ASSERT_EQ(evidence->ops.size(), 1u);
  EXPECT_EQ(evidence->ops[0], (OpRef{0, 0}));

  // A final value nothing wrote trips the end-of-stream check.
  const Execution bad_final = parse_or_die("final 0 7\nP: W(0,1)\n");
  const std::string final_bytes = encode_binary_ordered(bad_final, {OpRef{0, 0}});
  ASSERT_FALSE(final_bytes.empty());
  stream::StreamVerifier verifier2(opts);
  BinaryTraceReader reader2{std::string_view(final_bytes)};
  const stream::StreamResult final_result = verifier2.run(reader2);
  ASSERT_EQ(final_result.report.verdict, vmc::Verdict::kIncoherent);
  const certify::Incoherence* final_evidence =
      final_result.report.first_violation()->result.incoherence();
  ASSERT_NE(final_evidence, nullptr);
  EXPECT_EQ(final_evidence->kind, certify::IncoherenceKind::kOrderFinalMismatch);
}

/// An ordered trace over the addresses `stride * a + offset`, with
/// `faults` violations planted on distinct addresses, cycling through a
/// fabricated read, an RMW that reads a stale value, and a final value
/// no write stored.
struct OrderedRun {
  Execution exec;
  Schedule order;
};

OrderedRun ordered_run(std::uint64_t seed, std::size_t addresses, Addr stride,
                       Addr offset, std::size_t faults) {
  Xoshiro256ss rng(seed);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 96;
  params.num_addresses = addresses;
  params.num_values = 0;
  params.rmw_fraction = 0.3;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  const auto moved = [&](Addr a) { return stride * a + offset; };
  std::vector<std::vector<Operation>> histories;
  for (const ProcessHistory& history : trace.execution.histories()) {
    histories.emplace_back(history.ops());
    for (Operation& op : histories.back()) op.addr = moved(op.addr);
  }
  OrderedRun run;
  run.order = trace.witness;
  std::unordered_map<Addr, Value> finals;
  for (const auto& [addr, value] : trace.execution.final_values())
    finals[moved(addr)] = value;

  std::unordered_set<Addr> faulty;
  for (std::size_t f = 0; f < faults; ++f) {
    // The first eligible op at or after a random point of the witness.
    const std::size_t kind = f % 3;
    const std::size_t start = rng.below(run.order.size());
    for (std::size_t s = 0; s < run.order.size(); ++s) {
      const OpRef ref = run.order[(start + s) % run.order.size()];
      Operation& op = histories[ref.process][ref.index];
      if (faulty.contains(op.addr)) continue;
      if (kind == 0 && op.kind == OpKind::kRead) {
        op.value_read = 1'000'000 + static_cast<Value>(f);
      } else if (kind == 1 && op.kind == OpKind::kRmw) {
        op.value_read = -1 - static_cast<Value>(f);
      } else if (kind == 2 && op.writes_memory()) {
        finals[op.addr] = 2'000'000 + static_cast<Value>(f);
      } else {
        continue;
      }
      faulty.insert(op.addr);
      break;
    }
  }
  for (auto& ops : histories) run.exec.add_history(ProcessHistory(std::move(ops)));
  for (const auto& [addr, value] : finals) run.exec.set_final_value(addr, value);
  return run;
}

/// Each address's verdict and evidence from a fresh single-address
/// OnlineCoherenceChecker fed that address's events in stream order.
std::map<Addr, std::pair<vmc::Verdict, std::string>> fresh_replay(
    const OrderedRun& run) {
  std::map<Addr, std::vector<OpRef>> events;
  for (const OpRef ref : run.order) {
    const Operation& op = run.exec.op(ref);
    if (!op.is_sync()) events[op.addr].push_back(ref);
  }
  std::map<Addr, std::pair<vmc::Verdict, std::string>> out;
  for (const auto& [addr, refs] : events) {
    vmc::OnlineCoherenceChecker checker(
        static_cast<std::uint32_t>(run.exec.num_processes()),
        {{addr, run.exec.initial_value(addr)}});
    vmc::CheckResult result = vmc::CheckResult::yes({});
    for (const OpRef ref : refs) {
      if (checker.observe(ref.process, run.exec.op(ref))) continue;
      const vmc::OnlineViolation& v = *checker.violation();
      result = vmc::CheckResult::no(
          v.kind == vmc::OnlineViolationKind::kRmwMismatch
              ? certify::order_rmw_mismatch(addr, ref, {})
              : certify::order_read_window(addr, ref, {}));
      break;
    }
    const std::optional<Value> fin = run.exec.final_value(addr);
    if (result.coherent() && fin && !checker.finish({{addr, *fin}}))
      result = vmc::CheckResult::no(certify::order_final_mismatch(
          addr, checker.violation()->last_value, *fin, {}));
    out[addr] = {result.verdict, result.reason()};
  }
  return out;
}

TEST(StreamOrdered, ReusedVerifierMatchesFreshReplay) {
  // Consecutive runs over different address sets reuse each shard's
  // address slots; a slot that kept a window, an anchor, a latched
  // violation or an address from an earlier run would show here as a
  // verdict or evidence the fresh replay does not give.
  const std::vector<OrderedRun> runs = {
      ordered_run(41, 12, 1, 0, 6), ordered_run(42, 20, 3, 5, 0),
      ordered_run(43, 9, 7, 2, 5), ordered_run(44, 16, 2, 1, 4),
      ordered_run(42, 20, 3, 5, 0)};
  stream::StreamOptions opts;
  opts.shards = 2;
  stream::StreamVerifier verifier(opts);
  std::size_t incoherent = 0, coherent = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::string bytes = encode_binary_ordered(runs[r].exec, runs[r].order);
    ASSERT_FALSE(bytes.empty());
    BinaryTraceReader reader{std::string_view(bytes)};
    const stream::StreamResult result = verifier.run(reader);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_TRUE(result.ordered);
    const auto expected = fresh_replay(runs[r]);
    ASSERT_EQ(result.report.addresses.size(), expected.size()) << "run " << r;
    for (const vmc::AddressReport& report : result.report.addresses) {
      const auto it = expected.find(report.addr);
      ASSERT_NE(it, expected.end()) << "run " << r << " @a" << report.addr;
      EXPECT_EQ(report.result.verdict, it->second.first)
          << "run " << r << " @a" << report.addr;
      EXPECT_EQ(report.result.reason(), it->second.second)
          << "run " << r << " @a" << report.addr;
      ++(report.result.verdict == vmc::Verdict::kIncoherent ? incoherent
                                                            : coherent);
    }
  }
  // Every planted fault is found, and the clean runs stay clean.
  EXPECT_EQ(incoherent, 6u + 5u + 4u);
  EXPECT_GT(coherent, 40u);
}

// ---------------------------------------------------------------------------
// Cancellation, backpressure, errors, pooling.

TEST(StreamPipeline, ExpiredDeadlineCancelsMidStream) {
  Xoshiro256ss rng(9);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 64;
  params.num_addresses = 4;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  const std::string bytes = encode_binary(trace.execution);

  stream::StreamOptions opts;
  opts.shards = 2;
  // A 1 ns budget is expired by the time the reader performs its first
  // cooperative check (a zero budget would mean "unlimited").
  opts.exact.deadline = Deadline(std::chrono::nanoseconds(1));
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult result = verifier.run(reader);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.report.verdict, vmc::Verdict::kUnknown);
  for (const vmc::AddressReport& report : result.report.addresses) {
    const certify::Unknown* why = report.result.unknown_reason();
    ASSERT_NE(why, nullptr);
    EXPECT_EQ(why->reason, certify::UnknownReason::kSkipped);
    // Identical convention to the batch router's skip path.
    EXPECT_EQ(why->detail, "deadline expired or request cancelled");
  }
}

TEST(StreamPipeline, CancellationTokenStopsIngest) {
  const Execution exec = parse_or_die("P: W(0,1) R(0,1)\n");
  const std::string bytes = encode_binary(exec);
  CancellationToken token;
  token.cancel();
  stream::StreamOptions opts;
  opts.shards = 1;
  opts.exact.cancel = &token;
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult result = verifier.run(reader);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.report.verdict, vmc::Verdict::kUnknown);
}

TEST(StreamPipeline, DecodeErrorSurfacesTyped) {
  const Execution exec = parse_or_die("P: W(0,1) R(0,1) W(0,2)\n");
  const std::string bytes = encode_binary(exec);
  const std::string truncated = bytes.substr(0, bytes.size() - 2);

  stream::StreamOptions opts;
  opts.shards = 1;
  stream::StreamVerifier verifier(opts);
  std::istringstream in(truncated);
  const stream::StreamResult result = verifier.run(in);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.report.verdict, vmc::Verdict::kUnknown);
}

TEST(StreamPipeline, VerifierIsReusableAcrossRuns) {
  stream::StreamOptions opts;
  opts.shards = 2;
  stream::StreamVerifier verifier(opts);

  const Execution good = parse_or_die("init 0 0\nP: W(0,1)\nP: R(0,1)\n");
  const Execution bad = parse_or_die("P: R(3,9)\n");
  const std::string good_bytes = encode_binary(good);
  const std::string bad_bytes = encode_binary(bad);

  for (int round = 0; round < 3; ++round) {
    BinaryTraceReader good_reader{std::string_view(good_bytes)};
    EXPECT_EQ(verifier.run(good_reader).report.verdict,
              vmc::Verdict::kCoherent)
        << "round " << round;
    BinaryTraceReader bad_reader{std::string_view(bad_bytes)};
    EXPECT_EQ(verifier.run(bad_reader).report.verdict,
              vmc::Verdict::kIncoherent)
        << "round " << round;
  }
}

TEST(StreamPipeline, ResidentMemoryIsAccounted) {
  Xoshiro256ss rng(23);
  workload::MultiAddressParams params;
  params.num_processes = 3;
  params.ops_per_process = 64;
  params.num_addresses = 2;
  const workload::GeneratedMultiTrace trace = workload::generate_sc(params, rng);
  const std::string bytes = encode_binary(trace.execution);
  stream::StreamOptions opts;
  opts.shards = 1;
  stream::StreamVerifier verifier(opts);
  BinaryTraceReader reader{std::string_view(bytes)};
  const stream::StreamResult result = verifier.run(reader);
  ASSERT_TRUE(result.ok());
  // Queue storage alone is queue_blocks * block size; accumulation adds
  // arena high water on top.
  EXPECT_GT(result.resident_peak_bytes,
            static_cast<std::uint64_t>(opts.queue_blocks) * sizeof(stream::EventBlock));
  EXPECT_GT(result.blocks, 0u);
}

// ---------------------------------------------------------------------------
// Service entry point.

TEST(ServiceStream, StreamsVerdictsAndCountsStats) {
  service::VerificationService svc({.workers = 2});
  const Execution bad = parse_or_die("P: R(0,5)\n");
  const std::string bytes = encode_binary(bad);

  BinaryTraceReader reader{std::string_view(bytes)};
  const service::VerificationResponse response = svc.verify_stream(reader);
  EXPECT_EQ(response.verdict, vmc::Verdict::kIncoherent);
  EXPECT_FALSE(response.reason.empty());
  EXPECT_EQ(response.num_operations, 1u);
  EXPECT_EQ(response.num_addresses, 1u);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.streamed, 1u);
  EXPECT_EQ(stats.stream_events, 1u);
  EXPECT_EQ(stats.incoherent, 1u);
  EXPECT_NE(stats.to_prometheus().find("vermem_service_streamed_total"),
            std::string::npos);
}

TEST(ServiceStream, PoolsThePipelineAcrossCalls) {
  service::VerificationService svc({.workers = 2});
  const Execution good = parse_or_die("init 0 0\nP: W(0,1)\nP: R(0,1)\n");
  const std::string bytes = encode_binary(good);
  for (int i = 0; i < 4; ++i) {
    std::istringstream in(bytes);
    const service::VerificationResponse response = svc.verify_stream(in);
    EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent) << "call " << i;
  }
  EXPECT_EQ(svc.stats().streamed, 4u);
}

TEST(ServiceStream, ReportsDecodeErrorsAsUnknown) {
  service::VerificationService svc({.workers = 2});
  std::istringstream in("VMTB\x07");
  const service::VerificationResponse response = svc.verify_stream(in);
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  EXPECT_NE(response.reason.find("decode error"), std::string::npos)
      << response.reason;
}

TEST(ServiceStream, HonorsDeadline) {
  service::VerificationService svc({.workers = 2});
  const Execution good = parse_or_die("P: W(0,1)\n");
  const std::string bytes = encode_binary(good);
  service::StreamRequest request;
  request.options.exact.deadline = Deadline(std::chrono::nanoseconds(1));
  BinaryTraceReader reader{std::string_view(bytes)};
  const service::VerificationResponse response =
      svc.verify_stream(reader, std::move(request));
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  EXPECT_TRUE(response.timed_out);
}

}  // namespace
}  // namespace vermem
