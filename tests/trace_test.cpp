// Unit tests for the trace model: operations, executions, projections,
// schedule validators, and the text format.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "support/format.hpp"
#include "support/rng.hpp"
#include "trace/address_index.hpp"
#include "trace/execution.hpp"
#include "trace/schedule.hpp"
#include "trace/stats.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"
#include "workload/random.hpp"

namespace vermem {
namespace {

TEST(Operation, Predicates) {
  EXPECT_TRUE(R(0, 1).reads_memory());
  EXPECT_FALSE(R(0, 1).writes_memory());
  EXPECT_TRUE(W(0, 1).writes_memory());
  EXPECT_FALSE(W(0, 1).reads_memory());
  EXPECT_TRUE(RW(0, 1, 2).reads_memory());
  EXPECT_TRUE(RW(0, 1, 2).writes_memory());
  EXPECT_TRUE(Acq(0).is_sync());
  EXPECT_TRUE(Rel(0).is_sync());
  EXPECT_FALSE(W(0, 1).is_sync());
}

TEST(Operation, ToString) {
  EXPECT_EQ(to_string(R(3, -1)), "R(3,-1)");
  EXPECT_EQ(to_string(W(0, 7)), "W(0,7)");
  EXPECT_EQ(to_string(RW(2, 1, 9)), "RW(2,1,9)");
  EXPECT_EQ(to_string(Acq(5)), "Acq(5)");
  EXPECT_EQ(to_string(Rel(5)), "Rel(5)");
}

TEST(Execution, BuilderAndAccessors) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 2))
                        .process(W(0, 2))
                        .initial(0, 5)
                        .final_value(0, 2)
                        .build();
  EXPECT_EQ(exec.num_processes(), 2u);
  EXPECT_EQ(exec.num_operations(), 3u);
  EXPECT_EQ(exec.initial_value(0), 5);
  EXPECT_EQ(exec.initial_value(99), 0);  // default
  EXPECT_EQ(exec.final_value(0), std::optional<Value>(2));
  EXPECT_FALSE(exec.final_value(1).has_value());
  EXPECT_EQ(exec.op({0, 1}), R(0, 2));
}

TEST(Execution, AddressesSortedUnique) {
  const auto exec = ExecutionBuilder()
                        .process(W(3, 1), R(1, 0), Acq(7))
                        .process(W(1, 2))
                        .build();
  EXPECT_EQ(exec.addresses(), (std::vector<Addr>{1, 3}));  // sync addr excluded
}

TEST(Execution, ProjectionKeepsProgramOrderAndOrigin) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 9), R(0, 2))
                        .process(W(1, 3))
                        .initial(0, 4)
                        .final_value(0, 2)
                        .build();
  const auto proj = exec.project(0);
  // History 1 touches only address 1 and is dropped.
  ASSERT_EQ(proj.execution.num_processes(), 1u);
  EXPECT_EQ(proj.execution.history(0).ops(),
            (std::vector<Operation>{W(0, 1), R(0, 2)}));
  EXPECT_EQ(proj.execution.initial_value(0), 4);
  EXPECT_EQ(proj.execution.final_value(0), std::optional<Value>(2));
  ASSERT_EQ(proj.origin.size(), 1u);
  EXPECT_EQ(proj.origin[0][1], (OpRef{0, 2}));
}

// --- Address index & projected views ----------------------------------

TEST(AddressIndex, StatsAndSortedAddresses) {
  const auto exec = ExecutionBuilder()
                        .process(W(3, 1), R(1, 0), Acq(7), RW(1, 0, 5))
                        .process(W(1, 2), RW(9, 0, 1))
                        .build();
  const AddressIndex index(exec);
  EXPECT_EQ(std::vector<Addr>(index.addresses().begin(), index.addresses().end()),
            (std::vector<Addr>{1, 3, 9}));  // sorted, sync addr 7 excluded

  const AddressEntry* one = index.find(1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->op_count, 3u);
  EXPECT_EQ(one->write_count, 2u);  // RW(1,0,5) and W(1,2)
  EXPECT_EQ(one->process_count, 2u);
  EXPECT_FALSE(one->rmw_only);

  const AddressEntry* nine = index.find(9);
  ASSERT_NE(nine, nullptr);
  EXPECT_EQ(nine->op_count, 1u);
  EXPECT_EQ(nine->process_count, 1u);
  EXPECT_TRUE(nine->rmw_only);

  EXPECT_EQ(index.find(7), nullptr);   // sync-only address is not indexed
  EXPECT_EQ(index.find(42), nullptr);  // untouched address
  EXPECT_TRUE(index.records(42).empty());
}

TEST(AddressIndex, RefsGroupedByProcessInProgramOrder) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(5, 9), R(0, 2))
                        .process(R(0, 1))
                        .build();
  const AddressIndex index(exec);
  const auto refs = index.records(0);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].ref, (OpRef{0, 0}));
  EXPECT_EQ(refs[1].ref, (OpRef{0, 2}));
  EXPECT_EQ(refs[2].ref, (OpRef{1, 0}));
}

TEST(ProjectedView, MatchesLegacyProject) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 9), R(0, 2))
                        .process(W(1, 3))
                        .initial(0, 4)
                        .final_value(0, 2)
                        .build();
  const AddressIndex index(exec);
  for (const Addr addr : index.addresses()) {
    const auto legacy = exec.project(addr);
    const ProjectedView view = index.view(addr);
    EXPECT_EQ(view.materialize(), legacy.execution) << "addr " << addr;
    // original_of stands in for the projection's origin table.
    for (std::uint32_t h = 0; h < legacy.origin.size(); ++h)
      for (std::uint32_t i = 0; i < legacy.origin[h].size(); ++i)
        EXPECT_EQ(view.original_of({h, i}), legacy.origin[h][i])
            << "addr " << addr;
  }
}

TEST(ProjectedView, HistoryAccessorsAndCoordinateMaps) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 9), R(0, 2))
                        .process(W(1, 3))
                        .process(R(0, 1))
                        .build();
  const AddressIndex index(exec);
  const ProjectedView view = index.view(0);
  ASSERT_EQ(view.num_histories(), 2u);  // history 1 (only addr 1) dropped
  EXPECT_EQ(view.history_process(0), 0u);
  EXPECT_EQ(view.history_process(1), 2u);
  EXPECT_EQ(view.num_ops(), 3u);
  EXPECT_EQ(view.history(0).size(), 2u);

  // Original -> projected -> original round-trips; off-address refs miss.
  const OpRef original{0, 2};  // R(0,2), second op on addr 0 of process 0
  const auto projected = view.projected_of(original);
  ASSERT_TRUE(projected.has_value());
  EXPECT_EQ(*projected, (OpRef{0, 1}));
  EXPECT_EQ(view.original_of(*projected), original);
  EXPECT_FALSE(view.projected_of(OpRef{0, 1}).has_value());  // W(1,9)
  EXPECT_FALSE(view.projected_of(OpRef{1, 0}).has_value());  // W(1,3)
}

TEST(AddressIndex, EmptyExecution) {
  const AddressIndex index(Execution{});
  EXPECT_EQ(index.num_addresses(), 0u);
  EXPECT_TRUE(index.addresses().empty());
}

// --- Coherent-schedule validator -------------------------------------

TEST(CoherentCheck, AcceptsValidInterleaving) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1), R(0, 2)).process(W(0, 2)).build();
  const Schedule s{{0, 0}, {1, 0}, {0, 1}};
  EXPECT_TRUE(check_coherent_schedule(exec, 0, s).ok);
}

TEST(CoherentCheck, RejectsWrongReadValue) {
  const auto exec =
      ExecutionBuilder().process(W(0, 1), R(0, 2)).process(W(0, 2)).build();
  const Schedule s{{0, 0}, {0, 1}, {1, 0}};  // read sees 1, claims 2
  const auto check = check_coherent_schedule(exec, 0, s);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.at, std::optional<std::size_t>(1));
}

TEST(CoherentCheck, ReadsInitialValueBeforeAnyWrite) {
  const auto exec =
      ExecutionBuilder().process(R(0, 7), W(0, 1)).initial(0, 7).build();
  EXPECT_TRUE(check_coherent_schedule(exec, 0, {{0, 0}, {0, 1}}).ok);
}

TEST(CoherentCheck, RejectsProgramOrderViolation) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  const auto check = check_coherent_schedule(exec, 0, {{0, 1}, {0, 0}});
  EXPECT_FALSE(check.ok);
}

TEST(CoherentCheck, RejectsMissingOperation) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(0, 2)).build();
  EXPECT_FALSE(check_coherent_schedule(exec, 0, {{0, 0}}).ok);
}

TEST(CoherentCheck, RejectsDuplicatedOperation) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).build();
  EXPECT_FALSE(check_coherent_schedule(exec, 0, {{0, 0}, {0, 0}}).ok);
}

TEST(CoherentCheck, RejectsForeignAddressOps) {
  const auto exec = ExecutionBuilder().process(W(0, 1), W(1, 2)).build();
  EXPECT_FALSE(check_coherent_schedule(exec, 0, {{0, 0}, {0, 1}}).ok);
}

TEST(CoherentCheck, EnforcesFinalValue) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(0, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_FALSE(check_coherent_schedule(exec, 0, {{0, 0}, {0, 1}}).ok);
}

TEST(CoherentCheck, FinalValueWithNoWritesMustMatchInitial) {
  const auto exec =
      ExecutionBuilder().process(R(0, 3)).initial(0, 3).final_value(0, 3).build();
  EXPECT_TRUE(check_coherent_schedule(exec, 0, {{0, 0}}).ok);
  const auto exec2 =
      ExecutionBuilder().process(R(0, 3)).initial(0, 3).final_value(0, 4).build();
  EXPECT_FALSE(check_coherent_schedule(exec2, 0, {{0, 0}}).ok);
}

TEST(CoherentCheck, RmwActsAtomically) {
  const auto exec = ExecutionBuilder()
                        .process(RW(0, 0, 1))
                        .process(RW(0, 1, 2))
                        .build();
  EXPECT_TRUE(check_coherent_schedule(exec, 0, {{0, 0}, {1, 0}}).ok);
  EXPECT_FALSE(check_coherent_schedule(exec, 0, {{1, 0}, {0, 0}}).ok);
}

// --- SC validator ------------------------------------------------------

TEST(ScCheck, AcceptsCrossAddressInterleaving) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(R(1, 1), R(0, 1))
                        .build();
  EXPECT_TRUE(check_sc_schedule(exec, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}).ok);
}

TEST(ScCheck, RejectsMpViolation) {
  // Message-passing litmus: flag seen set but data read stale.
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(R(1, 1), R(0, 0))
                        .build();
  // No schedule makes this SC; every interleaving check must fail.
  const Schedule tries[] = {
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
      {{0, 0}, {1, 0}, {0, 1}, {1, 1}},
  };
  for (const auto& s : tries) EXPECT_FALSE(check_sc_schedule(exec, s).ok);
}

TEST(ScCheck, SyncOpsAreOrderOnly) {
  const auto exec = ExecutionBuilder()
                        .process(Acq(9), W(0, 1), Rel(9))
                        .process(Acq(9), R(0, 1), Rel(9))
                        .build();
  EXPECT_TRUE(
      check_sc_schedule(exec, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}).ok);
}

TEST(ScCheck, ChecksFinalValuesPerAddress) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1))
                        .process(W(0, 2))
                        .final_value(0, 1)
                        .build();
  EXPECT_FALSE(check_sc_schedule(exec, {{0, 0}, {1, 0}}).ok);
  EXPECT_TRUE(check_sc_schedule(exec, {{1, 0}, {0, 0}}).ok);
}

TEST(ScheduleToString, RendersRefs) {
  const auto exec = ExecutionBuilder().process(W(0, 1)).build();
  EXPECT_EQ(to_string(exec, {{0, 0}}), "P0:W(0,1)");
}

// --- Text I/O ----------------------------------------------------------

TEST(TextIo, ParsesOperations) {
  EXPECT_EQ(parse_operation("R(1,2)"), std::optional<Operation>(R(1, 2)));
  EXPECT_EQ(parse_operation("W(0,-3)"), std::optional<Operation>(W(0, -3)));
  EXPECT_EQ(parse_operation("RW(7,1,2)"), std::optional<Operation>(RW(7, 1, 2)));
  EXPECT_EQ(parse_operation("Acq(4)"), std::optional<Operation>(Acq(4)));
  EXPECT_EQ(parse_operation("Rel(4)"), std::optional<Operation>(Rel(4)));
  EXPECT_FALSE(parse_operation("R(1)").has_value());
  EXPECT_FALSE(parse_operation("X(1,2)").has_value());
  EXPECT_FALSE(parse_operation("W(1,2").has_value());
  EXPECT_FALSE(parse_operation("W(a,2)").has_value());
}

TEST(TextIo, ParsesFullTrace) {
  const auto result = parse_execution(
      "# message passing\n"
      "init 0 0\n"
      "final 1 1\n"
      "P: W(0,1) W(1,1)\n"
      "P: R(1,1) R(0,1)\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.execution.num_processes(), 2u);
  EXPECT_EQ(result.execution.final_value(1), std::optional<Value>(1));
}

TEST(TextIo, ReportsErrorLine) {
  const auto result = parse_execution("P: W(0,1)\nP: banana\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.line, 2u);
}

TEST(TextIo, RejectsUnknownDirective) {
  EXPECT_FALSE(parse_execution("Q: W(0,1)\n").ok());
}

TEST(TextIo, RejectsDuplicateInitDirective) {
  const auto result = parse_execution("init 3 1\ninit 3 2\nP: R(3,1)\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("duplicate init"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.line, 2u);
  // Distinct addresses are fine.
  EXPECT_TRUE(parse_execution("init 3 1\ninit 4 2\nP: R(3,1)\n").ok());
}

TEST(TextIo, RejectsDuplicateFinalDirective) {
  const auto result = parse_execution("final 0 1\nfinal 0 1\nP: W(0,1)\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("duplicate final"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.line, 2u);
}

TEST(TextIo, ReportsIntegerOverflowInDirectives) {
  // Value wider than 64 bits.
  const auto value = parse_execution("init 0 99999999999999999999999\n");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.error.find("integer overflow"), std::string::npos)
      << value.error;
  // Address beyond the 32-bit Addr range.
  const auto addr = parse_execution("init 4294967296 0\n");
  ASSERT_FALSE(addr.ok());
  EXPECT_NE(addr.error.find("integer overflow"), std::string::npos)
      << addr.error;
  // Largest representable address still parses.
  EXPECT_TRUE(parse_execution("init 4294967295 0\nP: R(4294967295,0)\n").ok());
  // Negative addresses are rejected, not wrapped.
  EXPECT_FALSE(parse_execution("init -1 0\n").ok());
}

TEST(TextIo, ReportsIntegerOverflowInOperations) {
  const auto addr = parse_execution("P: W(4294967296,1)\n");
  ASSERT_FALSE(addr.ok());
  EXPECT_NE(addr.error.find("integer overflow"), std::string::npos)
      << addr.error;
  EXPECT_EQ(addr.line, 1u);
  const auto value = parse_execution("P: W(0,99999999999999999999999)\n");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.error.find("integer overflow"), std::string::npos)
      << value.error;
  // The single-token entry point reports overflow as nullopt, like other
  // malformed tokens.
  EXPECT_FALSE(parse_operation("W(4294967296,1)").has_value());
  EXPECT_FALSE(parse_operation("R(0,99999999999999999999999)").has_value());
}

TEST(TextIo, OperationErrorClasses) {
  // Every field is range-checked before the arity check, so an overflow
  // wins over a wrong field count — also past the third field.
  for (const char* token :
       {"R(1,2,99999999999999999999)", "W(1,2,3,99999999999999999999)"}) {
    const auto result = parse_execution(std::string("P: ") + token + "\n");
    ASSERT_FALSE(result.ok()) << token;
    EXPECT_NE(result.error.find("integer overflow"), std::string::npos)
        << result.error;
  }
  for (const char* token : {"W(1,2,3,4)", "R()", "R(1,,2)", "RW(1,2)"}) {
    const auto result = parse_execution(std::string("P: ") + token + "\n");
    ASSERT_FALSE(result.ok()) << token;
    EXPECT_NE(result.error.find("malformed operation"), std::string::npos)
        << result.error;
    EXPECT_FALSE(parse_operation(token).has_value()) << token;
  }
  const auto rw = parse_operation("RW( 1 , 2 , 3 )");
  ASSERT_TRUE(rw.has_value());
  EXPECT_EQ(*rw, RW(1, 2, 3));
}

TEST(TextIo, RoundTrips) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(1, 2), RW(2, 3, 4), Acq(5), Rel(5))
                        .process(R(0, 1))
                        .initial(1, 2)
                        .final_value(0, 1)
                        .build();
  const auto parsed = parse_execution(serialize_execution(exec));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.execution, exec);
}

// --- Write-order serialization --------------------------------------------

TEST(WriteOrderIo, RoundTrips) {
  WriteOrderLog orders;
  orders[0] = {{0, 0}, {1, 2}, {0, 3}};
  orders[7] = {{2, 1}};
  const auto parsed = parse_write_orders(serialize_write_orders(orders));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.orders, orders);
}

TEST(WriteOrderIo, AcceptsCommentsAndEmptyOrders) {
  const auto parsed = parse_write_orders("# log\nwo 3\nwo 4 0:0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.orders.at(3).empty());
  EXPECT_EQ(parsed.orders.at(4).size(), 1u);
}

TEST(WriteOrderIo, RejectsMalformed) {
  EXPECT_FALSE(parse_write_orders("xx 1 0:0\n").ok());
  EXPECT_FALSE(parse_write_orders("wo\n").ok());
  EXPECT_FALSE(parse_write_orders("wo a 0:0\n").ok());
  EXPECT_FALSE(parse_write_orders("wo 1 0-0\n").ok());
  EXPECT_FALSE(parse_write_orders("wo 1 0:x\n").ok());
  const auto bad = parse_write_orders("wo 1 0:0\nwo 2 frog\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.line, 2u);
}

// --- Parser fuzzing ---------------------------------------------------------

TEST(ParserFuzz, RandomBytesNeverCrash) {
  Xoshiro256ss rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const std::size_t len = rng.below(120);
    for (std::size_t i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(rng.below(96) + 32 - (rng.chance(0.1) ? 22 : 0)));
    // Must return cleanly: either a parsed execution or a located error.
    const auto parsed = parse_execution(garbage);
    if (!parsed.ok()) {
      EXPECT_GT(parsed.line, 0u);
    }
    (void)parse_write_orders(garbage);
    (void)parse_operation(garbage);
  }
}

TEST(ParserFuzz, StructuredMutationsNeverCrash) {
  // Mutate a valid trace textually; the parser must stay graceful.
  Xoshiro256ss rng(78);
  const std::string base =
      "init 0 0\nfinal 1 2\nP: W(0,1) R(1,0) RW(1,0,2)\nP: R(0,1) Acq(9) "
      "Rel(9)\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.below(mutated.size());
    switch (rng.below(3)) {
      case 0: mutated[pos] = static_cast<char>(rng.below(96) + 32); break;
      case 1: mutated.erase(pos, 1); break;
      default: mutated.insert(pos, 1, static_cast<char>(rng.below(96) + 32));
    }
    const auto parsed = parse_execution(mutated);
    if (parsed.ok()) {
      // Whatever parsed must re-serialize and re-parse identically.
      const auto again = parse_execution(serialize_execution(parsed.execution));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.execution, parsed.execution);
    }
  }
}

// --- Parser equivalence guard ---------------------------------------------
//
// A seeded mutation corpus over the example traces and generated traces
// in the fleet_text and contended_exact bench shapes. Each of the three
// text parsers folds every result into one digest: ok, error, line, the
// canonical re-serialization of whatever it built (also on failure) and
// every field of every parsed operation. The constants were recorded from
// the split()-based parsers the single-pass ones replaced, so any change to
// the accept set, an error string, a line number or a partial result shows
// here. The digests also depend on six traces/*.txt examples,
// workload::generate_sc and the two serializers: if one of those changes,
// re-record the digests with the parsers left as they are.

/// FNV-1a over `bytes`, then a delimiter byte so adjacent fields cannot
/// trade bytes.
std::uint64_t fold(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return (h ^ 0x100) * 0x100000001b3ULL;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return fold(h, std::to_string(word));
}

std::uint64_t fold(std::uint64_t h, const Operation& op) {
  h = fold(h, static_cast<std::uint64_t>(op.kind));
  h = fold(h, static_cast<std::uint64_t>(op.addr));
  h = fold(h, static_cast<std::uint64_t>(op.value_read));
  return fold(h, static_cast<std::uint64_t>(op.value_written));
}

bool is_wo_line(std::string_view line) {
  return starts_with(line, "wo ") || line == "wo";
}

struct ParserCorpus {
  std::vector<std::string> execution_texts;
  std::vector<std::string> write_order_texts;
};

/// The unmutated inputs: each example trace split at its column-0 "wo"
/// lines, then generated traces and their write-order logs.
ParserCorpus parser_corpus_bases() {
  // The examples at the time the digests were recorded; a new example
  // does not move them.
  static constexpr const char* kExamples[] = {
      "coherent_basic.txt",  "coherent_with_write_order.txt",
      "faulty_never_written.txt", "faulty_stale_read.txt",
      "lint_clean.txt",      "lint_findings.txt"};
  ParserCorpus bases;
  for (const char* name : kExamples) {
    std::ifstream file(std::filesystem::path(VERMEM_TRACES_DIR) / name,
                       std::ios::binary);
    EXPECT_TRUE(file.is_open()) << name;
    std::string execution_text, write_order_text, line;
    while (std::getline(file, line))
      (is_wo_line(line) ? write_order_text : execution_text) += line + '\n';
    bases.execution_texts.push_back(std::move(execution_text));
    if (!write_order_text.empty())
      bases.write_order_texts.push_back(std::move(write_order_text));
  }
  Xoshiro256ss rng(2803);
  for (std::size_t i = 0; i < 32; ++i) {
    workload::MultiAddressParams params;
    if (i < 24) {  // fleet_text
      params.num_processes = static_cast<std::size_t>(rng.range(2, 4));
      params.ops_per_process = static_cast<std::size_t>(rng.range(32, 80));
      params.num_addresses = static_cast<std::size_t>(rng.range(4, 8));
      params.num_values = i % 3 == 0 ? 0 : 6;
    } else {  // contended_exact
      params.num_processes = 4;
      params.ops_per_process = 48;
      params.num_addresses = 3;
      params.num_values = 2;
    }
    const auto trace = workload::generate_sc(params, rng);
    bases.execution_texts.push_back(serialize_execution(trace.execution));
    bases.write_order_texts.push_back(serialize_write_orders(trace.write_orders));
  }
  return bases;
}

/// One to three edits: erase a run, insert a byte, overwrite a byte, or
/// replace the next digit run with an out-of-range literal. Half the
/// bytes come from the format's own alphabet, half are arbitrary.
std::string mutate(std::string text, Xoshiro256ss& rng) {
  static constexpr std::string_view kAlphabet =
      "()-,:# \t\r\n\v\f0123456789RWAcqelPinitfalwo";
  static constexpr std::string_view kLiterals[] = {
      "99999999999999999999", "9223372036854775808", "-9223372036854775809",
      "4294967296", "4294967295", "-1"};
  const auto any_byte = [&] {
    return rng.chance(0.5) ? kAlphabet[rng.below(kAlphabet.size())]
                           : static_cast<char>(rng.below(256));
  };
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.below(text.size() + 1);
    switch (rng.below(4)) {
      case 0:
        text.erase(pos, 1 + rng.below(4));
        break;
      case 1:
        text.insert(pos, 1, any_byte());
        break;
      case 2:
        if (pos < text.size()) text[pos] = any_byte();
        break;
      default: {
        const std::string_view literal = kLiterals[rng.below(std::size(kLiterals))];
        const std::size_t digit = text.find_first_of("0123456789", pos);
        if (digit == std::string::npos) {
          text.insert(pos, literal);
        } else {
          const std::size_t end = text.find_first_not_of("0123456789", digit);
          text.replace(digit, end == std::string::npos ? end : end - digit,
                       literal);
        }
      }
    }
  }
  return text;
}

std::size_t line_count(std::string_view text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
}

struct ParserDigests {
  std::uint64_t execution = 0xcbf29ce484222325ULL;
  std::uint64_t operation = 0xcbf29ce484222325ULL;
  std::uint64_t write_order = 0xcbf29ce484222325ULL;
  std::size_t execution_inputs = 0, execution_accepted = 0;
  std::size_t write_order_inputs = 0, write_order_accepted = 0;
};

constexpr std::size_t kMutantsPerBase = 300;

ParserDigests parser_digests() {
  const ParserCorpus bases = parser_corpus_bases();
  ParserDigests d;
  Xoshiro256ss rng(2804);
  for (const std::string& base : bases.execution_texts) {
    for (std::size_t m = 0; m <= kMutantsPerBase; ++m) {
      const std::string text = m == 0 ? base : mutate(base, rng);
      const ParseResult parsed = parse_execution(text);
      ++d.execution_inputs;
      d.execution_accepted += parsed.ok() ? 1 : 0;
      if (!parsed.ok()) {
        EXPECT_GE(parsed.line, 1u) << text;
        EXPECT_LE(parsed.line, line_count(text)) << text;
      }
      d.execution = fold(d.execution, parsed.ok() ? "ok" : "error");
      d.execution = fold(d.execution, parsed.error);
      d.execution = fold(d.execution, parsed.line);
      d.execution = fold(d.execution, serialize_execution(parsed.execution));
      for (const ProcessHistory& history : parsed.execution.histories())
        for (const Operation& op : history) d.execution = fold(d.execution, op);
      // parse_operation sees every whitespace-separated token and every
      // raw line, spaces and all.
      std::vector<std::string_view> tokens = split_ws(text);
      for (const std::string_view line : split(text, '\n')) tokens.push_back(line);
      for (const std::string_view token : tokens) {
        const std::optional<Operation> op = parse_operation(token);
        d.operation = fold(d.operation, op ? "ok" : "error");
        if (op) d.operation = fold(d.operation, *op);
      }
    }
  }
  for (const std::string& base : bases.write_order_texts) {
    for (std::size_t m = 0; m <= kMutantsPerBase; ++m) {
      const std::string text = m == 0 ? base : mutate(base, rng);
      const WriteOrderParseResult parsed = parse_write_orders(text);
      ++d.write_order_inputs;
      d.write_order_accepted += parsed.ok() ? 1 : 0;
      d.write_order = fold(d.write_order, parsed.ok() ? "ok" : "error");
      d.write_order = fold(d.write_order, parsed.error);
      d.write_order = fold(d.write_order, parsed.line);
      d.write_order =
          fold(d.write_order, serialize_write_orders(parsed.orders));
    }
  }
  return d;
}

TEST(ParserEquivalence, MutationCorpusDigestsAreUnchanged) {
  const ParserDigests d = parser_digests();
  // The corpus must exercise both outcomes of both parsers.
  EXPECT_GT(d.execution_accepted, d.execution_inputs / 50);
  EXPECT_LT(d.execution_accepted, d.execution_inputs / 2);
  EXPECT_GT(d.write_order_accepted, d.write_order_inputs / 50);
  EXPECT_LT(d.write_order_accepted, d.write_order_inputs / 2);
  std::ostringstream got;
  got << std::hex << "execution 0x" << d.execution << " operation 0x"
      << d.operation << " write_order 0x" << d.write_order << std::dec
      << " (" << d.execution_accepted << '/' << d.execution_inputs
      << " executions, " << d.write_order_accepted << '/'
      << d.write_order_inputs << " write-order logs accepted)";
  EXPECT_EQ(d.execution, 0x133f025f8edbb60dULL) << got.str();
  EXPECT_EQ(d.operation, 0x48fc1d7238c53feeULL) << got.str();
  EXPECT_EQ(d.write_order, 0xf4e801107b7bf68cULL) << got.str();
}

// --- Write-order log mutations ---------------------------------------------

TEST(WriteOrderFuzz, MutatedLogsFailTypedOrRoundTrip) {
  const ParserCorpus bases = parser_corpus_bases();
  Xoshiro256ss rng(2805);
  std::size_t accepted = 0, rejected = 0;
  for (const std::string& base : bases.write_order_texts) {
    for (std::size_t m = 0; m < kMutantsPerBase; ++m) {
      const std::string text = mutate(base, rng);
      const WriteOrderParseResult parsed = parse_write_orders(text);
      if (!parsed.ok()) {
        ++rejected;
        EXPECT_GE(parsed.line, 1u) << text;
        EXPECT_LE(parsed.line, line_count(text)) << text;
        EXPECT_TRUE(starts_with(parsed.error, "expected: wo <addr> ") ||
                    starts_with(parsed.error, "bad address: ") ||
                    starts_with(parsed.error, "bad op reference: "))
            << parsed.error;
        continue;
      }
      ++accepted;
      EXPECT_EQ(parsed.line, 0u);
      const std::string canonical = serialize_write_orders(parsed.orders);
      const WriteOrderParseResult again = parse_write_orders(canonical);
      ASSERT_TRUE(again.ok()) << again.error << "\n" << canonical;
      EXPECT_EQ(again.orders, parsed.orders) << text;
      EXPECT_EQ(serialize_write_orders(again.orders), canonical);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- CLI input plumbing (tools/trace_stream.hpp) ---------------------------

tools::TraceSource split_source(std::string_view text) {
  tools::TraceSource source;
  tools::split_wo_lines(text, source);
  return source;
}

TEST(TraceStream, ParseErrorsNameTheInputLine) {
  // A "wo" line ahead of the bad token must not shift its line number.
  const auto source =
      split_source("wo 1 0:0 0:1\ninit 0 0\nP: W(1,1)\nP: W(1,2) banana\n");
  EXPECT_EQ(source.execution_text, "\ninit 0 0\nP: W(1,1)\nP: W(1,2) banana\n");
  EXPECT_EQ(source.write_order_text, "wo 1 0:0 0:1\n");
  const ParseResult parsed = parse_execution(source.execution_text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, "malformed operation: banana");
  EXPECT_EQ(parsed.line, 4u);
  // Nor may execution lines shift a write-order error.
  const auto log =
      split_source("P: W(0,1)\n# note\nwo 0 0:0\nP: W(0,2)\nwo 0 frog\n");
  EXPECT_EQ(log.execution_text, "P: W(0,1)\n# note\n\nP: W(0,2)\n");
  EXPECT_EQ(log.write_order_text, "\n\nwo 0 0:0\n\nwo 0 frog\n");
  const WriteOrderParseResult orders = parse_write_orders(log.write_order_text);
  ASSERT_FALSE(orders.ok());
  EXPECT_EQ(orders.error, "bad op reference: frog");
  EXPECT_EQ(orders.line, 5u);
}

TEST(TraceStream, NoWoLineLeavesTheWriteOrderTextEmpty) {
  const std::string text = "init 0 0\n\nP: W(0,1) R(0,1)\n# wo 0 0:0\n";
  const auto source = split_source(text);
  EXPECT_EQ(source.execution_text, text);
  EXPECT_TRUE(source.write_order_text.empty());
  EXPECT_TRUE(split_source("").execution_text.empty());
  EXPECT_TRUE(split_source("").write_order_text.empty());
}

TEST(TraceStream, CrlfInput) {
  const auto source =
      split_source("init 0 0\r\nP: W(0,1) R(0,1)\r\nwo 0 0:0\r\nwo\r\n");
  // "wo\r" is not a bare "wo": it stays in the execution text.
  EXPECT_EQ(source.execution_text, "init 0 0\r\nP: W(0,1) R(0,1)\r\n\nwo\r\n");
  EXPECT_EQ(source.write_order_text, "\n\nwo 0 0:0\r\n");
  const WriteOrderParseResult orders = parse_write_orders(source.write_order_text);
  ASSERT_TRUE(orders.ok()) << orders.error;
  EXPECT_EQ(orders.orders, (WriteOrderLog{{0, {{0, 0}}}}));
  const ParseResult parsed = parse_execution(source.execution_text);
  EXPECT_EQ(parsed.error, "unrecognized directive: wo");
  EXPECT_EQ(parsed.line, 4u);
  const ParseResult clean = parse_execution(
      split_source("init 0 0\r\nP: W(0,1) R(0,1)\r\n").execution_text);
  ASSERT_TRUE(clean.ok()) << clean.error;
  EXPECT_EQ(clean.execution.num_operations(), 2u);
}

TEST(TraceStream, MissingFinalNewline) {
  EXPECT_EQ(split_source("P: W(0,1)").execution_text, "P: W(0,1)\n");
  const auto source = split_source("P: W(0,1)\nwo 0 0:0");
  EXPECT_EQ(source.execution_text, "P: W(0,1)\n");
  EXPECT_EQ(source.write_order_text, "\nwo 0 0:0\n");
  const auto bare = split_source("P: W(0,1)\nwo");
  EXPECT_EQ(bare.write_order_text, "\nwo\n");
}

TEST(TraceStream, BareWoIsAWriteOrderLine) {
  const auto source = split_source("P: W(0,1)\nwo\n");
  EXPECT_EQ(source.execution_text, "P: W(0,1)\n");
  EXPECT_EQ(source.write_order_text, "\nwo\n");
  const WriteOrderParseResult orders = parse_write_orders(source.write_order_text);
  ASSERT_FALSE(orders.ok());
  EXPECT_EQ(orders.error, "expected: wo <addr> <proc>:<index> ...");
  EXPECT_EQ(orders.line, 2u);
}

TEST(TraceStream, IndentedWoStaysInTheExecutionText) {
  // Only column-0 "wo" lines are routed; parse_execution then rejects
  // the indented one as a directive of its own.
  const auto source = split_source("P: W(0,1)\n  wo 0 0:0\n\two 0 0:0\n");
  EXPECT_EQ(source.execution_text, "P: W(0,1)\n  wo 0 0:0\n\two 0 0:0\n");
  EXPECT_TRUE(source.write_order_text.empty());
  const ParseResult parsed = parse_execution(source.execution_text);
  EXPECT_EQ(parsed.error, "unrecognized directive: wo 0 0:0");
  EXPECT_EQ(parsed.line, 2u);
}

std::vector<tools::TraceSource> split_stream(std::string_view all) {
  std::vector<tools::TraceSource> sources;
  tools::split_concatenated_sources(all, "stdin", sources);
  return sources;
}

TEST(TraceStream, SeparatorsAndTags) {
  const auto sources = split_stream(
      "P: W(0,1)\n---\nP: W(0,2)\n-----\nP: W(0,3)\n--\nP: W(0,4)");
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_EQ(sources[0].tag, "stdin[0]");
  EXPECT_EQ(sources[0].execution_text, "P: W(0,1)\n");
  EXPECT_EQ(sources[1].tag, "stdin[1]");
  EXPECT_EQ(sources[1].execution_text, "P: W(0,2)\n");
  // "--" is not a separator.
  EXPECT_EQ(sources[2].tag, "stdin[2]");
  EXPECT_EQ(sources[2].execution_text, "P: W(0,3)\n--\nP: W(0,4)\n");
  // A separator on the last line, without a newline.
  const auto last = split_stream("P: W(0,1)\n----");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].execution_text, "P: W(0,1)\n");
}

TEST(TraceStream, WhitespaceOnlyChunksAreSkippedUnnumbered) {
  const auto sources =
      split_stream("---\n \t\r\n\n---\nP: W(0,1)\n---\n\n---\nwo 0 0:0\n---\n");
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].tag, "stdin[0]");
  EXPECT_EQ(sources[0].execution_text, "P: W(0,1)\n");
  EXPECT_EQ(sources[1].tag, "stdin[1]");
  EXPECT_TRUE(sources[1].execution_text.empty());
  EXPECT_EQ(sources[1].write_order_text, "wo 0 0:0\n");
  EXPECT_TRUE(split_stream("").empty());
  EXPECT_TRUE(split_stream("---\n---\n").empty());
}

TEST(TraceStream, StreamLineNumbersCountFromTheSeparator) {
  const auto sources =
      split_stream("P: W(0,1)\n---\nwo 0 0:0\n# c\nP: bad\n---\n"
                   "P: W(0,1)\n\nwo x\n");
  ASSERT_EQ(sources.size(), 3u);
  const ParseResult parsed = parse_execution(sources[1].execution_text);
  EXPECT_EQ(parsed.error, "malformed operation: bad");
  EXPECT_EQ(parsed.line, 3u);
  const WriteOrderParseResult orders =
      parse_write_orders(sources[2].write_order_text);
  EXPECT_EQ(orders.error, "bad address: x");
  EXPECT_EQ(orders.line, 3u);
}

TEST(TraceStream, ReadAllReadsPastItsBlockSize) {
  std::string bytes(200'000, 'x');
  for (std::size_t i = 0; i < bytes.size(); i += 97) bytes[i] = '\n';
  std::istringstream in(bytes);
  std::string out = "stale";
  tools::read_all(in, out);
  EXPECT_EQ(out, bytes);
  std::istringstream empty;
  tools::read_all(empty, out);
  EXPECT_TRUE(out.empty());
}

// --- Trace statistics ----------------------------------------------------

TEST(TraceStatsTest, CountsPerKind) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), R(0, 1), RW(1, 0, 2), Acq(9))
                        .process(R(1, 2), W(1, 3))
                        .build();
  const auto stats = compute_stats(exec);
  EXPECT_EQ(stats.processes, 2u);
  EXPECT_EQ(stats.operations, 6u);
  EXPECT_EQ(stats.sync_ops, 1u);
  EXPECT_EQ(stats.reads, 3u);   // R, R, plus the RMW read component
  EXPECT_EQ(stats.writes, 3u);  // W, W, plus the RMW write component
  EXPECT_EQ(stats.rmws, 1u);
  EXPECT_EQ(stats.addresses, 2u);
}

TEST(TraceStatsTest, SharingDetection) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 1), W(1, 1))
                        .process(W(0, 2), R(1, 1))
                        .build();
  const auto stats = compute_stats(exec);
  // Address 0 written by both; address 1 written by one, read by other.
  EXPECT_EQ(stats.write_shared_addresses, 1u);
  ASSERT_EQ(stats.per_address.size(), 2u);
  EXPECT_EQ(stats.per_address[0].writers, 2u);
  EXPECT_EQ(stats.per_address[0].sharers, 2u);
  EXPECT_EQ(stats.per_address[1].writers, 1u);
  EXPECT_EQ(stats.per_address[1].sharers, 2u);
}

TEST(TraceStatsTest, ValueCollisionTracking) {
  const auto exec = ExecutionBuilder()
                        .process(W(0, 5), W(0, 5), W(0, 6))
                        .build();
  const auto stats = compute_stats(exec);
  EXPECT_EQ(stats.per_address[0].distinct_values, 2u);
  EXPECT_EQ(stats.per_address[0].max_writes_per_value, 2u);
}

TEST(TraceStatsTest, SummaryIsInformative) {
  const auto exec = ExecutionBuilder().process(W(0, 1), R(0, 1)).build();
  const auto text = summarize(compute_stats(exec));
  EXPECT_NE(text.find("1P"), std::string::npos);
  EXPECT_NE(text.find("2ops"), std::string::npos);
}

TEST(TraceStatsTest, EmptyExecution) {
  const auto stats = compute_stats(Execution{});
  EXPECT_EQ(stats.operations, 0u);
  EXPECT_EQ(stats.addresses, 0u);
}

}  // namespace
}  // namespace vermem
