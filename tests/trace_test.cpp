// Unit tests for the trace model: operations, executions, projections,
// schedule validators, and the text format.

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "trace/address_index.hpp"
#include "trace/execution.hpp"
#include "trace/schedule.hpp"
#include "trace/stats.hpp"
#include "trace/text_io.hpp"

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
    const auto indexed = index.view(addr).materialize();
    EXPECT_EQ(indexed.execution, legacy.execution) << "addr " << addr;
    EXPECT_EQ(indexed.origin, legacy.origin) << "addr " << addr;
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
