// Observability subsystem: metrics registry (sharded counters and
// log-bucketed histograms aggregated on scrape), the RAII span tracer
// with its Chrome trace-event exporter, the rate-limited structured
// logger, the flight recorder (capture policy, crash dump), the SLO
// tracker, and the enable/disable gates. The concurrency tests drive
// real ThreadPool workers and assert EXACT totals — sharded relaxed
// recording must lose nothing (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/router.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "support/thread_pool.hpp"
#include "trace/address_index.hpp"
#include "workload/random.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#endif

#if defined(__SANITIZE_THREAD__)
#define VERMEM_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VERMEM_TEST_TSAN 1
#endif
#endif

namespace vermem::obs {
namespace {

/// Restores both enable flags; every test flips them.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_was_ = enabled();
    tracing_was_ = tracing_enabled();
    set_enabled(true);
    set_tracing_enabled(false);
  }
  void TearDown() override {
    set_enabled(metrics_was_);
    set_tracing_enabled(tracing_was_);
  }

 private:
  bool metrics_was_ = true;
  bool tracing_was_ = false;
};

std::uint64_t counter_value(const MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [n, v] : snapshot.counters)
    if (n == name) return v;
  return 0;
}

const HistogramData* histogram_data(const MetricsSnapshot& snapshot,
                                    const std::string& name) {
  for (const HistogramSnapshot& h : snapshot.histograms)
    if (h.name == name) return &h.data;
  return nullptr;
}

TEST_F(ObsTest, CounterConcurrentBumpsAreExact) {
  const Counter c = counter("vermem_test_concurrent_total");
  Registry::instance().reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 10'000;
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> done;
    done.reserve(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t)
      done.push_back(pool.submit([&c] {
        for (std::uint64_t i = 0; i < kPerTask; ++i) c.add(1);
      }));
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(counter_value(snapshot_metrics(), "vermem_test_concurrent_total"),
            kTasks * kPerTask);
}

TEST_F(ObsTest, HistogramConcurrentObservationsAreExact) {
  const Histogram h = histogram("vermem_test_concurrent_nanos");
  Registry::instance().reset();
  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kPerTask = 5'000;
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> done;
    done.reserve(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t)
      done.push_back(pool.submit([&h, t] {
        for (std::uint64_t i = 0; i < kPerTask; ++i) h.observe(t + 1);
      }));
    for (auto& f : done) f.get();
  }
  const MetricsSnapshot snapshot = snapshot_metrics();
  const HistogramData* data =
      histogram_data(snapshot, "vermem_test_concurrent_nanos");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count, kTasks * kPerTask);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kTasks; ++t) expected_sum += (t + 1) * kPerTask;
  EXPECT_EQ(data->sum, expected_sum);
}

TEST_F(ObsTest, ScopedDisableDropsRecordings) {
  const Counter c = counter("vermem_test_disabled_total");
  Registry::instance().reset();
  c.add(3);
  {
    scoped_disable off;
    EXPECT_FALSE(enabled());
    c.add(100);
  }
  EXPECT_TRUE(enabled());
  c.add(4);
  EXPECT_EQ(counter_value(snapshot_metrics(), "vermem_test_disabled_total"),
            7u);
}

TEST_F(ObsTest, RegistryReturnsSameSlotForSameName) {
  const Counter a = counter("vermem_test_same_total");
  const Counter b = counter("vermem_test_same_total");
  Registry::instance().reset();
  a.add(1);
  b.add(2);
  EXPECT_EQ(counter_value(snapshot_metrics(), "vermem_test_same_total"), 3u);
}

TEST_F(ObsTest, HistogramQuantileWithinBucketBounds) {
  HistogramData data;
  for (int i = 0; i < 1000; ++i) data.record(1000);  // bucket [512, 1024)
  const double p50 = data.quantile(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = data.quantile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_DOUBLE_EQ(data.mean(), 1000.0);
}

TEST_F(ObsTest, QuantilesAreMonotoneAcrossBuckets) {
  HistogramData data;
  for (std::uint64_t v : {1u, 10u, 100u, 1000u, 10000u})
    for (int i = 0; i < 100; ++i) data.record(v);
  double last = 0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double value = data.quantile(q);
    EXPECT_GE(value, last) << "q=" << q;
    last = value;
  }
  // p50 must land near the middle value's bucket (100 -> [64,128)).
  EXPECT_GE(data.quantile(0.5), 64.0);
  EXPECT_LE(data.quantile(0.5), 128.0);
}

TEST_F(ObsTest, PrometheusExpositionShape) {
  const Counter c = counter("vermem_test_prom_total");
  const Histogram h = histogram("vermem_test_prom_nanos");
  Registry::instance().reset();
  c.add(5);
  h.observe(3);
  const std::string text = snapshot_metrics().to_prometheus();
  EXPECT_NE(text.find("# TYPE vermem_test_prom_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("vermem_test_prom_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vermem_test_prom_nanos histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("vermem_test_prom_nanos_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vermem_test_prom_nanos_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("vermem_test_prom_nanos_count 1\n"), std::string::npos);
}

TEST_F(ObsTest, PrometheusLabelsShareOneTypeLine) {
  const Counter a = counter("vermem_test_labeled_total{kind=\"a\"}");
  const Counter b = counter("vermem_test_labeled_total{kind=\"b\"}");
  Registry::instance().reset();
  a.add(1);
  b.add(2);
  const std::string text = snapshot_metrics().to_prometheus();
  std::size_t first = text.find("# TYPE vermem_test_labeled_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE vermem_test_labeled_total counter", first + 1),
            std::string::npos)
      << "labeled series must share a single # TYPE line";
  EXPECT_NE(text.find("vermem_test_labeled_total{kind=\"a\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vermem_test_labeled_total{kind=\"b\"} 2\n"),
            std::string::npos);
}

// ---- span tracer ---------------------------------------------------------

/// First numeric value following `"key":` after position `from`.
std::uint64_t json_number_after(const std::string& text, const std::string& key,
                                std::size_t from) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size() + 3));
}

TEST_F(ObsTest, SpanNestingParentLinksInChromeExport) {
  set_tracing_enabled(true);
  reset_trace();
  {
    Span outer("obs.test.outer");
    outer.attr("level", std::uint64_t{1});
    {
      Span inner("obs.test.inner");
      inner.attr("level", std::uint64_t{2});
      inner.attr("kind", "child");
    }
  }
  { Span sibling("obs.test.sibling"); }
  set_tracing_enabled(false);
  EXPECT_EQ(trace_event_count(), 3u);
  EXPECT_EQ(trace_dropped_count(), 0u);

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();

  const std::size_t outer_at = text.find("\"name\":\"obs.test.outer\"");
  const std::size_t inner_at = text.find("\"name\":\"obs.test.inner\"");
  const std::size_t sibling_at = text.find("\"name\":\"obs.test.sibling\"");
  ASSERT_NE(outer_at, std::string::npos);
  ASSERT_NE(inner_at, std::string::npos);
  ASSERT_NE(sibling_at, std::string::npos);

  // Child links to parent; roots link to 0.
  const std::uint64_t outer_id = json_number_after(text, "id", outer_at);
  EXPECT_EQ(json_number_after(text, "parent", inner_at), outer_id);
  EXPECT_EQ(json_number_after(text, "parent", outer_at), 0u);
  EXPECT_EQ(json_number_after(text, "parent", sibling_at), 0u);
  // Same-thread export is start-ordered: outer before inner before sibling.
  EXPECT_LT(outer_at, inner_at);
  EXPECT_LT(inner_at, sibling_at);
  // Attributes survive into args.
  EXPECT_NE(text.find("\"kind\":\"child\""), std::string::npos);
  EXPECT_EQ(json_number_after(text, "level", inner_at), 2u);
}

/// The attribute list of `span`'s row in docs/OBSERVABILITY.md's span
/// table (its last cell, comma-separated).
std::vector<std::string> documented_attributes(const std::string& span) {
  std::ifstream doc(VERMEM_DOCS_DIR "/OBSERVABILITY.md");
  const std::string row_start = "| `" + span + "` |";
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind(row_start, 0) != 0) continue;
    const std::size_t last = line.find_last_of('|');
    const std::size_t cell = line.find_last_of('|', last - 1) + 1;
    std::vector<std::string> attrs;
    std::istringstream fields(line.substr(cell, last - cell));
    std::string field;
    while (std::getline(fields, field, ',')) {
      const std::size_t b = field.find_first_not_of(' ');
      const std::size_t e = field.find_last_not_of(' ');
      if (b != std::string::npos) attrs.push_back(field.substr(b, e - b + 1));
    }
    return attrs;
  }
  ADD_FAILURE() << span << " has no row in the span table";
  return {};
}

/// `exec` with one more write per address, of a value nothing else
/// writes, at the end of history 0, recorded as the final value. Still
/// coherent (the write runs last), and the unique final writer gives the
/// saturation pass a cross-history edge to derive, so the tier runs.
Execution with_unique_final_writers(const Execution& exec) {
  ExecutionBuilder builder;
  for (std::uint32_t p = 0; p < exec.num_processes(); ++p) {
    std::vector<Operation> ops = exec.history(p).ops();
    if (p == 0)
      for (const Addr addr : exec.addresses())
        ops.push_back(W(addr, 1000000 + static_cast<Value>(addr)));
    builder.process_ops(std::move(ops));
  }
  for (const auto& [addr, value] : exec.initial_values())
    builder.initial(addr, value);
  for (const Addr addr : exec.addresses())
    builder.final_value(addr, 1000000 + static_cast<Value>(addr));
  return builder.build();
}

TEST_F(ObsTest, DocumentedSpanAttributesReachChromeTrace) {
  // One contended address (4 processes, 2 values) with a unique final
  // writer: it goes through the saturation tier and on to the exact
  // search.
  Xoshiro256ss rng(7);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 16;
  params.num_addresses = 1;
  params.num_values = 2;
  const Execution exec =
      with_unique_final_writers(workload::generate_sc(params, rng).execution);
  const AddressIndex index(exec);
  set_tracing_enabled(true);
  reset_trace();
  const auto routed = analysis::verify_coherence_routed(index);
  set_tracing_enabled(false);
  EXPECT_EQ(routed.report.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(trace_dropped_count(), 0u);

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  for (const std::string span : {"analysis.saturate", "vmc.exact"}) {
    SCOPED_TRACE(span);
    const std::size_t at = text.find("\"name\":\"" + span + "\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t args = text.find("\"args\":{", at);
    const std::string event = text.substr(args, text.find('}', args) - args);
    const std::vector<std::string> attrs = documented_attributes(span);
    EXPECT_FALSE(attrs.empty());
    for (const std::string& attr : attrs)
      EXPECT_NE(event.find("\"" + attr + "\":"), std::string::npos)
          << attr << " missing from " << event;
  }
}

TEST_F(ObsTest, RegistryRoutingSeriesEqualTheRouteTally) {
  // The registry's routing series are published from RouteTally alone,
  // so after a reset they equal the sum of the routed reports' tallies.
  std::vector<Execution> corpus;
  // A branching RMW chain: two heads read the initial value, the chain
  // walk bails and the address falls back.
  corpus.push_back(ExecutionBuilder()
                       .process_ops({RW(0, 0, 1), RW(0, 2, 4)})
                       .process_ops({RW(0, 1, 0)})
                       .process_ops({RW(0, 0, 2)})
                       .build());
  // A saturation cycle (the duplicate value 3 defeats write-once).
  corpus.push_back(ExecutionBuilder()
                       .process(W(0, 1), R(0, 2), W(0, 3))
                       .process(W(0, 2), R(0, 1), W(0, 3))
                       .build());
  Xoshiro256ss rng(31);
  for (int i = 0; i < 6; ++i) {
    workload::MultiAddressParams params;
    params.num_processes = 4;
    params.ops_per_process = 8;
    params.num_addresses = 3;
    params.num_values = 2;
    corpus.push_back(workload::generate_sc(params, rng).execution);
  }

  Registry::instance().reset();
  analysis::RouteTally tally;
  const analysis::PortfolioOptions cdcl{.enabled = true,
                                        .only = analysis::Engine::kCdcl};
  for (const Execution& exec : corpus) {
    const AddressIndex index(exec);
    tally.merge(analysis::verify_coherence_routed(index).routing);
    tally.merge(
        analysis::verify_coherence_routed(index, nullptr, {}, cdcl).routing);
  }
  ASSERT_GT(tally.fallbacks, 0u);
  ASSERT_GT(tally.saturate_cycles, 0u);
  ASSERT_GT(tally.saturate_skipped, 0u);
  ASSERT_GT(tally.portfolio_races, 0u);

  const MetricsSnapshot snapshot = snapshot_metrics();
  const auto expect_series = [&](const std::string& name,
                                 std::uint64_t expected) {
    const auto it = std::find_if(
        snapshot.counters.begin(), snapshot.counters.end(),
        [&](const auto& counter) { return counter.first == name; });
    ASSERT_NE(it, snapshot.counters.end()) << name << " not exported";
    EXPECT_EQ(it->second, expected) << name;
  };
  for (std::size_t f = 0; f < analysis::kNumFragments; ++f)
    expect_series(std::string("vermem_fragments_total{fragment=\"") +
                      to_string(static_cast<analysis::Fragment>(f)) + "\"}",
                  tally.fragment_counts[f]);
  for (std::size_t e = 0; e < analysis::kNumEngines; ++e)
    expect_series(std::string("vermem_portfolio_wins_total{engine=\"") +
                      to_string(static_cast<analysis::Engine>(e)) + "\"}",
                  tally.engine_wins[e]);
  expect_series("vermem_poly_routed_total", tally.poly_routed);
  expect_series("vermem_exact_routed_total", tally.exact_routed);
  expect_series("vermem_route_fallbacks_total", tally.fallbacks);
  expect_series("vermem_saturate_outcomes_total{outcome=\"cycle\"}",
                tally.saturate_cycles);
  expect_series("vermem_saturate_outcomes_total{outcome=\"forced\"}",
                tally.saturate_forced);
  expect_series("vermem_saturate_outcomes_total{outcome=\"partial\"}",
                tally.saturate_partial);
  expect_series("vermem_saturate_outcomes_total{outcome=\"contradiction\"}",
                tally.saturate_contradictions);
  expect_series("vermem_saturate_must_edges_total", tally.saturate_edges);
  expect_series("vermem_saturate_skipped_total", tally.saturate_skipped);
  expect_series("vermem_portfolio_races_total", tally.portfolio_races);
  expect_series("vermem_portfolio_escalations_total",
                tally.portfolio_escalations);
  expect_series("vermem_portfolio_wasted_states_total",
                tally.wasted_effort.states_visited);
  expect_series("vermem_portfolio_wasted_transitions_total",
                tally.wasted_effort.transitions);
}

TEST_F(ObsTest, SpansAcrossPoolThreadsCarryDistinctTids) {
  set_tracing_enabled(true);
  reset_trace();
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int t = 0; t < 16; ++t)
      done.push_back(pool.submit([] { Span span("obs.test.pooled"); }));
    for (auto& f : done) f.get();
  }
  set_tracing_enabled(false);
  // 16 explicit spans; pool.task wrapper spans may add more. Nothing may
  // be lost below the per-thread cap.
  EXPECT_GE(trace_event_count(), 16u);
  EXPECT_EQ(trace_dropped_count(), 0u);
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  std::size_t spans = 0;
  for (std::size_t at = text.find("obs.test.pooled"); at != std::string::npos;
       at = text.find("obs.test.pooled", at + 1))
    ++spans;
  EXPECT_EQ(spans, 16u);
}

TEST_F(ObsTest, DisabledSpansCollectNothing) {
  set_tracing_enabled(false);
  reset_trace();
  {
    Span span("obs.test.never");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

// ---- structured logging --------------------------------------------------

/// Restores the process log level and clears the ring around each test.
class LogTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    level_was_ = log_level();
    set_log_level(LogLevel::kDebug);
    reset_log();
  }
  void TearDown() override {
    reset_log();
    set_log_level(level_was_);
    ObsTest::TearDown();
  }

 private:
  LogLevel level_was_ = LogLevel::kWarn;
};

TEST_F(LogTest, LevelGateRefusesBelowProcessLevel) {
  const LogSite site = log_site("obs.test.level");
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(site.should(LogLevel::kWarn));
  EXPECT_FALSE(site.should(LogLevel::kInfo));
  EXPECT_FALSE(site.should(LogLevel::kDebug));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(site.should(LogLevel::kWarn));
  // Level-gated refusals are policy, not loss: nothing is "suppressed".
  EXPECT_EQ(log_suppressed_count(), 0u);
}

TEST_F(LogTest, TokenBucketAdmitsBurstThenSuppresses) {
  // interval 20 ms, tau = 4 intervals: from a full bucket exactly 4
  // back-to-back emissions pass, the rest are refused and counted.
  const LogSite site = log_site("obs.test.burst", 50.0, 4.0);
  int accepted = 0;
  for (std::uint64_t i = 0; i < 10; ++i)
    if (site.should(LogLevel::kWarn)) {
      ++accepted;
      LogLine(site, LogLevel::kWarn, "burst event").field("i", i);
    }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(log_suppressed_count(), 6u);
  // After a few refill intervals the site admits again, and that frame
  // reports how many emissions the bucket refused in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(site.should(LogLevel::kWarn));
  { LogLine line(site, LogLevel::kWarn, "after refill"); }
  std::ostringstream out;
  write_log_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"msg\":\"after refill\",\"suppressed\":6"),
            std::string::npos)
      << text;
  EXPECT_EQ(log_event_count(), 5u);
  EXPECT_EQ(log_dropped_count(), 0u);
}

TEST_F(LogTest, JsonlSchemaCarriesNumericAndStringFields) {
  const LogSite site = log_site("obs.test.schema");
  ASSERT_TRUE(site.should(LogLevel::kInfo));
  LogLine(site, LogLevel::kInfo, "schema check")
      .field("count", std::uint64_t{7})
      .field("tag", std::string_view("with \"quotes\""));
  std::ostringstream out;
  write_log_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(text.find("\"site\":\"obs.test.schema\""), std::string::npos);
  EXPECT_NE(text.find("\"msg\":\"schema check\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":7"), std::string::npos);
  EXPECT_NE(text.find("\"tag\":\"with \\\"quotes\\\"\""), std::string::npos);
}

TEST_F(LogTest, ConcurrentLoggingRetainsExactTotals) {
  // Below the ring cap every concurrently committed frame must be
  // retained: zero drops, zero suppression (unlimited site). Run under
  // TSan in CI.
  const LogSite site = log_site("obs.test.stress", 0.0, 0.0);
  constexpr std::size_t kTasks = 8;
  constexpr std::uint64_t kPerTask = 256;
  static_assert(kTasks * kPerTask < kLogRingEvents);
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> done;
    done.reserve(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t)
      done.push_back(pool.submit([&site] {
        for (std::uint64_t i = 0; i < kPerTask; ++i)
          if (site.should(LogLevel::kInfo))
            LogLine(site, LogLevel::kInfo, "stress").field("i", i);
      }));
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(log_event_count(), kTasks * kPerTask);
  EXPECT_EQ(log_dropped_count(), 0u);
  EXPECT_EQ(log_suppressed_count(), 0u);
}

TEST_F(LogTest, RingOverwritesOldestAndCountsDrops) {
  Registry::instance().reset();
  const LogSite site = log_site("obs.test.overflow", 0.0, 0.0);
  for (std::size_t i = 0; i < kLogRingEvents + 10; ++i)
    LogLine(site, LogLevel::kDebug, "overflow");
  EXPECT_EQ(log_event_count(), kLogRingEvents);
  EXPECT_EQ(log_dropped_count(), 10u);
  EXPECT_EQ(counter_value(snapshot_metrics(),
                          "vermem_obs_dropped_total{kind=\"log\"}"),
            10u);
}

// ---- flight recorder -----------------------------------------------------

/// Restores the recorder switch and policy; clears retained records.
class FlightTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    flight_was_ = flight_enabled();
    policy_was_ = flight_policy();
    set_flight_enabled(true);
    reset_flight();
  }
  void TearDown() override {
    reset_flight();
    set_flight_policy(policy_was_);
    set_flight_enabled(flight_was_);
    ObsTest::TearDown();
  }

 private:
  bool flight_was_ = false;
  FlightPolicy policy_was_;
};

TEST_F(FlightTest, FastCoherentRequestIsNotRetained) {
  FlightPolicy policy;
  policy.latency_threshold_nanos = 1'000'000'000;  // 1 s: nothing is slow
  set_flight_policy(policy);
  FlightScope scope("coherence", "fast");
  ASSERT_TRUE(scope.active());
  FlightScope::Summary summary;
  summary.verdict = "coherent";
  summary.latency_nanos = 1000;
  EXPECT_EQ(scope.finish(summary), 0u);
  EXPECT_EQ(flight_retained_count(), 0u);
  EXPECT_EQ(flight_retained_total(), 0u);
}

TEST_F(FlightTest, SlowRequestIsRetainedWithEventsAndSpans) {
  Registry::instance().reset();
  FlightPolicy policy;
  policy.latency_threshold_nanos = 10'000;
  set_flight_policy(policy);
  std::uint64_t id = 0;
  {
    FlightScope scope("coherence", "slow request");
    ASSERT_TRUE(scope.active());
    {
      // Tracing is off: these spans are collected only because the
      // thread is inside an active capture window.
      Span outer("obs.test.flight.outer");
      Span inner("obs.test.flight.inner");
      EXPECT_TRUE(inner.active());
    }
    flight_event(FlightEventKind::kTierEnter, "exact", 42, 7);
    FlightScope::Summary summary;
    summary.verdict = "coherent";
    summary.latency_nanos = 20'000;
    summary.effort.states = 123;
    id = scope.finish(summary);
  }
  ASSERT_NE(id, 0u);
  FlightRecord record;
  ASSERT_TRUE(flight_record_for(id, &record));
  EXPECT_STREQ(record.trigger, "slow");
  EXPECT_STREQ(record.verdict, "coherent");
  EXPECT_STREQ(record.tag, "slow request");
  EXPECT_STREQ(record.kind, "coherence");
  EXPECT_EQ(record.effort.states, 123u);
  EXPECT_EQ(record.dropped_events, 0u);
  EXPECT_EQ(record.dropped_spans, 0u);

  // The event window brackets the request and carries its id.
  ASSERT_GE(record.num_events, 3u);
  EXPECT_EQ(record.events[0].kind, FlightEventKind::kRequestBegin);
  EXPECT_EQ(record.events[record.num_events - 1].kind,
            FlightEventKind::kRequestEnd);
  bool saw_tier = false;
  for (std::uint32_t i = 0; i < record.num_events; ++i) {
    EXPECT_EQ(record.events[i].request_id, id);
    if (record.events[i].kind == FlightEventKind::kTierEnter &&
        record.events[i].a == 42 && record.events[i].b == 7)
      saw_tier = true;
  }
  EXPECT_TRUE(saw_tier);

  // Both spans captured (close order: inner first) with the parent link
  // resolvable inside the record.
  ASSERT_EQ(record.num_spans, 2u);
  EXPECT_STREQ(record.spans[0].name, "obs.test.flight.inner");
  EXPECT_STREQ(record.spans[1].name, "obs.test.flight.outer");
  EXPECT_EQ(record.spans[0].parent_id, record.spans[1].id);
  EXPECT_EQ(record.spans[1].parent_id, 0u);

  // Nothing was truncated, so nothing may be counted as dropped.
  EXPECT_EQ(counter_value(snapshot_metrics(),
                          "vermem_obs_dropped_total{kind=\"event\"}"),
            0u);
}

TEST_F(FlightTest, VerdictAndCancelTriggersRetain) {
  FlightPolicy policy;
  policy.latency_threshold_nanos = 0;  // disarm the slow trigger
  set_flight_policy(policy);
  std::uint64_t incoherent_id = 0;
  std::uint64_t cancelled_id = 0;
  {
    FlightScope scope("coherence", "bad");
    FlightScope::Summary summary;
    summary.verdict = "incoherent";
    summary.incoherent = true;
    incoherent_id = scope.finish(summary);
  }
  {
    FlightScope scope("stream", "withdrawn");
    flight_event(FlightEventKind::kCancelled, "stream cancelled");
    FlightScope::Summary summary;
    summary.verdict = "unknown";
    summary.unknown = true;
    summary.cancelled = true;
    cancelled_id = scope.finish(summary);
  }
  FlightRecord record;
  ASSERT_TRUE(flight_record_for(incoherent_id, &record));
  EXPECT_STREQ(record.trigger, "incoherent");
  ASSERT_TRUE(flight_record_for(cancelled_id, &record));
  // The cancel outranks the unknown verdict it caused.
  EXPECT_STREQ(record.trigger, "cancelled");
  EXPECT_TRUE(record.cancelled);
  EXPECT_EQ(flight_retained_total(), 2u);
  EXPECT_GT(cancelled_id, incoherent_id);  // ids are process-unique, monotonic
}

TEST_F(FlightTest, DisabledScopeIsInert) {
  set_flight_enabled(false);
  FlightScope scope("coherence", "off");
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(scope.request_id(), 0u);
  FlightScope::Summary summary;
  summary.verdict = "incoherent";
  summary.incoherent = true;
  EXPECT_EQ(scope.finish(summary), 0u);
  EXPECT_EQ(flight_retained_count(), 0u);
}

TEST_F(FlightTest, WriteFlightJsonEmitsPolicyAndRecords) {
  FlightPolicy policy;
  policy.latency_threshold_nanos = 0;
  set_flight_policy(policy);
  {
    FlightScope scope("vscc", "undecided");
    FlightScope::Summary summary;
    summary.verdict = "unknown";
    summary.unknown = true;
    ASSERT_NE(scope.finish(summary), 0u);
  }
  std::ostringstream out;
  write_flight_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"policy\":{\"latency_threshold_nanos\":0"),
            std::string::npos);
  EXPECT_NE(text.find("\"retained_total\":1"), std::string::npos);
  EXPECT_NE(text.find("\"trigger\":\"unknown\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"vscc\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"request_begin\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"request_end\""), std::string::npos);
}

/// True when `text` holds a control byte other than the exporters' own
/// line breaks between records.
bool has_raw_control_byte(const std::string& text) {
  return std::any_of(text.begin(), text.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20 && c != '\n';
  });
}

TEST_F(FlightTest, ExportersEscapeControlCharacters) {
  // A tab, a newline and a quote in a flight tag, a log string field and
  // a span string attribute: every exporter must print them escaped, so
  // each output stays valid JSON.
  static constexpr const char* kNasty = "tab\there\nquote\"end";
  static constexpr std::string_view kEscaped = "tab\\there\\nquote\\\"end";
  const LogLevel level_was = log_level();
  set_log_level(LogLevel::kDebug);
  reset_log();
  set_tracing_enabled(true);
  reset_trace();
  {
    FlightScope scope("coherence", kNasty);
    Span span("obs.test.escape");
    span.attr("note", kNasty);
    const LogSite site = log_site("obs.test.escape");
    ASSERT_TRUE(site.should(LogLevel::kInfo));
    LogLine(site, LogLevel::kInfo, "escape check")
        .field("tag", std::string_view(kNasty));
    FlightScope::Summary summary;
    summary.verdict = "incoherent";
    summary.incoherent = true;
    ASSERT_NE(scope.finish(summary), 0u);
  }
  set_tracing_enabled(false);

  std::ostringstream flight;
  write_flight_json(flight);
  std::ostringstream log;
  write_log_jsonl(log);
  std::ostringstream trace;
  write_chrome_trace(trace);
  reset_log();
  set_log_level(level_was);
  reset_trace();

  for (const auto& [name, text] :
       {std::pair<const char*, std::string>{"flight", flight.str()},
        {"log", log.str()},
        {"trace", trace.str()}}) {
    EXPECT_NE(text.find(kEscaped), std::string::npos) << name << ": " << text;
    EXPECT_FALSE(has_raw_control_byte(text)) << name << ": " << text;
    EXPECT_EQ(text.find("here\nquote"), std::string::npos) << name;
  }
}

TEST_F(FlightTest, ConcurrentScopesRetainEveryTriggeredRequest) {
  // Per-thread rings: concurrent captures must not interfere and must
  // lose nothing (run under TSan in CI).
  Registry::instance().reset();
  FlightPolicy policy;
  policy.latency_threshold_nanos = 1;  // everything is "slow"
  set_flight_policy(policy);
  constexpr std::size_t kTasks = 16;
  std::vector<std::uint64_t> ids;
  {
    ThreadPool pool(8);
    std::vector<std::future<std::uint64_t>> done;
    done.reserve(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t)
      done.push_back(pool.submit([t] {
        FlightScope scope("coherence", "stress");
        flight_event(FlightEventKind::kTierEnter, "exact", t);
        FlightScope::Summary summary;
        summary.verdict = "coherent";
        summary.latency_nanos = 100;
        return scope.finish(summary);
      }));
    for (auto& f : done) ids.push_back(f.get());
  }
  for (const std::uint64_t id : ids) EXPECT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(flight_retained_total(), kTasks);
  EXPECT_EQ(flight_retained_count(), kTasks);
  EXPECT_EQ(counter_value(snapshot_metrics(),
                          "vermem_obs_dropped_total{kind=\"event\"}"),
            0u);
}

#if defined(__unix__) || defined(__APPLE__)

TEST(FlightCrashDump, AbortWritesParsableBlackBox) {
#if defined(VERMEM_TEST_TSAN)
  GTEST_SKIP() << "fork + abort is not reliable under TSan";
#else
  const std::string path = ::testing::TempDir() + "obs_flight_crash.json";
  std::remove(path.c_str());
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: arm the black box, record some context, then die the way a
    // real crash would. _exit on any unexpected success path.
    set_flight_enabled(true);
    install_crash_handler(path.c_str());
    FlightScope scope("coherence", "crashing request");
    flight_event(FlightEventKind::kTierEnter, "exact", 1, 2);
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler wrote no dump at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"crash\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"signal\":" + std::to_string(SIGABRT)),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"tier_enter\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\":{"), std::string::npos);
  std::remove(path.c_str());
#endif
}

#endif  // __unix__ || __APPLE__

// ---- SLO tracker ---------------------------------------------------------

TEST(SloTracker, ErrorBudgetBurnsWithErrorsAndBreaches) {
  SloOptions options;
  options.objective = 0.9;  // budget = 10% of traffic
  options.latency_slo_nanos = 1'000'000;
  SloTracker tracker(options);
  for (int i = 0; i < 98; ++i)
    tracker.record(RequestKind::kCoherence, 1000, false, 0);
  tracker.record(RequestKind::kCoherence, 1000, true, 0);       // error
  tracker.record(RequestKind::kCoherence, 2'000'000, false, 0);  // breach
  const SloSnapshot snapshot = tracker.snapshot();
  const KindSlo& kind =
      snapshot.kinds[static_cast<std::size_t>(RequestKind::kCoherence)];
  EXPECT_EQ(kind.total, 100u);
  EXPECT_EQ(kind.errors, 1u);
  EXPECT_EQ(kind.breaches, 1u);
  // budget = 10 requests, burned = 2: 80% remaining.
  EXPECT_NEAR(kind.error_budget_remaining, 0.8, 1e-9);
  EXPECT_GT(kind.p99_nanos, kind.p50_nanos);
  // Untouched kinds stay at full budget.
  const KindSlo& idle =
      snapshot.kinds[static_cast<std::size_t>(RequestKind::kStream)];
  EXPECT_EQ(idle.total, 0u);
  EXPECT_DOUBLE_EQ(idle.error_budget_remaining, 1.0);
}

TEST(SloTracker, ExemplarLinksLatencyBucketToFlightRecord) {
  SloTracker tracker;
  tracker.record(RequestKind::kVscc, 700, false, 0);
  tracker.record(RequestKind::kVscc, 900, false, 41);  // bucket [512,1024)
  const SloSnapshot snapshot = tracker.snapshot();
  const KindSlo& kind =
      snapshot.kinds[static_cast<std::size_t>(RequestKind::kVscc)];
  EXPECT_EQ(kind.exemplar_id[detail::bucket_of(900)], 41u);
  EXPECT_EQ(kind.exemplar_nanos[detail::bucket_of(900)], 900u);
  const std::string text = snapshot.to_prometheus();
  EXPECT_NE(text.find("# {flight_id=\"41\"} 900"), std::string::npos) << text;
  EXPECT_NE(text.find("vermem_slo_error_budget_remaining{kind=\"vscc\"}"),
            std::string::npos);
}

TEST(SloTracker, ResetClearsWindowsAndExemplars) {
  SloTracker tracker;
  tracker.record(RequestKind::kStream, 500, true, 9);
  tracker.reset();
  const SloSnapshot snapshot = tracker.snapshot();
  const KindSlo& kind =
      snapshot.kinds[static_cast<std::size_t>(RequestKind::kStream)];
  EXPECT_EQ(kind.total, 0u);
  EXPECT_EQ(kind.exemplar_id[detail::bucket_of(500)], 0u);
  EXPECT_DOUBLE_EQ(kind.error_budget_remaining, 1.0);
}

}  // namespace
}  // namespace vermem::obs
