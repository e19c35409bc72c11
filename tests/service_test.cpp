// Tests for the persistent verification service and its parts: the
// ThreadPool, the stable trace fingerprint, the LRU result cache, and
// VerificationService end-to-end (verdicts, caching, deadlines,
// cancellation, shutdown). The *Stress tests are the ThreadSanitizer
// targets: they race submit/cancel/shutdown and deadline expiry against
// completion, and must stay TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "certify/check.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "reductions/sat_to_vscc.hpp"
#include "sat/gen.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/address_index.hpp"
#include "trace/binary_io.hpp"
#include "trace/fingerprint.hpp"
#include "trace/text_io.hpp"
#include "workload/random.hpp"

namespace {

using namespace vermem;
using service::CheckMode;
using service::SolverChoice;
using service::VerificationRequest;
using service::VerificationResponse;
using service::VerificationService;

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

Execution exec_from(std::string_view text) {
  ParseResult parsed = parse_execution(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return std::move(parsed.execution);
}

constexpr std::string_view kCoherentTrace =
    "init 0 0\ninit 1 0\n"
    "P: W(0,1) R(1,0) W(1,1) R(0,1)\n"
    "P: R(0,0) W(0,2) R(0,2) R(1,1)\n";

constexpr std::string_view kFaultyTrace =
    "init 0 0\n"
    "P: W(0,1) W(0,2)\n"
    "P: R(0,2) R(0,1)\n";

/// Reduction-generated adversarial instance: coherence of this trace
/// decides an UNSAT pigeonhole formula, so the exact checker must
/// exhaust an exponential search — ideal for deadline/cancel tests.
Execution adversarial_trace() {
  return reductions::sat_to_vmc(sat::pigeonhole(5)).instance.execution;
}

VerificationRequest coherence_request(Execution exec) {
  VerificationRequest request;
  request.execution = std::move(exec);
  request.mode = CheckMode::kCoherence;
  return request;
}

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 256; ++i)
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.shutdown();
    EXPECT_EQ(ran.load(), 256);
  }
}

TEST(ThreadPool, PostAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.post([] {}), std::runtime_error);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ConcurrentShutdownIsSafe) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i)
    pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t)
    closers.emplace_back([&pool] { pool.shutdown(); });
  for (auto& closer : closers) closer.join();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolStress, PostersRaceShutdown) {
  ThreadPool pool(3);
  std::atomic<int> accepted{0}, rejected{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        try {
          pool.post([] {});
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pool.shutdown();
  for (auto& poster : posters) poster.join();
  EXPECT_EQ(accepted.load() + rejected.load(), 800);
}

// --- Trace fingerprint ---------------------------------------------------

TEST(Fingerprint, StableAcrossReparses) {
  const Execution a = exec_from(kCoherentTrace);
  const Execution b = exec_from(kCoherentTrace);
  EXPECT_EQ(fingerprint_execution(a), fingerprint_execution(b));
}

TEST(Fingerprint, SensitiveToValuesAndStructure) {
  const auto base = fingerprint_execution(exec_from(kCoherentTrace));
  EXPECT_NE(base, fingerprint_execution(exec_from(kFaultyTrace)));
  // One changed data value flips the hash.
  const Execution tweaked = exec_from(
      "init 0 0\ninit 1 0\n"
      "P: W(0,1) R(1,0) W(1,1) R(0,1)\n"
      "P: R(0,0) W(0,3) R(0,3) R(1,1)\n");
  EXPECT_NE(base, fingerprint_execution(tweaked));
}

TEST(Fingerprint, EmptyWriteOrderMatchesAbsent) {
  const Execution exec = exec_from(kCoherentTrace);
  const std::unordered_map<Addr, std::vector<OpRef>> empty;
  EXPECT_EQ(fingerprint_execution(exec), fingerprint_execution(exec, empty));
}

TEST(Fingerprint, WriteOrdersFold) {
  const Execution exec = exec_from(kCoherentTrace);
  std::unordered_map<Addr, std::vector<OpRef>> ab{{0, {{0, 0}, {1, 1}}}};
  std::unordered_map<Addr, std::vector<OpRef>> ba{{0, {{1, 1}, {0, 0}}}};
  EXPECT_NE(fingerprint_execution(exec, ab), fingerprint_execution(exec, ba));
  EXPECT_NE(fingerprint_execution(exec, ab), fingerprint_execution(exec));
}

// --- Result cache --------------------------------------------------------

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  service::ResultCache cache(2);
  cache.insert(1, {vmc::Verdict::kCoherent, "one", 1});
  cache.insert(2, {vmc::Verdict::kCoherent, "two", 1});
  ASSERT_TRUE(cache.lookup(1).has_value());  // refresh 1: now 2 is LRU
  cache.insert(3, {vmc::Verdict::kIncoherent, "three", 1});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  ASSERT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.lookup(3)->verdict, vmc::Verdict::kIncoherent);
}

TEST(ResultCache, InsertRefreshesExistingKey) {
  service::ResultCache cache(2);
  cache.insert(1, {vmc::Verdict::kCoherent, "old", 1});
  cache.insert(1, {vmc::Verdict::kIncoherent, "new", 2});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(1)->reason, "new");
}

TEST(ResultCache, ZeroCapacityDisables) {
  service::ResultCache cache(0);
  cache.insert(1, {vmc::Verdict::kCoherent, "", 1});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
}

// --- VerificationService -------------------------------------------------

TEST(Service, VerifiesCoherentAndFaultyTraces) {
  service::ServiceOptions options;
  options.workers = 2;
  VerificationService svc(options);
  auto good = svc.submit(coherence_request(exec_from(kCoherentTrace)));
  auto bad = svc.submit(coherence_request(exec_from(kFaultyTrace)));
  const VerificationResponse good_response = good.response.get();
  const VerificationResponse bad_response = bad.response.get();
  EXPECT_EQ(good_response.verdict, vmc::Verdict::kCoherent);
  EXPECT_FALSE(good_response.cache_hit);
  EXPECT_EQ(bad_response.verdict, vmc::Verdict::kIncoherent);
  EXPECT_FALSE(bad_response.reason.empty());
  EXPECT_NE(good_response.fingerprint, bad_response.fingerprint);
}

TEST(Service, RepeatedTraceHitsCache) {
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);
  const VerificationResponse first =
      svc.submit(coherence_request(exec_from(kFaultyTrace))).response.get();
  const VerificationResponse second =
      svc.submit(coherence_request(exec_from(kFaultyTrace))).response.get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, vmc::Verdict::kIncoherent);
  EXPECT_EQ(second.reason, first.reason);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  const service::ServiceStats stats = svc.stats();
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Service, BypassCacheSkipsLookupAndFingerprint) {
  VerificationService svc;
  VerificationRequest request = coherence_request(exec_from(kCoherentTrace));
  request.bypass_cache = true;
  const VerificationResponse a = svc.submit(std::move(request)).response.get();
  VerificationRequest again = coherence_request(exec_from(kCoherentTrace));
  again.bypass_cache = true;
  const VerificationResponse b = svc.submit(std::move(again)).response.get();
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(a.fingerprint, 0u);  // uncacheable requests skip hashing
  EXPECT_EQ(svc.stats().cache_entries, 0u);
}

TEST(Service, CertifyAttachesCheckableCertificates) {
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);

  // Coherence mode: one certificate per address, each re-validated by the
  // independent checker against the raw trace. With the default
  // drop_witnesses the report's schedules are stripped, but the
  // certificates keep theirs.
  VerificationRequest request = coherence_request(exec_from(kFaultyTrace));
  request.certify = true;
  const VerificationResponse bad = svc.submit(std::move(request)).response.get();
  const Execution faulty = exec_from(kFaultyTrace);
  EXPECT_EQ(bad.verdict, vmc::Verdict::kIncoherent);
  ASSERT_FALSE(bad.certificates.empty());
  for (const auto& cert : bad.certificates) {
    const certify::CheckOutcome outcome = certify::check(faulty, cert);
    EXPECT_TRUE(outcome.ok) << outcome.violation;
  }
  for (const auto& address : bad.coherence.addresses)
    EXPECT_TRUE(address.result.witness.empty());

  // Vscc mode appends an execution-scope SC certificate.
  VerificationRequest vscc = coherence_request(exec_from(kCoherentTrace));
  vscc.mode = CheckMode::kVscc;
  vscc.certify = true;
  const VerificationResponse sc = svc.submit(std::move(vscc)).response.get();
  const Execution coherent = exec_from(kCoherentTrace);
  ASSERT_FALSE(sc.certificates.empty());
  EXPECT_EQ(sc.certificates.back().scope, certify::Scope::kExecution);
  for (const auto& cert : sc.certificates) {
    const certify::CheckOutcome outcome = certify::check(coherent, cert);
    EXPECT_TRUE(outcome.ok) << outcome.violation;
  }

  // Certified requests bypass the cache entirely.
  EXPECT_EQ(svc.stats().cache_entries, 0u);
}

TEST(Service, DeadlineReturnsUnknownWithoutStallingOthers) {
  service::ServiceOptions options;
  options.workers = 2;
  VerificationService svc(options);

  VerificationRequest hard = coherence_request(adversarial_trace());
  hard.deadline = std::chrono::milliseconds(50);
  auto hard_ticket = svc.submit(std::move(hard));

  std::vector<VerificationService::Ticket> easy;
  for (int i = 0; i < 8; ++i) {
    VerificationRequest request = coherence_request(exec_from(kCoherentTrace));
    request.bypass_cache = true;  // make each of the 8 do real work
    easy.push_back(svc.submit(std::move(request)));
  }
  for (auto& ticket : easy)
    EXPECT_EQ(ticket.response.get().verdict, vmc::Verdict::kCoherent);

  const VerificationResponse hard_response = hard_ticket.response.get();
  EXPECT_EQ(hard_response.verdict, vmc::Verdict::kUnknown);
  EXPECT_TRUE(hard_response.timed_out);
  EXPECT_FALSE(hard_response.reason.empty());
}

TEST(Service, QueueTimeCoversPoolWait) {
  // One worker: the small request waits in the pool's queue for the
  // whole run of the hard one, and its queue_micros must show that wait.
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);

  VerificationRequest hard = coherence_request(adversarial_trace());
  hard.deadline = std::chrono::milliseconds(50);
  auto hard_ticket = svc.submit(std::move(hard));
  VerificationRequest small = coherence_request(exec_from(kCoherentTrace));
  small.bypass_cache = true;
  auto small_ticket = svc.submit(std::move(small));

  const VerificationResponse hard_response = hard_ticket.response.get();
  const VerificationResponse small_response = small_ticket.response.get();
  ASSERT_TRUE(hard_response.timed_out);
  EXPECT_EQ(small_response.verdict, vmc::Verdict::kCoherent);
  EXPECT_GE(small_response.queue_micros, 0.8 * hard_response.run_micros)
      << "queue " << small_response.queue_micros << " us, run "
      << hard_response.run_micros << " us";
}

TEST(Service, CancelResolvesInFlightRequest) {
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);
  auto ticket = svc.submit(coherence_request(adversarial_trace()));
  // Let it reach the exact search, then withdraw it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ticket.cancel();
  const VerificationResponse response = ticket.response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  EXPECT_TRUE(response.cancelled);
}

TEST(Service, ShutdownResolvesEveryFuture) {
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);
  std::vector<VerificationService::Ticket> tickets;
  tickets.push_back(svc.submit(coherence_request(adversarial_trace())));
  for (int i = 0; i < 4; ++i) {
    VerificationRequest request = coherence_request(exec_from(kCoherentTrace));
    request.bypass_cache = true;
    tickets.push_back(svc.submit(std::move(request)));
  }
  svc.shutdown();
  for (auto& ticket : tickets) {
    const VerificationResponse response = ticket.response.get();
    if (response.verdict == vmc::Verdict::kUnknown) {
      EXPECT_TRUE(response.cancelled || response.timed_out);
    }
  }
  // Post-shutdown submissions resolve immediately as cancelled.
  const VerificationResponse late =
      svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  EXPECT_TRUE(late.cancelled);
}

TEST(Service, WriteOrderRequestsUsePolynomialPath) {
  VerificationService svc;
  VerificationRequest request = coherence_request(exec_from(
      "init 0 0\n"
      "P: W(0,1) R(0,2)\n"
      "P: W(0,2)\n"));
  vmc::WriteOrderMap orders;
  orders[0] = {{0, 0}, {1, 0}};  // W(0,1) then W(0,2)
  request.write_orders = orders;
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);

  // The reversed serialization makes P0's R(0,2) unservable.
  VerificationRequest reversed = coherence_request(exec_from(
      "init 0 0\n"
      "P: W(0,1) R(0,2)\n"
      "P: W(0,2)\n"));
  vmc::WriteOrderMap reversed_orders;
  reversed_orders[0] = {{1, 0}, {0, 0}};
  reversed.write_orders = reversed_orders;
  const VerificationResponse reversed_response =
      svc.submit(std::move(reversed)).response.get();
  EXPECT_EQ(reversed_response.verdict, vmc::Verdict::kIncoherent);
}

TEST(Service, AnalyzeFlagEmbedsReportAndStatsCountRouting) {
  VerificationService svc;
  // Three writes of value 1 (W001) and an adjacent R;W pair (W003).
  VerificationRequest request = coherence_request(exec_from(
      "init 0 0\n"
      "P: W(0,1) R(0,1) W(0,1) W(0,1)\n"));
  request.analyze = true;
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);
  ASSERT_TRUE(response.analyzed);
  ASSERT_EQ(response.analysis.addresses.size(), 1u);
  EXPECT_TRUE(response.analysis.has_warnings());
  // Analyze responses are not cached: a repeat is a fresh verification.
  VerificationRequest again = coherence_request(exec_from(
      "init 0 0\n"
      "P: W(0,1) R(0,1) W(0,1) W(0,1)\n"));
  again.analyze = true;
  EXPECT_FALSE(svc.submit(std::move(again)).response.get().cache_hit);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.routing.poly_routed + stats.routing.exact_routed, 2u);
  EXPECT_GT(stats.lint_warnings, 0u);
  std::uint64_t classified = 0;
  for (const std::uint64_t count : stats.routing.fragment_counts) classified += count;
  EXPECT_EQ(classified, 2u);
}

TEST(Service, ConsistencyModeChecksModels) {
  VerificationService svc;
  // Dekker/SB: coherent per address, but not sequentially consistent.
  constexpr std::string_view kStoreBuffer =
      "init 0 0\ninit 1 0\n"
      "P: W(0,1) R(1,0)\n"
      "P: W(1,1) R(0,0)\n";
  VerificationRequest sc = coherence_request(exec_from(kStoreBuffer));
  sc.mode = CheckMode::kConsistency;
  sc.model = models::Model::kSc;
  EXPECT_EQ(svc.submit(std::move(sc)).response.get().verdict,
            vmc::Verdict::kIncoherent);

  VerificationRequest tso = coherence_request(exec_from(kStoreBuffer));
  tso.mode = CheckMode::kConsistency;
  tso.model = models::Model::kTso;
  EXPECT_EQ(svc.submit(std::move(tso)).response.get().verdict,
            vmc::Verdict::kCoherent);
}

TEST(Service, ConsistencyModeHonorsTransitionBudget) {
  // The request's budget reaches model mode: a TSO search capped at one
  // transition stops on the budget, not on a deadline or cancellation,
  // while the same trace unbudgeted is admissible (an SC trace).
  Xoshiro256ss rng(13);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 8;
  const Execution exec = workload::generate_sc(params, rng).execution;
  VerificationService svc;

  VerificationRequest unbudgeted = coherence_request(exec);
  unbudgeted.mode = CheckMode::kConsistency;
  unbudgeted.model = models::Model::kTso;
  unbudgeted.bypass_cache = true;
  const VerificationResponse decided =
      svc.submit(std::move(unbudgeted)).response.get();
  ASSERT_EQ(decided.verdict, vmc::Verdict::kCoherent);
  ASSERT_GT(decided.effort.transitions, 1u);

  VerificationRequest request = coherence_request(exec);
  request.mode = CheckMode::kConsistency;
  request.model = models::Model::kTso;
  request.bypass_cache = true;
  request.budget.max_transitions = 1;
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  EXPECT_FALSE(response.timed_out);
  EXPECT_FALSE(response.cancelled);
}

TEST(Service, VsccModeReportsSequentialConsistency) {
  VerificationService svc;
  VerificationRequest request = coherence_request(exec_from(kCoherentTrace));
  request.mode = CheckMode::kVscc;
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);
  EXPECT_FALSE(response.coherence.addresses.empty());
}

TEST(Service, VsccRequestsReportRouting) {
  VerificationService svc;
  VerificationRequest request = coherence_request(exec_from(kFaultyTrace));
  request.mode = CheckMode::kVscc;
  EXPECT_EQ(svc.submit(std::move(request)).response.get().verdict,
            vmc::Verdict::kIncoherent);
  const service::ServiceStats stats = svc.stats();
  EXPECT_GE(stats.routing.poly_routed + stats.routing.exact_routed, 1u);
}

/// traces/lint_findings.txt without its "wo" lines. Saturation leaves
/// address 3 (W(3,1) W(3,4) and W(3,2) W(3,4) in two processes) partial,
/// so it reaches the exact tier.
constexpr std::string_view kLintFindings =
    "init 0 0\ninit 1 0\ninit 2 0\ninit 3 0\n"
    "P: W(0,7) R(0,7) W(0,7) W(0,9) W(0,7)\n"
    "P: R(1,0) W(1,5) R(0,7)\n"
    "P: W(2,1) R(2,2) W(3,1) W(3,4)\n"
    "P: W(2,2) W(3,2) W(3,4)\n";

TEST(Service, VsccHonorsWriteOrderLog) {
  // traces/lint_findings.txt: a coherent execution whose "wo 2" log
  // orders P3's W(2,2) before P2's W(2,1), which P2's R(2,2) after its
  // own write refutes (order-read-window at address 2). Under that log
  // the execution is incoherent, so it is not SC either: a kVscc request
  // must say so, with the kCoherence request's evidence, whatever the
  // worker count and however many copies run at once.
  const WriteOrderParseResult log = parse_write_orders("wo 1 1:0\nwo 2 3:0 2:0\n");
  ASSERT_TRUE(log.ok()) << log.error;
  const auto request_for = [&](CheckMode mode) {
    VerificationRequest request = coherence_request(exec_from(kLintFindings));
    request.mode = mode;
    request.write_orders.emplace(log.orders.begin(), log.orders.end());
    request.bypass_cache = true;
    return request;
  };
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    service::ServiceOptions options;
    options.workers = workers;
    VerificationService svc(options);
    const VerificationResponse coherence =
        svc.submit(request_for(CheckMode::kCoherence)).response.get();
    ASSERT_EQ(coherence.verdict, vmc::Verdict::kIncoherent);
    const vmc::AddressReport* expected = coherence.coherence.first_violation();
    ASSERT_NE(expected, nullptr);
    ASSERT_NE(expected->result.incoherence(), nullptr);
    EXPECT_EQ(expected->addr, 2u);
    EXPECT_EQ(expected->result.incoherence()->kind,
              certify::IncoherenceKind::kOrderReadWindow);

    std::vector<VerificationService::Ticket> tickets;
    for (int i = 0; i < 8; ++i)
      tickets.push_back(svc.submit(request_for(CheckMode::kVscc)));
    for (auto& ticket : tickets) {
      const VerificationResponse vscc = ticket.response.get();
      EXPECT_EQ(vscc.verdict, vmc::Verdict::kIncoherent) << "workers " << workers;
      const vmc::AddressReport* got = vscc.coherence.first_violation();
      ASSERT_NE(got, nullptr) << "workers " << workers;
      ASSERT_NE(got->result.incoherence(), nullptr);
      EXPECT_EQ(got->addr, expected->addr);
      EXPECT_EQ(got->result.incoherence()->kind,
                expected->result.incoherence()->kind);
      EXPECT_EQ(got->result.incoherence()->ops,
                expected->result.incoherence()->ops);
      EXPECT_EQ(got->result.incoherence()->write_order,
                expected->result.incoherence()->write_order);
    }
  }
}

TEST(Service, VsccHonorsSolverChoice) {
  // --solver applies to kVscc's routed coherence stage as it does to
  // kCoherence: a forced CDCL engine decides the exact-tier address,
  // reports its win, and leaves the verdict of the default cascade.
  const auto request_for = [&](CheckMode mode, SolverChoice solver) {
    VerificationRequest request = coherence_request(exec_from(kLintFindings));
    request.mode = mode;
    request.solver = solver;
    request.bypass_cache = true;
    return request;
  };
  constexpr auto kCdclIndex = static_cast<std::size_t>(analysis::Engine::kCdcl);
  VerificationService svc;
  const VerificationResponse coherence =
      svc.submit(request_for(CheckMode::kCoherence, SolverChoice::kCdcl))
          .response.get();
  ASSERT_GT(coherence.portfolio_races, 0u) << "no exact-tier address";

  const VerificationResponse automatic =
      svc.submit(request_for(CheckMode::kVscc, SolverChoice::kAuto))
          .response.get();
  EXPECT_EQ(automatic.portfolio_races, 0u);
  const VerificationResponse cdcl =
      svc.submit(request_for(CheckMode::kVscc, SolverChoice::kCdcl))
          .response.get();
  EXPECT_EQ(cdcl.verdict, automatic.verdict);
  EXPECT_EQ(cdcl.portfolio_races, coherence.portfolio_races);
  EXPECT_EQ(cdcl.engine_wins[kCdclIndex], cdcl.portfolio_races);
  ASSERT_EQ(cdcl.coherence.addresses.size(),
            automatic.coherence.addresses.size());
  for (std::size_t i = 0; i < cdcl.coherence.addresses.size(); ++i)
    EXPECT_EQ(cdcl.coherence.addresses[i].result.verdict,
              automatic.coherence.addresses[i].result.verdict)
        << "@a" << cdcl.coherence.addresses[i].addr;
}

TEST(Service, VsccDeadlineHoldsOnReductionTrace) {
  // Figure 6.2: random 3-SAT at clause ratio 4.26 (n = 10, seed 1)
  // reduced to VSCC. Every address is coherent, so only the whole-
  // execution SC search can answer, and it is exponential; the request's
  // 500 ms deadline must stop it and say so.
  Xoshiro256ss rng(1);
  const sat::Cnf cnf = sat::random_ksat(10, 42, 3, rng);
  VerificationRequest request =
      coherence_request(reductions::sat_to_vscc(cnf).execution);
  request.mode = CheckMode::kVscc;
  request.deadline = std::chrono::milliseconds(500);
  service::ServiceOptions options;
  options.workers = 1;
  VerificationService svc(options);
  const auto start = std::chrono::steady_clock::now();
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  EXPECT_TRUE(response.timed_out);
  EXPECT_NE(response.reason.find("deadline"), std::string::npos)
      << response.reason;
  // Measured at 0.51 s optimized and 0.56 s under ASan+UBSan Debug; a
  // service that encodes the whole O(n^3) SAT skeleton first takes ~7 s.
  EXPECT_LT(elapsed, std::chrono::seconds(3));

  // A deadline that stops the coherence stage (the Figure 4.1 reduction
  // of an UNSAT formula) is reported as a deadline too, not as a budget.
  VerificationRequest hard = coherence_request(adversarial_trace());
  hard.mode = CheckMode::kVscc;
  hard.deadline = std::chrono::milliseconds(50);
  const VerificationResponse stopped = svc.submit(std::move(hard)).response.get();
  EXPECT_EQ(stopped.verdict, vmc::Verdict::kUnknown);
  EXPECT_TRUE(stopped.timed_out);
  EXPECT_TRUE(stopped.reason.starts_with("deadline: address ")) << stopped.reason;
}

TEST(Service, StatsTrackVerdictsAndLatency) {
  VerificationService svc;
  (void)svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  (void)svc.submit(coherence_request(exec_from(kFaultyTrace))).response.get();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.coherent, 1u);
  EXPECT_EQ(stats.incoherent, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GT(stats.p50_micros, 0.0);
  EXPECT_GE(stats.p99_micros, stats.p50_micros);
  EXPECT_EQ(stats.latency_nanos.count, 2u);
}

TEST(Service, StatsExportPrometheusText) {
  VerificationService svc;
  (void)svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  (void)svc.submit(coherence_request(exec_from(kFaultyTrace))).response.get();
  const std::string text = svc.stats().to_prometheus();
  EXPECT_NE(text.find("# TYPE vermem_service_submitted_total counter\n"
                      "vermem_service_submitted_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("vermem_service_verdicts_total{verdict=\"coherent\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("vermem_service_verdicts_total{verdict=\"incoherent\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE vermem_service_queue_depth gauge"),
            std::string::npos);
  // Responses, their latency and routing are exported once, by the
  // metrics registry.
  EXPECT_EQ(text.find("vermem_service_completed_total"), std::string::npos);
  EXPECT_EQ(text.find("vermem_service_stats_latency_nanos"), std::string::npos);
  EXPECT_EQ(text.find("routed_total"), std::string::npos);
  EXPECT_EQ(text.find("portfolio"), std::string::npos);
}

/// vermem_service_responses_total and the vermem_service_latency_nanos
/// count in the registry, summed over this process's services.
std::pair<std::uint64_t, std::uint64_t> registry_responses() {
  const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
  std::pair<std::uint64_t, std::uint64_t> out{0, 0};
  for (const auto& [name, value] : snapshot.counters)
    if (name == "vermem_service_responses_total") out.first = value;
  for (const obs::HistogramSnapshot& h : snapshot.histograms)
    if (h.name == "vermem_service_latency_nanos") out.second = h.data.count;
  return out;
}

TEST(Service, RegistryCountsEveryResponseOnce) {
  const bool metrics_were_on = obs::enabled();
  obs::set_enabled(true);
  const auto before = registry_responses();
  VerificationService svc;
  (void)svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  (void)svc.submit(coherence_request(exec_from(kFaultyTrace))).response.get();
  std::istringstream in(encode_binary(exec_from(kCoherentTrace)));
  EXPECT_EQ(svc.verify_stream(in).verdict, vmc::Verdict::kCoherent);
  // Two submitted responses and one streamed one, each counted once.
  const auto after = registry_responses();
  EXPECT_EQ(after.first - before.first, 3u);
  EXPECT_EQ(after.second - before.second, 3u);
  // ServiceStats' aggregates keep streamed runs apart.
  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.stats().streamed, 1u);
  obs::set_enabled(metrics_were_on);
}

TEST(Service, StatsBreakOutPerRequestKind) {
  VerificationService svc;
  (void)svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  VerificationRequest vscc = coherence_request(exec_from(kCoherentTrace));
  vscc.mode = CheckMode::kVscc;
  (void)svc.submit(std::move(vscc)).response.get();

  const service::ServiceStats stats = svc.stats();
  const auto& coherence =
      stats.kinds[static_cast<std::size_t>(obs::RequestKind::kCoherence)];
  const auto& vscc_kind =
      stats.kinds[static_cast<std::size_t>(obs::RequestKind::kVscc)];
  EXPECT_EQ(coherence.total, 1u);
  EXPECT_EQ(coherence.latency_nanos.count, 1u);
  EXPECT_GT(coherence.p50_micros, 0.0);
  EXPECT_GE(coherence.p99_micros, coherence.p50_micros);
  EXPECT_EQ(vscc_kind.total, 1u);
  // The aggregate fields keep their meaning: both requests counted.
  EXPECT_EQ(stats.latency_nanos.count, 2u);
  // The SLO tracker saw the same traffic, kind by kind.
  EXPECT_EQ(
      stats.slo.kinds[static_cast<std::size_t>(obs::RequestKind::kCoherence)]
          .total,
      1u);
  EXPECT_EQ(stats.slo.kinds[static_cast<std::size_t>(obs::RequestKind::kVscc)]
                .total,
            1u);

  const std::string text = stats.to_prometheus();
  EXPECT_NE(text.find("vermem_service_kind_latency_nanos_bucket{"
                      "kind=\"coherence\""),
            std::string::npos);
  EXPECT_NE(text.find("vermem_slo_error_budget_remaining{kind=\"coherence\"}"),
            std::string::npos);
}

// --- flight recorder at the service level --------------------------------

/// Enables the process-global flight recorder for one test; restores the
/// previous switch and policy and clears retained records on exit.
class FlightGuard {
 public:
  explicit FlightGuard(const obs::FlightPolicy& policy)
      : was_(obs::flight_enabled()), policy_was_(obs::flight_policy()) {
    obs::reset_flight();
    obs::set_flight_enabled(true);
    obs::set_flight_policy(policy);
  }
  ~FlightGuard() {
    obs::reset_flight();
    obs::set_flight_policy(policy_was_);
    obs::set_flight_enabled(was_);
  }

 private:
  bool was_;
  obs::FlightPolicy policy_was_;
};

TEST(Service, SlowPolicyCapturesRequestWithFlightId) {
  obs::FlightPolicy policy;
  policy.latency_threshold_nanos = 1;  // every request counts as slow
  FlightGuard guard(policy);
  VerificationService svc;
  const VerificationResponse response =
      svc.submit(coherence_request(exec_from(kCoherentTrace))).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);
  ASSERT_NE(response.flight_id, 0u);
  obs::FlightRecord record;
  ASSERT_TRUE(obs::flight_record_for(response.flight_id, &record));
  EXPECT_STREQ(record.trigger, "slow");
  EXPECT_STREQ(record.kind, "coherence");
  EXPECT_STREQ(record.verdict, "coherent");
  EXPECT_GE(record.latency_nanos, 1u);
  // The captured span tree explains where the time went.
  EXPECT_GT(record.num_spans, 0u);
  EXPECT_GE(svc.stats().flight_retained_total, 1u);
}

TEST(Service, BudgetUnknownLeavesRetrievableFlightRecord) {
  obs::FlightPolicy policy;
  policy.latency_threshold_nanos = 0;  // only the verdict triggers armed
  FlightGuard guard(policy);
  VerificationService svc;
  VerificationRequest request = coherence_request(adversarial_trace());
  request.budget.max_states = 1;
  const VerificationResponse response =
      svc.submit(std::move(request)).response.get();
  EXPECT_EQ(response.verdict, vmc::Verdict::kUnknown);
  ASSERT_NE(response.flight_id, 0u);
  obs::FlightRecord record;
  ASSERT_TRUE(obs::flight_record_for(response.flight_id, &record));
  EXPECT_STREQ(record.trigger, "unknown");
  EXPECT_STREQ(record.verdict, "unknown");
  // The record is self-explaining: the router's tier transitions were
  // captured and the solver effort tallies came across.
  bool saw_tier = false;
  for (std::uint32_t i = 0; i < record.num_events; ++i)
    if (record.events[i].kind == obs::FlightEventKind::kTierEnter)
      saw_tier = true;
  EXPECT_TRUE(saw_tier);
  EXPECT_GT(record.effort.states, 0u);
}

TEST(Service, StreamRequestsCarryFlightRecords) {
  obs::FlightPolicy policy;
  policy.latency_threshold_nanos = 1;
  FlightGuard guard(policy);
  VerificationService svc;
  const std::string bytes = encode_binary(exec_from(kCoherentTrace));
  std::istringstream in(bytes);
  service::StreamRequest request;
  request.tag = "stream flight";
  const VerificationResponse response = svc.verify_stream(in, request);
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);
  ASSERT_NE(response.flight_id, 0u);
  obs::FlightRecord record;
  ASSERT_TRUE(obs::flight_record_for(response.flight_id, &record));
  EXPECT_STREQ(record.kind, "stream");
  EXPECT_STREQ(record.tag, "stream flight");
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(
      stats.kinds[static_cast<std::size_t>(obs::RequestKind::kStream)].total,
      1u);
  EXPECT_EQ(
      stats.slo.kinds[static_cast<std::size_t>(obs::RequestKind::kStream)]
          .total,
      1u);

  // A contended trace streamed in complete mode (its header is not
  // ordered) routes addresses through the saturation tier; its retained
  // record carries those tallies.
  Xoshiro256ss rng(29);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 12;
  params.num_addresses = 3;
  params.num_values = 2;
  std::istringstream contended(encode_binary(
      with_unique_final_writers(workload::generate_sc(params, rng).execution)));
  service::StreamRequest complete;
  complete.tag = "stream contended";
  const VerificationResponse routed = svc.verify_stream(contended, complete);
  EXPECT_EQ(routed.verdict, vmc::Verdict::kCoherent);
  ASSERT_NE(routed.flight_id, 0u);
  ASSERT_TRUE(obs::flight_record_for(routed.flight_id, &record));
  EXPECT_GT(record.effort.saturate_ran, 0u);
}

TEST(Service, CompleteModeStreamFoldsSaturationCounts) {
  // Streamed runs fold their routing provenance into the shared
  // counters. Complete mode routes contended addresses through the
  // saturation tier, so its outcomes must land there too, matching the
  // batch router on the same trace.
  Xoshiro256ss rng(29);
  workload::MultiAddressParams params;
  params.num_processes = 4;
  params.ops_per_process = 12;
  params.num_addresses = 3;
  params.num_values = 2;
  const Execution exec =
      with_unique_final_writers(workload::generate_sc(params, rng).execution);
  const AddressIndex index(exec);
  const analysis::RouteTally batch =
      analysis::verify_coherence_routed(index).routing;
  ASSERT_GT(batch.saturate_ran, 0u);

  VerificationService svc;
  std::istringstream in(encode_binary(exec));
  const VerificationResponse response = svc.verify_stream(in);
  EXPECT_EQ(response.verdict, vmc::Verdict::kCoherent);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.streamed, 1u);
  EXPECT_GT(stats.routing.saturate_ran, 0u);
  EXPECT_EQ(stats.routing.saturate_ran, batch.saturate_ran);
  EXPECT_EQ(stats.routing.saturate_decided, batch.saturate_decided);
  EXPECT_EQ(stats.routing.saturate_edges, batch.saturate_edges);
  EXPECT_EQ(stats.routing.poly_routed + stats.routing.exact_routed,
            index.num_addresses());
}

/// The TSan centerpiece: submitters, a canceller, and shutdown all race;
/// deadlines race completion. Every future must still resolve.
TEST(ServiceStress, ConcurrentSubmitCancelShutdown) {
  service::ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 32;
  VerificationService svc(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::mutex tickets_mutex;
  std::vector<VerificationService::Ticket> tickets;
  tickets.reserve(kThreads * kPerThread);
  std::atomic<bool> stop_cancelling{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        VerificationRequest request = coherence_request(
            exec_from((t + i) % 2 == 0 ? kCoherentTrace : kFaultyTrace));
        if (i % 3 == 0) request.bypass_cache = true;
        if (i % 5 == 0) request.deadline = std::chrono::milliseconds(1);
        auto ticket = svc.submit(std::move(request));
        std::lock_guard<std::mutex> lock(tickets_mutex);
        tickets.push_back(std::move(ticket));
      }
    });
  }
  std::thread canceller([&] {
    while (!stop_cancelling.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(tickets_mutex);
        for (std::size_t i = 0; i < tickets.size(); i += 7)
          tickets[i].cancel();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.shutdown();  // races the submitters: late submits resolve cancelled
  for (auto& submitter : submitters) submitter.join();
  stop_cancelling.store(true, std::memory_order_release);
  canceller.join();

  ASSERT_EQ(tickets.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket.response.valid());
    const VerificationResponse response = ticket.response.get();
    if (response.verdict == vmc::Verdict::kUnknown) {
      EXPECT_TRUE(response.cancelled || response.timed_out ||
                  !response.reason.empty());
    }
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
