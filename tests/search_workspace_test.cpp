// Tests for the search engine's per-thread workspace (search/engine.hpp):
// a search's result, its SearchStats arena fields included, must not
// depend on what its thread searched before, on a search running inside
// another on the same thread, or on searches running on other threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "models/checker.hpp"
#include "reductions/sat_to_vmc.hpp"
#include "sat/gen.hpp"
#include "search/engine.hpp"
#include "support/rng.hpp"
#include "vmc/exact.hpp"
#include "vsc/exact.hpp"
#include "workload/random.hpp"

namespace vermem {
namespace {

using vmc::CheckResult;

/// The reduction of a seeded random 3-SAT formula: one address that the
/// frontier search decides in many states.
vmc::VmcInstance reduction_instance(std::uint64_t seed, sat::Var num_vars) {
  Xoshiro256ss rng(seed);
  const auto cnf = sat::random_ksat(num_vars, 4 * num_vars, 3, rng);
  return reductions::sat_to_vmc(cnf).instance;
}

/// Small searches of every policy: VMC on contended single-address
/// traces (one with a must-precede pruner), VSC and TSO/PSO on a
/// multi-address trace.
struct Probes {
  std::vector<vmc::VmcInstance> instances;
  std::vector<Execution> traces;
  vmc::MustPrecede pruner;

  Probes() {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Xoshiro256ss rng(seed);
      workload::SingleAddressParams params;
      params.num_histories = 4;
      params.ops_per_history = 8;
      params.num_values = 2;
      const auto trace = workload::generate_coherent(params, rng);
      instances.push_back({trace.execution, 0});
      if (auto faulty =
              workload::inject_fault(trace, workload::Fault::kStaleRead, rng))
        instances.push_back({std::move(*faulty), 0});

      workload::MultiAddressParams multi;
      multi.num_processes = 3;
      multi.ops_per_process = 5;
      multi.num_addresses = 2;
      multi.num_values = 2;
      traces.push_back(workload::generate_sc(multi, rng).execution);
    }
    // A real ordering: history 1's first operation after history 0's.
    pruner.add_edge({0, 0}, {1, 0});
    std::vector<std::uint32_t> sizes;
    for (const auto& history : instances[0].execution.histories())
      sizes.push_back(static_cast<std::uint32_t>(history.size()));
    pruner.finalize(sizes);
  }

  /// Every probe's result, in a fixed order.
  [[nodiscard]] std::vector<CheckResult> run() const {
    std::vector<CheckResult> out;
    for (const auto& instance : instances) out.push_back(vmc::check_exact(instance));
    vmc::ExactOptions pruned;
    pruned.pruner = &pruner;
    out.push_back(vmc::check_exact(instances[0], pruned));
    for (const Execution& exec : traces) {
      out.push_back(vsc::check_sc_exact(exec));
      out.push_back(models::check_model(exec, models::Model::kTso));
      out.push_back(models::check_model(exec, models::Model::kPso));
    }
    return out;
  }
};

void expect_same(const std::vector<CheckResult>& got,
                 const std::vector<CheckResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verdict, want[i].verdict) << "probe " << i;
    EXPECT_EQ(got[i].witness, want[i].witness) << "probe " << i;
    EXPECT_EQ(got[i].reason(), want[i].reason()) << "probe " << i;
    // Whole-struct equality: the arena fields count too.
    EXPECT_EQ(got[i].stats, want[i].stats) << "probe " << i;
  }
}

template <typename Fn>
auto on_fresh_thread(Fn&& fn) {
  decltype(fn()) out;
  std::thread([&] { out = fn(); }).join();
  return out;
}

TEST(SearchWorkspace, ResultsDoNotDependOnWhatTheThreadSearchedBefore) {
  const Probes probes;
  const auto fresh = on_fresh_thread([&] { return probes.run(); });
  std::uint64_t big_states = 0;
  const auto warmed = on_fresh_thread([&] {
    // Grows the thread's arena and frame stack far past what an idle
    // workspace keeps, so the probes run on trimmed, reused storage.
    const CheckResult big = vmc::check_exact(reduction_instance(3, 4));
    big_states = big.stats.states_visited;
    return probes.run();
  });
  EXPECT_GE(big_states, 100'000u);
  expect_same(warmed, fresh);
  // And the probes agree with themselves run back to back.
  expect_same(on_fresh_thread([&] {
                (void)probes.run();
                return probes.run();
              }),
              fresh);
}

/// A policy that counts to `n` one choice at a time and, in every
/// status() call, runs the probes' searches from inside its own search.
class NestingPolicy {
 public:
  NestingPolicy(const Probes& probes, std::uint32_t n,
                std::vector<std::vector<CheckResult>>& nested)
      : probes_(probes), n_(n), nested_(nested) {}

  [[nodiscard]] std::size_t key_words() const { return 1; }
  [[nodiscard]] std::uint32_t num_choices() const { return 1; }
  [[nodiscard]] Addr addr() const { return 0; }
  void start(std::uint32_t* key) const { key[0] = 0; }
  std::uint32_t next(const std::uint32_t* key, std::uint32_t c,
                     vmc::SearchStats&) const {
    return c == 0 && key[0] < n_ ? 0 : 1;
  }
  void apply(std::uint32_t* key, std::uint32_t, Schedule* schedule) const {
    if (schedule != nullptr) schedule->push_back(OpRef{0, key[0]});
    ++key[0];
  }
  void close(std::uint32_t*, Schedule*) const {}
  [[nodiscard]] search::Status status(const std::uint32_t* key) const {
    nested_.push_back(probes_.run());
    return key[0] == n_ ? search::Status::kAccept : search::Status::kOpen;
  }
  [[nodiscard]] certify::Incoherence reject(const std::uint32_t*) const {
    return certify::search_exhaustion(0, 0, 0);
  }

 private:
  const Probes& probes_;
  std::uint32_t n_;
  std::vector<std::vector<CheckResult>>& nested_;
};

TEST(SearchWorkspace, NestedSearchesMatchStandaloneRuns) {
  const Probes probes;
  const auto standalone = on_fresh_thread([&] { return probes.run(); });
  std::vector<std::vector<CheckResult>> nested;
  const CheckResult outer = on_fresh_thread([&] {
    const NestingPolicy policy(probes, 5, nested);
    return search::Engine(policy, search::Limits{}).run();
  });
  ASSERT_EQ(outer.verdict, vmc::Verdict::kCoherent);
  EXPECT_EQ(outer.witness.size(), 5u);
  EXPECT_EQ(outer.stats.states_visited, 5u);
  ASSERT_EQ(nested.size(), 6u);  // one per status() call
  for (const auto& run : nested) expect_same(run, standalone);
}

TEST(SearchWorkspace, ConcurrentThreadsReturnTheSequentialResults) {
  const Probes probes;
  const auto sequential = probes.run();
  constexpr int kThreads = 4;
  std::vector<std::vector<CheckResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) got[t] = probes.run();
    });
  for (auto& thread : threads) thread.join();
  for (const auto& results : got) expect_same(results, sequential);
}

}  // namespace
}  // namespace vermem
