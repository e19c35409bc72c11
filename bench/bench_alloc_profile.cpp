// Heap allocation counts of the exact VMC search: the frozen legacy
// search against the arena-backed one, counted through an operator new
// override local to this TU, written to BENCH_alloc_profile.json — the
// trajectory harness's evidence that the rework actually removed
// per-state allocation rather than just shuffling constants.
//
// Run: ./build/bench/bench_alloc_profile (no flags; writes to the CWD).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "support/table.hpp"
#include "vmc/exact.hpp"
#include "vmc/exact_legacy.hpp"
#include "workload/random.hpp"

// Global-new instrumentation: every heap allocation in the process bumps
// the counter. Counting (not timing) makes the profile deterministic and
// build-type independent.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC pairs the replaced operator new with the library delete at some
// inlined call sites and flags the malloc/free crossover; the pairing
// here is intentional (new -> malloc, delete -> free, process-wide).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace vermem;

workload::GeneratedTrace contended_trace(std::size_t histories,
                                         std::size_t ops_per_history,
                                         std::uint64_t seed) {
  workload::SingleAddressParams params;
  params.num_histories = histories;
  params.ops_per_history = ops_per_history;
  params.num_values = 3;  // few values => many candidate interleavings
  params.write_fraction = 0.5;
  Xoshiro256ss rng(seed);
  return workload::generate_coherent(params, rng);
}

/// Allocations performed by `run()` alone, net of everything else the
/// process does (single-threaded here, so the delta is exact).
template <typename Run>
std::uint64_t count_allocs(Run&& run) {
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(run());
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

void run_alloc_profile() {
  std::cout << "== exact-search allocation profile (legacy vs arena) ==\n";
  struct Shape {
    const char* name;
    std::size_t histories, ops;
  };
  const Shape shapes[] = {
      {"small", 3, 8},
      {"contended", 5, 12},
      {"contended_wide", 6, 12},
  };
  struct Point {
    const char* name;
    std::uint64_t states;
    std::uint64_t legacy_heap;
    std::uint64_t arena_heap;
    std::uint64_t arena_bumps;  ///< bump allocations served by the arena
  };
  std::vector<Point> points;
  for (const Shape& shape : shapes) {
    const auto trace = contended_trace(shape.histories, shape.ops, 11);
    const vmc::VmcInstance instance{trace.execution, 0};
    Point point{shape.name, 0, 0, 0, 0};
    // Warm both paths once so one-time lazy init is not billed to either.
    const auto result = vmc::check_exact(instance);
    benchmark::DoNotOptimize(vmc::check_exact_legacy(instance));
    point.states = result.stats.states_visited;
    point.arena_bumps = result.stats.arena_allocations;
    point.legacy_heap =
        count_allocs([&] { return vmc::check_exact_legacy(instance); });
    point.arena_heap = count_allocs([&] { return vmc::check_exact(instance); });
    points.push_back(point);
  }

  TextTable table({"shape", "states", "legacy heap allocs", "arena heap allocs",
                   "arena bumps", "heap ratio"});
  char buf[64];
  for (const Point& point : points) {
    std::snprintf(buf, sizeof buf, "%.1fx",
                  static_cast<double>(point.legacy_heap) /
                      static_cast<double>(std::max<std::uint64_t>(
                          point.arena_heap, 1)));
    table.add_row({point.name, std::to_string(point.states),
                   std::to_string(point.legacy_heap),
                   std::to_string(point.arena_heap),
                   std::to_string(point.arena_bumps), buf});
  }
  table.print(std::cout);

  std::ofstream json("BENCH_alloc_profile.json");
  json << "{\n  \"bench\": \"alloc_profile\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& point = points[i];
    json << "    {\"name\": \"" << point.name << "\", \"states\": "
         << point.states << ", \"legacy_heap_allocs\": " << point.legacy_heap
         << ", \"arena_heap_allocs\": " << point.arena_heap
         << ", \"arena_bump_allocs\": " << point.arena_bumps
         << ", \"heap_alloc_ratio\": "
         << static_cast<double>(point.legacy_heap) /
                static_cast<double>(std::max<std::uint64_t>(point.arena_heap, 1))
         << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_alloc_profile.json\n";
}

}  // namespace

int main() {
  run_alloc_profile();
  return 0;
}
