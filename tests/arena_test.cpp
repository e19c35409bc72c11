// Tests for the search-allocation layer: the bump/extent Arena (and its
// ArenaVec) plus the open-addressing FlatKeySet, including a randomized
// differential against std::unordered_set on the exact key distribution
// the frontier searches produce.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/arena.hpp"
#include "support/flat_set.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace vermem {
namespace {

TEST(Arena, AlignmentIsRespected) {
  Arena arena(128);
  for (const std::size_t align : {1, 2, 4, 8, 16, 32, 64}) {
    for (const std::size_t bytes : {1, 3, 7, 24, 100}) {
      void* p = arena.allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << bytes << " bytes at alignment " << align;
    }
  }
}

TEST(Arena, AllocationsDoNotOverlap) {
  Arena arena(64);  // tiny first extent, so growth happens mid-test
  std::vector<std::pair<char*, std::size_t>> chunks;
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t bytes = 1 + (i * 7) % 50;
    auto* p = static_cast<char*>(arena.allocate(bytes, 4));
    std::memset(p, static_cast<int>(i & 0xff), bytes);
    chunks.emplace_back(p, bytes);
  }
  // Every chunk still holds its fill pattern: no overlap, no relocation.
  for (std::size_t i = 0; i < chunks.size(); ++i)
    for (std::size_t b = 0; b < chunks[i].second; ++b)
      ASSERT_EQ(static_cast<unsigned char>(chunks[i].first[b]), i & 0xff);
}

TEST(Arena, ExtentsGrowGeometrically) {
  Arena arena(64);
  EXPECT_EQ(arena.stats().extents, 0u);  // lazy: nothing until first use
  (void)arena.allocate(1, 1);
  EXPECT_EQ(arena.stats().extents, 1u);
  const std::uint64_t first = arena.stats().reserved;
  // Burn through several extents; each must at least double the reserve.
  std::uint64_t last_reserved = first;
  for (int i = 0; i < 4; ++i) {
    while (arena.stats().reserved == last_reserved) (void)arena.allocate(48, 8);
    const std::uint64_t grown = arena.stats().reserved - last_reserved;
    EXPECT_GE(grown, last_reserved) << "extent " << i << " grew sub-geometrically";
    last_reserved = arena.stats().reserved;
  }
  EXPECT_EQ(arena.stats().extents, 5u);
}

TEST(Arena, OversizedRequestGetsItsOwnExtent) {
  Arena arena(64);
  auto* p = static_cast<char*>(arena.allocate(10'000, 8));
  std::memset(p, 0xab, 10'000);
  EXPECT_GE(arena.stats().reserved, 10'000u);
}

TEST(Arena, ResetIsWholesaleAndRetainsLargestExtent) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) (void)arena.allocate(100, 8);
  const ArenaStats before = arena.stats();
  EXPECT_GT(before.extents, 1u);
  EXPECT_GT(before.high_water, 0u);

  arena.reset();
  const ArenaStats after_reset = arena.stats();
  EXPECT_EQ(after_reset.extents, 1u);  // largest extent retained for reuse
  EXPECT_LT(after_reset.reserved, before.reserved);
  EXPECT_GT(after_reset.reserved, 0u);
  // Lifetime counters survive the reset.
  EXPECT_EQ(after_reset.allocations, before.allocations);
  EXPECT_EQ(after_reset.high_water, before.high_water);
  EXPECT_EQ(after_reset.used, before.used);

  // Allocating within the retained extent reuses it: no new reserve.
  (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.stats().reserved, after_reset.reserved);
  EXPECT_EQ(arena.stats().extents, 1u);
}

TEST(Arena, HighWaterTracksPeakNotCurrent) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) (void)arena.allocate(64, 8);
  const std::uint64_t peak = arena.stats().high_water;
  arena.reset();
  (void)arena.allocate(8, 8);
  EXPECT_GE(arena.stats().high_water, peak);  // peak is a lifetime maximum
}

/// A request sequence with mixed sizes and alignments, one request
/// larger than the extent it arrives at, and enough volume for several
/// extents.
void serve(Arena& arena, std::size_t scale) {
  for (std::size_t i = 0; i < 300 * scale; ++i)
    (void)arena.allocate(1 + (i * 13) % 90, std::size_t{1} << (i % 4));
  (void)arena.allocate(20'000, 8);
  for (std::size_t i = 0; i < 50; ++i) (void)arena.allocate(24, 8);
}

TEST(Arena, RewoundArenaReportsWhatANewOneWould) {
  // The oversized request lands at a different extent in runs of
  // different scale, so the kept extents of one run do not all fit the
  // other: growth must take a spare only when a new arena would allocate
  // exactly its size.
  for (const auto& [before, after] : {std::pair{1u, 4u}, std::pair{4u, 1u}}) {
    Arena fresh(64);
    serve(fresh, after);
    const ArenaStats want = fresh.stats();
    EXPECT_GT(want.extents, 2u);

    Arena reused(64);
    serve(reused, before);
    reused.rewind(1 << 20);
    const ArenaStats zero = reused.stats();
    EXPECT_EQ(zero.reserved, 0u);
    EXPECT_EQ(zero.extents, 0u);
    EXPECT_EQ(zero.used, 0u);
    EXPECT_EQ(zero.high_water, 0u);
    EXPECT_EQ(zero.allocations, 0u);
    EXPECT_GT(reused.spare_bytes(), 0u);
    serve(reused, after);
    const ArenaStats got = reused.stats();
    EXPECT_EQ(got.reserved, want.reserved) << before << " then " << after;
    EXPECT_EQ(got.extents, want.extents);
    EXPECT_EQ(got.used, want.used);
    EXPECT_EQ(got.high_water, want.high_water);
    EXPECT_EQ(got.allocations, want.allocations);
  }
}

TEST(Arena, RewindKeepsAPrefixWithinItsBudget) {
  Arena arena(64);
  serve(arena, 4);
  arena.rewind(1000);
  EXPECT_LE(arena.spare_bytes(), 1000u);
  EXPECT_GT(arena.spare_bytes(), 0u);  // 64 + 128 + 256 + 512 fit
  arena.rewind(0);
  EXPECT_EQ(arena.spare_bytes(), 0u);
  // A rewound arena takes its spares back instead of asking the system.
  serve(arena, 1);
  arena.rewind(1 << 20);
  const std::size_t spares = arena.spare_bytes();
  (void)arena.allocate(8, 8);
  EXPECT_EQ(arena.spare_bytes(), spares - 64);
}

TEST(ArenaVec, PushGrowAndIndex) {
  Arena arena(64);
  ArenaVec<std::uint64_t> vec(arena);
  EXPECT_TRUE(vec.empty());
  for (std::uint64_t i = 0; i < 1000; ++i) vec.push_back(i * 3);
  ASSERT_EQ(vec.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(vec[i], i * 3);
  vec.clear();
  EXPECT_TRUE(vec.empty());
  vec.push_back(7);
  EXPECT_EQ(vec[0], 7u);
}

TEST(ArenaVec, AppendRunsAcrossGrowth) {
  Arena arena(64);
  ArenaVec<std::uint32_t> vec(arena);
  std::vector<std::uint32_t> expected;
  std::vector<std::uint32_t> run;
  // Runs of 0..99 elements: empty appends, appends inside the capacity,
  // and appends that need more than one doubling at once.
  for (std::uint32_t n = 0; n < 100; ++n) {
    run.assign(n, n);
    vec.append(run.data(), run.size());
    expected.insert(expected.end(), run.begin(), run.end());
  }
  ASSERT_EQ(vec.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) ASSERT_EQ(vec[i], expected[i]);
}

// ---- FlatKeySet ---------------------------------------------------------

using Key = std::vector<std::uint32_t>;

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    return static_cast<std::size_t>(hash_span<std::uint32_t>(key));
  }
};

TEST(FlatKeySet, FreshThenDuplicate) {
  Arena arena;
  FlatKeySet set(arena, 3);
  const std::uint32_t a[3] = {1, 2, 3};
  const std::uint32_t b[3] = {1, 2, 4};
  const auto first = set.insert(a);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(first.id, 0u);
  const auto second = set.insert(b);
  EXPECT_TRUE(second.fresh);
  EXPECT_EQ(second.id, 1u);
  const auto dup = set.insert(a);
  EXPECT_FALSE(dup.fresh);
  EXPECT_EQ(dup.id, 0u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySet, KeysAreStableAcrossGrowth) {
  Arena arena;
  FlatKeySet set(arena, 2, 16);
  std::vector<const std::uint32_t*> stored;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const std::uint32_t words[2] = {i, i ^ 0xdeadbeefu};
    const auto r = set.insert(words);
    ASSERT_TRUE(r.fresh);
    stored.push_back(set.key(r.id));
  }
  ASSERT_GT(set.capacity(), 500u);  // grew several times
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(set.key(i), stored[i]);  // ids stay valid, keys never move
    EXPECT_EQ(set.key(i)[0], i);
    EXPECT_EQ(set.key(i)[1], i ^ 0xdeadbeefu);
  }
}

TEST(FlatKeySet, CollidingKeysStayDistinct) {
  // Keys differing only in the last word probe near each other under any
  // reasonable hash; all must survive growth without tombstone artifacts.
  Arena arena;
  FlatKeySet set(arena, 4, 16);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t words[4] = {7, 7, 7, i};
    ASSERT_TRUE(set.insert(words).fresh) << i;
  }
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t words[4] = {7, 7, 7, i};
    const auto r = set.insert(words);
    ASSERT_FALSE(r.fresh);
    ASSERT_EQ(r.id, i);
  }
}

TEST(FlatKeySet, KeysDifferingInTheLastWordStayDistinct) {
  // The key hash folds words in pairs, so a stride-1 key, a stride-2 key
  // (one full pair) and a stride-5 key (two pairs and a lone last word)
  // each exercise a different tail of the hash loop.
  for (const std::size_t stride : {1u, 2u, 5u}) {
    Arena arena;
    FlatKeySet set(arena, stride, 16);
    std::vector<std::uint32_t> words(stride, 3);
    std::unordered_set<std::uint64_t> hashes;
    for (std::uint32_t i = 0; i < 1000; ++i) {
      words.back() = i;
      ASSERT_TRUE(set.insert(words.data()).fresh) << stride << ' ' << i;
      hashes.insert(hash_words(words.data(), stride));
    }
    EXPECT_EQ(hashes.size(), 1000u) << stride;
    for (std::uint32_t i = 0; i < 1000; ++i) {
      words.back() = i;
      const auto r = set.insert(words.data());
      ASSERT_FALSE(r.fresh) << stride << ' ' << i;
      ASSERT_EQ(r.id, i);
      EXPECT_EQ(set.key(i)[stride - 1], i);
    }
    EXPECT_EQ(set.size(), 1000u);
  }
}

TEST(FlatKeySet, RandomizedDifferentialAgainstUnorderedSet) {
  // The searches' key distribution: short vectors of small, regular
  // values with many near-duplicates. FlatKeySet must agree with
  // std::unordered_set insert-for-insert.
  for (const std::uint64_t seed : {1ull, 42ull, 1234567ull}) {
    Xoshiro256ss rng(seed);
    const std::size_t stride = 2 + static_cast<std::size_t>(rng() % 7);
    Arena arena;
    FlatKeySet set(arena, stride);
    std::unordered_set<Key, KeyHash> reference;
    Key key(stride);
    for (std::size_t step = 0; step < 20'000; ++step) {
      for (auto& word : key)
        word = static_cast<std::uint32_t>(rng() % 8);  // dense duplicates
      const bool fresh_ref = reference.insert(key).second;
      const auto r = set.insert(key.data());
      ASSERT_EQ(r.fresh, fresh_ref) << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(set.size(), reference.size());
    EXPECT_GT(arena.stats().high_water, 0u);
  }
}

}  // namespace
}  // namespace vermem
