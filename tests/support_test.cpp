// Unit tests for the support utilities: RNG, hashing, formatting,
// tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include <stdexcept>

#include "support/format.hpp"
#include "support/hash.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace vermem {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256ss a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256ss rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
  Xoshiro256ss rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Xoshiro256ss rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Xoshiro256ss rng(5);
  auto perm = rng.permutation(50);
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(perm[i], i);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Xoshiro256ss rng(9);
  std::vector<int> v{1, 2, 2, 3, 9, 9, 9};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(v, sorted);
}

TEST(Hash, SpanHashDiffersOnPermutation) {
  const std::vector<std::uint32_t> a{1, 2, 3}, b{3, 2, 1};
  EXPECT_NE(hash_span<std::uint32_t>(a), hash_span<std::uint32_t>(b));
}

TEST(Hash, Mix64InjectsEntropy) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(1), 1u);  // note: 0 is fmix64's fixpoint, by design
}

TEST(Format, SplitPreservesEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(Format, SplitWsDropsEmpty) {
  const auto fields = split_ws("  a \t b\n c  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Format, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Format, ParseI64) {
  long long v = 0;
  EXPECT_TRUE(parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_i64("12x", v));
  EXPECT_FALSE(parse_i64("", v));
}

TEST(Format, HumanCount) {
  EXPECT_EQ(human_count(1234567), "1.23M");
  EXPECT_EQ(human_count(999), "999");
}

TEST(Format, HumanNanos) {
  EXPECT_EQ(human_nanos(1.53e6), "1.53ms");
  EXPECT_EQ(human_nanos(2e9), "2.00s");
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  EXPECT_EQ(t.rows(), 2u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CancellationToken, CancelIsSticky) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationToken, LinkedParentCancelsChildOnly) {
  // A child reports its parent's cancel; cancelling the child leaves the
  // parent (and a sibling) running.
  CancellationToken parent;
  CancellationToken child(&parent);
  CancellationToken sibling(&parent);
  child.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_FALSE(sibling.cancelled());
  parent.cancel();
  EXPECT_TRUE(sibling.cancelled());

  CancellationToken root;
  CancellationToken grandchild_parent(&root);
  CancellationToken grandchild(&grandchild_parent);
  root.cancel();
  EXPECT_TRUE(grandchild.cancelled());
}

TEST(Stopwatch, Monotone) {
  Stopwatch sw;
  EXPECT_GE(sw.nanos(), 0);
  const auto first = sw.nanos();
  EXPECT_GE(sw.nanos(), first);
}

TEST(Deadline, NeverDoesNotExpire) {
  EXPECT_FALSE(Deadline::never().expired());
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::after_ms(0).limited() == false ||
              !Deadline::after_ms(0).expired());
  // A strictly positive but tiny budget must eventually expire.
  Deadline d(std::chrono::nanoseconds(1));
  Stopwatch sw;
  while (!d.expired() && sw.seconds() < 1.0) {
  }
  EXPECT_TRUE(d.expired());
}

}  // namespace
}  // namespace vermem
