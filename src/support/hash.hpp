#pragma once
// Hash utilities for the memoization tables used by the schedule-search
// checkers. The search-state keys are short vectors of integers; we hash
// them with a simple multiply-xor stream mixer (FNV-style would also do,
// but this mixes better for the highly regular keys frontier search
// produces).

#include <cstddef>
#include <cstdint>
#include <span>

namespace vermem {

/// Combines a new 64-bit word into a running hash (boost-style, but with a
/// stronger 64-bit constant and post-mix).
constexpr void hash_combine(std::uint64_t& seed, std::uint64_t value) noexcept {
  value *= 0x9e3779b97f4a7c15ULL;
  value ^= value >> 32;
  seed ^= value + 0x517cc1b727220a95ULL + (seed << 6) + (seed >> 2);
}

/// Hash of a span of integers, suitable for unordered containers.
template <typename T>
[[nodiscard]] constexpr std::uint64_t hash_span(std::span<const T> words) noexcept {
  std::uint64_t seed = 0x6a09e667f3bcc908ULL + words.size();
  for (const T& w : words) hash_combine(seed, static_cast<std::uint64_t>(w));
  return seed;
}

/// Final avalanche (from MurmurHash3's fmix64) — used when a single
/// integer must be spread over the whole 64-bit range.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Hash of a packed search-state key of `n` words (FlatKeySet): one
/// multiply-xorshift step per word pair, then mix64. For a fixed input
/// word pair each step is a bijection of the running state, so keys that
/// differ only in their last word always hash apart.
[[nodiscard]] constexpr std::uint64_t hash_words(const std::uint32_t* words,
                                                 std::size_t n) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0x6a09e667f3bcc908ULL ^ n;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    h = (h ^ (words[i] | (static_cast<std::uint64_t>(words[i + 1]) << 32))) *
        kMul;
    h ^= h >> 32;
  }
  if (i < n) {
    h = (h ^ words[i]) * kMul;
    h ^= h >> 32;
  }
  return mix64(h);
}

}  // namespace vermem
