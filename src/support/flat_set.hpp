#pragma once
// Open-addressing dedup table for packed fixed-stride search-state keys.
//
// Replaces std::unordered_set<std::vector<uint32_t>>: the node-based
// table costs one heap allocation per inserted key plus pointer-chasing
// on every probe. Here a key is `stride` consecutive uint32 words, copied
// once into the owning Arena; the table itself is a power-of-two slot
// array (1-byte fingerprint + 32-bit key id per slot, linear probing)
// whose storage also comes from the arena, so a whole search performs no
// per-entry system allocation at all.
//
// Inserts only — the searches never remove a state, so there are no
// tombstones and growth is a clean re-placement of live entries (the
// per-id hash is retained to avoid re-hashing key words on growth).
// Every inserted key gets a dense id (insertion order), usable as a
// parent link for witness reconstruction.

#include <cstdint>
#include <cstring>

#include "support/arena.hpp"
#include "support/hash.hpp"

namespace vermem {

class FlatKeySet {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Inserted {
    std::uint32_t id;  ///< dense insertion index of the key
    bool fresh;        ///< true when the key was not present before
  };

  /// `stride` = words per key; fixed for the table's lifetime.
  FlatKeySet(Arena& arena, std::size_t stride,
             std::size_t initial_capacity = 64)
      : arena_(&arena),
        stride_(stride),
        key_ptrs_(arena),
        hashes_(arena) {
    std::size_t capacity = 16;
    while (capacity < initial_capacity) capacity *= 2;
    rehash(capacity);
  }

  /// Inserts the key at `words` (stride_ words). Copies it into the arena
  /// only when fresh; a duplicate insert touches no storage.
  Inserted insert(const std::uint32_t* words) {
    // Grow at 3/4 load: linear probing stays short and the doubling cost
    // is amortized against the arena's bump allocations.
    if ((size_ + 1) * 4 > capacity_ * 3) rehash(capacity_ * 2);
    const std::uint64_t hash = hash_words(words, stride_);
    const std::uint8_t fp = fingerprint(hash);
    std::size_t slot = static_cast<std::size_t>(hash) & mask_;
    while (true) {
      const std::uint8_t control = control_[slot];
      if (control == kEmpty) {
        auto* stored = arena_->allocate_array<std::uint32_t>(stride_);
        std::memcpy(stored, words, stride_ * sizeof(std::uint32_t));
        control_[slot] = fp;
        ids_[slot] = static_cast<std::uint32_t>(size_);
        key_ptrs_.push_back(stored);
        hashes_.push_back(hash);
        return {static_cast<std::uint32_t>(size_++), true};
      }
      if (control == fp) {
        const std::uint32_t id = ids_[slot];
        if (std::memcmp(key_ptrs_[id], words,
                        stride_ * sizeof(std::uint32_t)) == 0)
          return {id, false};
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// The stored words of key `id` (valid until the arena is reset).
  [[nodiscard]] const std::uint32_t* key(std::uint32_t id) const noexcept {
    return key_ptrs_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint8_t kEmpty = 0;

  /// Top hash bits, biased non-zero so it never collides with kEmpty.
  [[nodiscard]] static std::uint8_t fingerprint(std::uint64_t hash) noexcept {
    return static_cast<std::uint8_t>(hash >> 57) | 0x80;
  }

  void rehash(std::size_t capacity) {
    control_ = arena_->allocate_array<std::uint8_t>(capacity);
    ids_ = arena_->allocate_array<std::uint32_t>(capacity);
    std::memset(control_, kEmpty, capacity);
    capacity_ = capacity;
    mask_ = capacity - 1;
    for (std::uint32_t id = 0; id < size_; ++id) {
      const std::uint64_t hash = hashes_[id];
      std::size_t slot = static_cast<std::size_t>(hash) & mask_;
      while (control_[slot] != kEmpty) slot = (slot + 1) & mask_;
      control_[slot] = fingerprint(hash);
      ids_[slot] = id;
    }
  }

  Arena* arena_;
  std::size_t stride_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint8_t* control_ = nullptr;
  std::uint32_t* ids_ = nullptr;
  ArenaVec<const std::uint32_t*> key_ptrs_;  ///< id -> stored words
  ArenaVec<std::uint64_t> hashes_;           ///< id -> full hash (for growth)
};

}  // namespace vermem
