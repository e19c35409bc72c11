#pragma once
// Bump/extent arena for the frontier searches' node and key storage.
//
// The exact searches allocate one short key per explored state
// and never free anything until the whole verification call finishes —
// the textbook arena workload. An Arena hands out pointer-bumped chunks
// from geometrically growing extents (one ::operator new per extent,
// never per allocation) and releases everything wholesale: either at
// destruction or via reset(), which retains the largest extent so a
// reused arena reaches steady state with zero system allocations.
//
// Nothing is ever freed individually, so allocation is a pointer bump
// plus an alignment round-up, and the memory for one search is dense:
// keys inserted consecutively sit consecutively, which is what makes the
// open-addressing table in support/flat_set.hpp cache-friendly.
//
// Not thread-safe by design: each search owns a private arena (the
// parallel per-address sweep gives every worker its own search object).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace vermem {

/// Accounting for one arena. `reserved`/`extents` describe live extents;
/// `used`, `high_water` and `allocations` are lifetime totals that
/// survive reset() so callers can report effort after wholesale reuse.
struct ArenaStats {
  std::uint64_t reserved = 0;     ///< bytes obtained from the system (live)
  std::uint64_t used = 0;         ///< bytes handed out since construction
  std::uint64_t high_water = 0;   ///< peak of bytes simultaneously in use
  std::uint64_t allocations = 0;  ///< bump allocations served
  std::uint64_t extents = 0;      ///< live extents backing `reserved`
};

class Arena {
 public:
  static constexpr std::size_t kDefaultFirstExtent = 4096;

  explicit Arena(std::size_t first_extent_bytes = kDefaultFirstExtent) noexcept
      : next_extent_bytes_(first_extent_bytes < 64 ? 64 : first_extent_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { release(nullptr); }

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never returns nullptr; throws std::bad_alloc on exhaustion like any
  /// other allocator.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    auto p = reinterpret_cast<std::uintptr_t>(cursor_);
    std::uintptr_t aligned = (p + (align - 1)) & ~(align - 1);
    if (aligned + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      grow(bytes + align);
      p = reinterpret_cast<std::uintptr_t>(cursor_);
      aligned = (p + (align - 1)) & ~(align - 1);
    }
    cursor_ = reinterpret_cast<char*>(aligned + bytes);
    ++stats_.allocations;
    stats_.used += (aligned + bytes) - p;
    live_ += (aligned + bytes) - p;
    if (live_ > stats_.high_water) stats_.high_water = live_;
    return reinterpret_cast<void*>(aligned);
  }

  /// Typed array of `count` default-constructible trivial elements
  /// (uninitialized storage; callers overwrite every slot).
  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed element-wise");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Wholesale reclamation: every previous allocation becomes invalid at
  /// once. The largest extent is retained so a long-lived arena reaches a
  /// steady state with no system allocation per cycle; the lifetime
  /// counters (`used`, `high_water`, `allocations`) are preserved.
  void reset() noexcept {
    Extent* keep = nullptr;
    for (Extent* e = head_; e != nullptr; e = e->prev)
      if (keep == nullptr || e->size > keep->size) keep = e;
    release(keep);
    head_ = keep;
    if (keep != nullptr) {
      keep->prev = nullptr;
      cursor_ = data(keep);
      end_ = cursor_ + keep->size;
      stats_.reserved = keep->size;
      stats_.extents = 1;
    } else {
      cursor_ = end_ = nullptr;
      stats_.reserved = 0;
      stats_.extents = 0;
    }
    live_ = 0;
  }

  [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }

 private:
  struct Extent {
    Extent* prev;
    std::size_t size;  ///< usable bytes following this header
  };

  static char* data(Extent* e) noexcept {
    return reinterpret_cast<char*>(e) + sizeof(Extent);
  }

  void grow(std::size_t min_bytes) {
    std::size_t size = next_extent_bytes_;
    if (size < min_bytes) size = min_bytes;
    next_extent_bytes_ = size * 2;
    auto* raw = static_cast<char*>(
        ::operator new(sizeof(Extent) + size, std::align_val_t{alignof(std::max_align_t)}));
    auto* extent = new (raw) Extent{head_, size};
    head_ = extent;
    cursor_ = data(extent);
    end_ = cursor_ + size;
    stats_.reserved += size;
    ++stats_.extents;
  }

  /// Frees every extent except `keep` (which may be nullptr).
  void release(Extent* keep) noexcept {
    Extent* e = head_;
    while (e != nullptr) {
      Extent* prev = e->prev;
      if (e != keep)
        ::operator delete(static_cast<void*>(e),
                          std::align_val_t{alignof(std::max_align_t)});
      e = prev;
    }
  }

  char* cursor_ = nullptr;
  char* end_ = nullptr;
  Extent* head_ = nullptr;
  std::size_t next_extent_bytes_;
  std::uint64_t live_ = 0;  ///< bytes in use since the last reset
  ArenaStats stats_;
};

/// Growable array of trivially copyable elements whose storage lives in
/// an Arena. Doubling growth copies into a fresh arena chunk and strands
/// the old one — fine, because the arena is reclaimed wholesale; in
/// exchange push_back never touches the system allocator.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ArenaVec(Arena& arena) noexcept : arena_(&arena) {}

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow_to(capacity);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow_to(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = value;
  }

  /// Appends the n elements at `values`, growing like push_back.
  void append(const T* values, std::size_t n) {
    if (n == 0) return;
    if (size_ + n > capacity_) {
      std::size_t capacity = capacity_ == 0 ? 16 : capacity_ * 2;
      while (capacity < size_ + n) capacity *= 2;
      grow_to(capacity);
    }
    std::memcpy(data_ + size_, values, n * sizeof(T));
    size_ += n;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  void clear() noexcept { size_ = 0; }

 private:
  void grow_to(std::size_t capacity) {
    T* grown = arena_->allocate_array<T>(capacity);
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace vermem
