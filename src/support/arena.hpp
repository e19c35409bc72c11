#pragma once
// Bump/extent arena for the frontier searches' node and key storage.
//
// The exact searches allocate one short key per explored state
// and never free anything until the whole verification call finishes —
// the textbook arena workload. An Arena hands out pointer-bumped chunks
// from geometrically growing extents (one ::operator new per extent,
// never per allocation) and releases everything wholesale: at
// destruction, via reset(), which retains the largest extent so a
// reused arena reaches steady state with zero system allocations, or via
// rewind() (below).
//
// Nothing is ever freed individually, so allocation is a pointer bump
// plus an alignment round-up, and the memory for one search is dense:
// keys inserted consecutively sit consecutively, which is what makes the
// open-addressing table in support/flat_set.hpp cache-friendly.
//
// rewind() serves a long-lived arena that runs one search after another
// (search::Workspace): it returns the arena to the state of a new one but
// keeps a bounded prefix of its extents, which later growth takes back in
// order, so each search's accounting is the one a new arena would report.
//
// Not thread-safe by design: each search uses one arena at a time (the
// search engine borrows its thread's workspace arena).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace vermem {

/// Accounting for one arena. `reserved`/`extents` describe the extents
/// serving allocations (spares kept by rewind() are not counted until
/// growth takes them back); `used`, `high_water` and `allocations` are
/// lifetime totals that survive reset() so callers can report effort
/// after wholesale reuse. rewind() zeroes all five.
struct ArenaStats {
  std::uint64_t reserved = 0;     ///< bytes of the extents in service
  std::uint64_t used = 0;         ///< bytes handed out since construction
  std::uint64_t high_water = 0;   ///< peak of bytes simultaneously in use
  std::uint64_t allocations = 0;  ///< bump allocations served
  std::uint64_t extents = 0;      ///< live extents backing `reserved`
};

class Arena {
 public:
  static constexpr std::size_t kDefaultFirstExtent = 4096;

  explicit Arena(std::size_t first_extent_bytes = kDefaultFirstExtent) noexcept
      : first_extent_bytes_(first_extent_bytes < 64 ? 64 : first_extent_bytes),
        next_extent_bytes_(first_extent_bytes_) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    release(nullptr);
    free_chain(spare_);
  }

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
    free_chain(spare_);
    spare_ = nullptr;
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

  /// Returns the arena to the state of a new one: every allocation
  /// invalid, every ArenaStats field zero, the first extent size restored.
  /// Its extents, in the order they were made, are kept as spares while
  /// their running total stays within `keep_bytes`; the rest is freed.
  /// grow() takes the next spare when its size is exactly the one a new
  /// arena would allocate there, so the same requests land at the same
  /// offsets of extents of the same sizes, and the stats a rewound arena
  /// reports are a function of the requests since the rewind alone.
  void rewind(std::size_t keep_bytes) noexcept {
    // Live extents run newest first; put them, oldest first, ahead of the
    // spares no growth took back (those were made after them).
    Extent* order = spare_;
    for (Extent* e = head_; e != nullptr;) {
      Extent* prev = e->prev;
      e->prev = order;
      order = e;
      e = prev;
    }
    spare_ = nullptr;
    Extent** tail = &spare_;
    std::size_t kept = 0;
    for (; order != nullptr && kept + order->size <= keep_bytes;
         order = order->prev) {
      kept += order->size;
      *tail = order;
      tail = &order->prev;
    }
    *tail = nullptr;
    free_chain(order);
    head_ = nullptr;
    cursor_ = end_ = nullptr;
    next_extent_bytes_ = first_extent_bytes_;
    live_ = 0;
    stats_ = {};
  }

  [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }
  /// Bytes of the spare extents rewind() kept and growth has not taken.
  [[nodiscard]] std::size_t spare_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const Extent* e = spare_; e != nullptr; e = e->prev) bytes += e->size;
    return bytes;
  }

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
    Extent* extent = spare_;
    if (extent != nullptr && extent->size == size) {
      spare_ = extent->prev;
      extent->prev = head_;
    } else {
      // The requests left the sequence the spares were made for.
      free_chain(spare_);
      spare_ = nullptr;
      auto* raw = static_cast<char*>(::operator new(
          sizeof(Extent) + size, std::align_val_t{alignof(std::max_align_t)}));
      extent = new (raw) Extent{head_, size};
    }
    head_ = extent;
    cursor_ = data(extent);
    end_ = cursor_ + size;
    stats_.reserved += size;
    ++stats_.extents;
  }

  /// Frees every live extent except `keep` (which may be nullptr).
  void release(Extent* keep) noexcept {
    Extent* e = head_;
    while (e != nullptr) {
      Extent* prev = e->prev;
      if (e != keep) free_extent(e);
      e = prev;
    }
  }

  static void free_chain(Extent* e) noexcept {
    while (e != nullptr) {
      Extent* prev = e->prev;
      free_extent(e);
      e = prev;
    }
  }

  static void free_extent(Extent* e) noexcept {
    ::operator delete(static_cast<void*>(e),
                      std::align_val_t{alignof(std::max_align_t)});
  }

  char* cursor_ = nullptr;
  char* end_ = nullptr;
  Extent* head_ = nullptr;
  Extent* spare_ = nullptr;  ///< kept by rewind(), oldest first via prev
  std::size_t first_extent_bytes_;
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
