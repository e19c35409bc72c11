#pragma once
// Bounded lock-free single-producer/single-consumer ring.
//
// The stream pipeline has exactly one reader thread fanning decoded
// events out to N checker shards, so each shard's inbound queue has one
// producer and one consumer by construction — the cheapest possible
// ring: two monotonically increasing indices, a release store on each
// side, and cached counterpart indices so the hot path usually runs on
// thread-private cache lines (the classic Lamport queue with the
// FastForward refinement).
//
// The API is zero-copy on both sides: the producer writes directly into
// the slot returned by begin_push() and publishes it with commit_push();
// the consumer reads through front() and releases with pop(). Slots are
// recycled in FIFO order, so a slot's storage (e.g. an EventBlock's
// inline array) is reused without ever touching the system allocator
// after construction.
//
// Capacity is rounded up to a power of two; "full" applies backpressure
// at the producer, which waits for the consumer to free a slot.

#include <atomic>
#include <cstddef>
#include <memory>

namespace vermem::stream {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    capacity_ = rounded;
    mask_ = rounded - 1;
    slots_ = std::make_unique<T[]>(rounded);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Producer: the slot to fill, or nullptr when the ring is full.
  [[nodiscard]] T* begin_push() noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == capacity_) return nullptr;
    }
    return &slots_[tail & mask_];
  }

  /// Producer: publishes the slot last returned by begin_push().
  void commit_push() noexcept {
    tail_.store(tail_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Consumer: the oldest published slot, or nullptr when empty. The
  /// pointer stays valid until pop().
  [[nodiscard]] T* front() noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return nullptr;
    }
    return &slots_[head & mask_];
  }

  /// Consumer: releases the slot last returned by front().
  void pop() noexcept {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Racy occupancy estimate (either side; used for depth metrics only).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<T[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  // Producer-owned line: tail plus the producer's cache of head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  // Consumer-owned line: head plus the consumer's cache of tail.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
};

}  // namespace vermem::stream
