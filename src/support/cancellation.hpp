#pragma once
// Cooperative cancellation shared by a request and the work it starts.

#include <atomic>

namespace vermem {

/// Shared flag that asks running work to stop. Work polls `cancelled()`
/// (search::Limits::interrupted does, for every engine) and winds down
/// with an `unknown` verdict; nothing is interrupted forcibly.
///
/// Tokens can be linked: a token constructed with a parent reports
/// cancelled when either it or the parent is. The analysis portfolio
/// uses this to race engines under one local token (first definite
/// verdict cancels the losers) while still honoring the request-level
/// token of the enclosing service call. The parent is not owned and must
/// outlive the child.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(const CancellationToken* parent) noexcept
      : parent_(parent) {}

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancellationToken* parent_ = nullptr;
};

}  // namespace vermem
