#pragma once
// Persistent worker pool for long-lived services.
//
// The verification service's one unit of parallelism is the request:
// independent traces run at once on this pool, and each request verifies
// its addresses on the worker that picked it up. Spawning threads per
// request would dominate small requests and defeat any cross-request
// scheduling, so ThreadPool keeps the workers alive: tasks are closures
// pushed onto a mutex+condvar queue, executed FIFO by whichever worker
// frees up first. Deliberately small: no work stealing, no priorities
// (the verification service posts each request as it is submitted), no
// task dependencies.
//
// Lifecycle: shutdown() (also run by the destructor) stops intake, runs
// every task already queued, and joins. post() after shutdown throws.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vermem {

class ThreadPool {
 public:
  /// Starts `workers` threads (0 = hardware concurrency).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. The task must not throw (use submit()
  /// to route exceptions through a future). Throws std::runtime_error
  /// once shutdown() has begun.
  void post(std::function<void()> task);

  /// Enqueues a callable and returns a future of its result; exceptions
  /// escape through the future.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  /// Tasks queued but not yet picked up (excludes running tasks).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Stops intake, drains the queue, joins all workers. Idempotent and
  /// safe to call concurrently with post() (posts lose the race cleanly).
  void shutdown();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::mutex join_mutex_;
  std::condition_variable available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t idle_ = 0;  ///< workers parked in wait(); guarded by mutex_
  bool shutting_down_ = false;
};

}  // namespace vermem
