#ifndef PRODB_COMMON_THREAD_POOL_H_
#define PRODB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace prodb {

/// Minimal fixed-size thread pool behind FanOut (match/sharding.h): the
/// parallel propagation of matching patterns to the COND relations
/// (§4.2.3: "propagation of changes can be performed in parallel to all
/// the COND relations"), Rete's shards and the query matcher's
/// evaluations. Its one entry point is ParallelFor.
///
/// Re-entrancy: ParallelFor() called from one of this pool's own worker
/// threads (an index that fans out again) runs the loop inline instead
/// of enqueueing. Enqueueing would let every worker block inside the
/// latch wait on tasks queued behind the very tasks doing the waiting —
/// with one worker that is a guaranteed deadlock, with several it is
/// starvation under load.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { Run(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0), ..., fn(n-1) across the pool and blocks until every call
  /// has finished — a reusable fork/join barrier with a private latch, so
  /// concurrent ParallelFor() calls from other threads neither extend nor
  /// truncate this join. The first exception any index throws is rethrown
  /// here, on the calling thread, after all n calls have completed.
  /// n <= 1 runs inline.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    if (n == 1 || current_pool_ == this) {
      // Inline path: trivial fan-out, or a re-entrant call from one of
      // our own workers (see class comment) — blocking on the latch from
      // inside the pool could wait on tasks this thread must itself run.
      std::exception_ptr failure;
      for (size_t i = 0; i < n; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (failure == nullptr) failure = std::current_exception();
        }
      }
      if (failure) std::rethrow_exception(failure);
      return;
    }
    struct Latch {
      std::mutex mu;
      std::condition_variable cv;
      size_t remaining;
      std::exception_ptr failure;
    } latch;
    latch.remaining = n;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < n; ++i) {
        // A task never throws: it hands its failure to the latch.
        tasks_.push([&latch, &fn, i] {
          std::exception_ptr failure;
          try {
            fn(i);
          } catch (...) {
            failure = std::current_exception();
          }
          std::lock_guard<std::mutex> lock(latch.mu);
          if (failure && latch.failure == nullptr) {
            latch.failure = std::move(failure);
          }
          if (--latch.remaining == 0) latch.cv.notify_all();
        });
      }
    }
    cv_.notify_all();
    std::exception_ptr failure;
    {
      std::unique_lock<std::mutex> lock(latch.mu);
      latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
      failure = std::exchange(latch.failure, nullptr);
    }
    if (failure) std::rethrow_exception(failure);
  }

 private:
  void Run() {
    current_pool_ = this;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  // Which pool, if any, the current thread is a worker of. Lets
  // ParallelFor detect re-entrant calls; a C++17 inline variable so the
  // header stays self-contained.
  static inline thread_local const ThreadPool* current_pool_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace prodb

#endif  // PRODB_COMMON_THREAD_POOL_H_
