#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace prodb {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // n == 0 and n == 1 (inline fast path) degenerate cleanly.
  pool.ParallelFor(0, [&](size_t) { FAIL() << "n=0 must not invoke fn"; });
  std::atomic<int> once{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++once;
  });
  EXPECT_EQ(once.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterDrainingAllIndices) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(16, [&](size_t i) {
      ++ran;
      if (i == 3) throw std::runtime_error("index boom");
    });
    FAIL() << "ParallelFor should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index boom");
  }
  // The barrier waits for every index before rethrowing — no task is
  // abandoned mid-flight.
  EXPECT_EQ(ran.load(), 16);
  // The pool remains usable.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ParallelForFromWorkerThreadDoesNotDeadlock) {
  // Regression: ParallelFor called from an index running ON the pool
  // used to enqueue its indices behind the caller and block on the latch
  // — with a single worker that worker waits on tasks only it can run, a
  // guaranteed deadlock (the test then hangs until ctest's timeout). The
  // fix runs the loop inline when the calling thread is one of the
  // pool's own workers.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 8);

  // Nested fan-out on a multi-worker pool: outer ParallelFor indices run
  // on workers, each fans out again. Inline execution keeps every index
  // accounted for exactly once.
  ThreadPool big(4);
  std::vector<std::atomic<int>> hits(64);
  big.ParallelFor(8, [&](size_t outer) {
    big.ParallelFor(8, [&](size_t j) { ++hits[outer * 8 + j]; });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }

  // The exception contract survives the inline path.
  ThreadPool one(1);
  std::vector<std::string> caught(2);
  one.ParallelFor(2, [&](size_t outer) {
    try {
      one.ParallelFor(4, [&](size_t i) {
        if (i == 2) throw std::runtime_error("inline boom");
      });
      caught[outer] = "no throw";
    } catch (const std::runtime_error& e) {
      caught[outer] = e.what();
    }
  });
  EXPECT_EQ(caught[0], "inline boom");
  EXPECT_EQ(caught[1], "inline boom");
}

}  // namespace
}  // namespace prodb
