#include "txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace prodb {
namespace {

TEST(LockModeTest, CompatibilityMatrix) {
  using M = LockMode;
  // IS row.
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIS));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIX));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIS, M::kX));
  // IX row.
  EXPECT_TRUE(LockCompatible(M::kIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kX));
  // S row.
  EXPECT_TRUE(LockCompatible(M::kS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kS, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kS, M::kX));
  // X row.
  EXPECT_FALSE(LockCompatible(M::kX, M::kIS));
  EXPECT_FALSE(LockCompatible(M::kX, M::kX));
}

TEST(LockModeTest, CoversAndJoin) {
  using M = LockMode;
  EXPECT_TRUE(LockCovers(M::kX, M::kS));
  EXPECT_TRUE(LockCovers(M::kS, M::kIS));
  EXPECT_FALSE(LockCovers(M::kS, M::kIX));
  EXPECT_EQ(LockJoin(M::kS, M::kIX), M::kX);  // no SIX: escalate
  EXPECT_EQ(LockJoin(M::kIS, M::kIX), M::kIX);
  EXPECT_EQ(LockJoin(M::kS, M::kS), M::kS);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  ResourceId r = ResourceId::Tup("Emp", {1, 0});
  EXPECT_TRUE(lm.Acquire(1, r, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(2, r, LockMode::kS).ok());
  EXPECT_TRUE(lm.Holds(1, r, LockMode::kS));
  EXPECT_TRUE(lm.Holds(2, r, LockMode::kS));
  lm.ReleaseAll(1);
  EXPECT_FALSE(lm.Holds(1, r, LockMode::kS));
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerTest, ReacquireIsIdempotent) {
  LockManager lm;
  ResourceId r = ResourceId::Rel("Emp");
  EXPECT_TRUE(lm.Acquire(1, r, LockMode::kX).ok());
  EXPECT_TRUE(lm.Acquire(1, r, LockMode::kS).ok());  // covered by X
  EXPECT_TRUE(lm.Holds(1, r, LockMode::kX));
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  ResourceId r = ResourceId::Tup("Emp", {1, 0});
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX).ok());
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Acquire(2, r, LockMode::kX).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, UpgradeSharedToExclusive) {
  LockManager lm;
  ResourceId r = ResourceId::Tup("Emp", {1, 0});
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(1, r, LockMode::kX).ok());  // no other holders
  EXPECT_TRUE(lm.Holds(1, r, LockMode::kX));
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager lm;
  ResourceId a = ResourceId::Tup("Emp", {1, 0});
  ResourceId b = ResourceId::Tup("Emp", {2, 0});
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, b, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status st = lm.Acquire(1, b, LockMode::kX);
    if (st.IsDeadlock()) {
      ++deadlocks;
      lm.ReleaseAll(1);
    }
  });
  std::thread t2([&] {
    Status st = lm.Acquire(2, a, LockMode::kX);
    if (st.IsDeadlock()) {
      ++deadlocks;
      lm.ReleaseAll(2);
    }
  });
  t1.join();
  t2.join();
  // At least one of the two must be chosen as victim; the other proceeds.
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_GE(lm.deadlocks_detected(), 1u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

// Counts what a request tells its waiter. Each call reads the lock
// table, which takes the manager's mutex: a call made under that mutex
// would self-deadlock.
class CountingWaiter : public TxnWaiter {
 public:
  explicit CountingWaiter(const LockManager* lm) : lm_(lm) {}
  void Waiting() override {
    lm_->LockedResourceCount();
    waiting.fetch_add(1);
  }
  void Resumed() override {
    lm_->LockedResourceCount();
    resumed.fetch_add(1);
  }
  std::atomic<int> waiting{0};
  std::atomic<int> resumed{0};

 private:
  const LockManager* lm_;
};

TEST(LockManagerTest, WaiterHearsEachBlockedRequestOnce) {
  LockManager lm;
  ResourceId a = ResourceId::Tup("Emp", {1, 0});
  ResourceId b = ResourceId::Tup("Emp", {2, 0});
  CountingWaiter w1(&lm), w2(&lm);
  // Granted at once: nothing to tell.
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kX, &w1).ok());
  ASSERT_TRUE(lm.Acquire(2, b, LockMode::kX, &w2).ok());
  EXPECT_EQ(w1.waiting.load() + w1.resumed.load(), 0);
  // Blocked: "waiting" once before the wait, however long it lasts.
  std::thread t(
      [&] { EXPECT_TRUE(lm.Acquire(1, b, LockMode::kX, &w1).ok()); });
  while (w1.waiting.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(w1.waiting.load(), 1);
  EXPECT_EQ(w1.resumed.load(), 0);
  // The request closing the cycle is the victim before it ever blocks.
  EXPECT_TRUE(lm.Acquire(2, a, LockMode::kX, &w2).IsDeadlock());
  EXPECT_EQ(w2.waiting.load() + w2.resumed.load(), 0);
  // Granted after the wait: "resumed" once.
  lm.ReleaseAll(2);
  t.join();
  EXPECT_EQ(w1.waiting.load(), 1);
  EXPECT_EQ(w1.resumed.load(), 1);
  EXPECT_TRUE(lm.Holds(1, b, LockMode::kX));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerTest, IntentLocksAllowTupleConcurrency) {
  LockManager lm;
  ResourceId rel = ResourceId::Rel("Emp");
  // Two writers on different tuples coexist through IX.
  EXPECT_TRUE(lm.Acquire(1, rel, LockMode::kIX).ok());
  EXPECT_TRUE(lm.Acquire(2, rel, LockMode::kIX).ok());
  EXPECT_TRUE(lm.Acquire(1, ResourceId::Tup("Emp", {1, 0}), LockMode::kX).ok());
  EXPECT_TRUE(lm.Acquire(2, ResourceId::Tup("Emp", {2, 0}), LockMode::kX).ok());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, RelationSharedBlocksIntentExclusive) {
  // The negative-dependence case of §5.2: a whole-relation read lock
  // must delay inserters.
  LockManager lm;
  ResourceId rel = ResourceId::Rel("Emp");
  ASSERT_TRUE(lm.Acquire(1, rel, LockMode::kS).ok());
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Acquire(2, rel, LockMode::kIX).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  t.join();
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, ManyThreadsSerializeOnHotTuple) {
  LockManager lm;
  ResourceId r = ResourceId::Tup("Emp", {1, 0});
  int counter = 0;  // protected by the X lock itself
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < 50; ++k) {
        uint64_t txn = static_cast<uint64_t>(i * 1000 + k + 1);
        ASSERT_TRUE(lm.Acquire(txn, r, LockMode::kX).ok());
        ++counter;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 400);
}

}  // namespace
}  // namespace prodb
