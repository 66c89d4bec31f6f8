#include "txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"

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

// Releasing one transaction touches only its own locks: on resources
// it shares with others the others' requests stay granted, and every
// resource still held by someone stays counted.
TEST(LockManagerTest, ReleaseAllLeavesOtherTransactionsLocksHeld) {
  LockManager lm;
  ResourceId rel = ResourceId::Rel("Emp");
  ResourceId shared = ResourceId::Tup("Emp", {1, 0});
  auto own = [](uint64_t txn) {
    return ResourceId::Tup("Emp", {static_cast<uint32_t>(10 + txn), 0});
  };
  for (uint64_t txn = 1; txn <= 3; ++txn) {
    ASSERT_TRUE(lm.Acquire(txn, rel, LockMode::kIX).ok());
    ASSERT_TRUE(lm.Acquire(txn, shared, LockMode::kS).ok());
    ASSERT_TRUE(lm.Acquire(txn, own(txn), LockMode::kX).ok());
  }
  ASSERT_TRUE(lm.Acquire(1, ResourceId::Rel("Dept"), LockMode::kS).ok());
  EXPECT_EQ(lm.LockedResourceCount(), 6u);

  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedResourceCount(), 5u);
  EXPECT_FALSE(lm.Holds(2, rel, LockMode::kIS));
  EXPECT_FALSE(lm.Holds(2, shared, LockMode::kS));
  EXPECT_FALSE(lm.Holds(2, own(2), LockMode::kX));
  for (uint64_t txn : {1, 3}) {
    EXPECT_TRUE(lm.Holds(txn, rel, LockMode::kIX));
    EXPECT_TRUE(lm.Holds(txn, shared, LockMode::kS));
    EXPECT_TRUE(lm.Holds(txn, own(txn), LockMode::kX));
  }
  lm.ReleaseAll(2);  // nothing left to release
  EXPECT_EQ(lm.LockedResourceCount(), 5u);

  lm.ReleaseAll(1);
  EXPECT_EQ(lm.LockedResourceCount(), 3u);
  EXPECT_FALSE(lm.Holds(1, ResourceId::Rel("Dept"), LockMode::kIS));
  EXPECT_TRUE(lm.Holds(3, rel, LockMode::kIX));
  EXPECT_TRUE(lm.Holds(3, shared, LockMode::kS));
  EXPECT_TRUE(lm.Holds(3, own(3), LockMode::kX));
  // The released resource is free for anyone.
  EXPECT_TRUE(lm.Acquire(4, own(1), LockMode::kX).ok());
  EXPECT_EQ(lm.LockedResourceCount(), 4u);

  lm.ReleaseAll(3);
  lm.ReleaseAll(4);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

// More requests on one resource than its entry holds in place: five
// shared holders, then an exclusive request that waits for all five.
TEST(LockManagerTest, ManyHoldersOfOneResource) {
  LockManager lm;
  ResourceId r = ResourceId::Tup("Emp", {1, 0});
  for (uint64_t txn = 1; txn <= 5; ++txn) {
    ASSERT_TRUE(lm.Acquire(txn, r, LockMode::kS).ok());
  }
  for (uint64_t txn = 1; txn <= 5; ++txn) {
    EXPECT_TRUE(lm.Holds(txn, r, LockMode::kS)) << txn;
  }
  EXPECT_EQ(lm.LockedResourceCount(), 1u);
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    EXPECT_TRUE(lm.Acquire(6, r, LockMode::kX).ok());
    acquired.store(true);
  });
  // The first holder goes first, so a later one takes its place.
  for (uint64_t txn = 1; txn <= 4; ++txn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(acquired.load()) << "granted with " << txn << " left";
    lm.ReleaseAll(txn);
    for (uint64_t left = txn + 1; left <= 5; ++left) {
      EXPECT_TRUE(lm.Holds(left, r, LockMode::kS)) << left;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(5);
  writer.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lm.Holds(6, r, LockMode::kX));
  EXPECT_EQ(lm.LockedResourceCount(), 1u);
  lm.ReleaseAll(6);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

// Threads run short transactions over a few hot resources, taking
// relation and tuple locks in random order and modes, so requests wait,
// upgrade and deadlock. Every granted request must show in Holds, no two
// holders of a tuple may conflict, every transaction ends by ReleaseAll,
// and nothing stays locked at the end.
TEST(LockManagerTest, RandomizedAcquireReleaseEndsEmpty) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 150;
  constexpr uint32_t kTuples = 6;
  const std::vector<std::string> relations = {"A", "B"};
  LockManager lm;
  // Holders per tuple resource, kept by the transactions themselves
  // while they hold the lock: readers, and writers (at most one, alone).
  struct Holders {
    std::atomic<int> readers{0};
    std::atomic<int> writers{0};
  };
  std::vector<Holders> holders(relations.size() * kTuples);
  std::atomic<int> conflicts{0};
  std::atomic<int> missing{0};
  std::atomic<int> deadlocks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      for (int n = 0; n < kTxnsPerThread; ++n) {
        const uint64_t txn = static_cast<uint64_t>(t) * 100000 + n + 1;
        std::map<size_t, LockMode> mine;  // tuple slot -> mode counted
        auto uncount = [&] {
          for (const auto& [slot, mode] : mine) {
            if (mode == LockMode::kX) {
              holders[slot].writers.fetch_sub(1);
            } else {
              holders[slot].readers.fetch_sub(1);
            }
          }
        };
        const int requests = 1 + static_cast<int>(rng.Uniform(6));
        for (int k = 0; k < requests; ++k) {
          const size_t rel = rng.Uniform(relations.size());
          if (rng.Chance(0.2)) {
            const LockMode mode = static_cast<LockMode>(rng.Uniform(4));
            const ResourceId res = ResourceId::Rel(relations[rel]);
            Status st = lm.Acquire(txn, res, mode);
            if (st.IsDeadlock()) {
              ++deadlocks;
              break;
            }
            if (!st.ok() || !lm.Holds(txn, res, mode)) ++missing;
            continue;
          }
          const auto tuple = static_cast<uint32_t>(rng.Uniform(kTuples));
          const bool write = rng.Chance(0.5);
          const LockMode mode = write ? LockMode::kX : LockMode::kS;
          Status st = lm.Acquire(txn, ResourceId::Rel(relations[rel]),
                                 write ? LockMode::kIX : LockMode::kIS);
          const ResourceId res = ResourceId::Tup(relations[rel], {tuple, 0});
          if (st.ok()) st = lm.Acquire(txn, res, mode);
          if (st.IsDeadlock()) {
            ++deadlocks;
            break;
          }
          if (!st.ok() || !lm.Holds(txn, res, mode)) {
            ++missing;
            continue;
          }
          const size_t slot = rel * kTuples + tuple;
          auto held = mine.find(slot);
          if (held != mine.end() &&
              (held->second == LockMode::kX || mode == LockMode::kS)) {
            continue;  // already counted at this mode or above
          }
          if (held != mine.end()) holders[slot].readers.fetch_sub(1);
          mine[slot] = mode;
          if (mode == LockMode::kX) {
            if (holders[slot].writers.fetch_add(1) != 0 ||
                holders[slot].readers.load() != 0) {
              ++conflicts;
            }
          } else {
            holders[slot].readers.fetch_add(1);
            if (holders[slot].writers.load() != 0) ++conflicts;
          }
        }
        uncount();
        lm.ReleaseAll(txn);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(conflicts.load(), 0);
  EXPECT_EQ(missing.load(), 0);
  EXPECT_EQ(lm.deadlocks_detected(), static_cast<uint64_t>(deadlocks.load()));
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

}  // namespace
}  // namespace prodb
