#include "engine/concurrent_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "engine/sequential_engine.h"
#include "matcher_test_util.h"
#include "workload/generator.h"

namespace prodb {
namespace {

// Multiset of tuple values per relation — the state fingerprint used for
// serializability checks (tuple ids differ across replays).
std::map<std::string, std::multiset<std::string>> DbFingerprint(
    Catalog* catalog, const std::vector<std::string>& relations) {
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : relations) {
    Relation* rel = catalog->Get(name);
    auto& bucket = out[name];
    EXPECT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                     bucket.insert(t.ToString());
                     return Status::OK();
                   })
                    .ok());
  }
  return out;
}

// The two inputs of the tests whose firings must interleave: an RHS that
// runs straight through, and one that first waits in `(call pause)`. A
// worker keeps the run baton until its firing waits, so only the second
// puts several firings in flight together, their 2PL locks then deciding
// the outcome.
const char* const kRhsWaits[] = {"", "(call pause) "};

// Registers `pause`, a call that sleeps 200 us.
void RegisterPause(FunctionRegistry* functions) {
  functions->Register("pause", [](const std::vector<Value>&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  });
}

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  void Load(const std::string& source, ConcurrentEngineOptions opts = {}) {
    ASSERT_TRUE(harness_.Init(source, "query").ok());
    engine_ = std::make_unique<ConcurrentEngine>(
        harness_.catalog.get(), harness_.matcher.get(), &locks_, opts);
  }
  MatcherHarness harness_;
  LockManager locks_;
  std::unique_ptr<ConcurrentEngine> engine_;
};

TEST_F(ConcurrentEngineTest, DrainsIndependentInstantiations) {
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)",
       opts);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine_->Insert("Work", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 64u);
  EXPECT_EQ(harness_.catalog->Get("Work")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Done")->Count(), 64u);
  EXPECT_EQ(engine_->commit_log().size(), 64u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(ConcurrentEngineTest, ZeroWorkersIsRejected) {
  // No worker would fire anything; a silent OK with 0 firings would hide
  // the misconfiguration (a server started with --workers=0).
  ConcurrentEngineOptions opts;
  opts.workers = 0;
  Load(R"(
(literalize Job id)
(p done (Job ^id <x>) --> (remove 1))
)",
       opts);
  ASSERT_TRUE(engine_->Insert("Job", Tuple{Value(1)}).ok());
  ConcurrentRunResult result;
  EXPECT_TRUE(engine_->Run(&result).IsInvalidArgument());
  EXPECT_EQ(result.firings, 0u);
  EXPECT_EQ(harness_.catalog->Get("Job")->Count(), 1u);
}

TEST_F(ConcurrentEngineTest, ConflictingRulesStaySerializable) {
  // Two rules compete for the same token; only one may consume it.
  for (const std::string wait : kRhsWaits) {
    SCOPED_TRACE("rhs prefix '" + wait + "'");
    MatcherHarness h;
    ASSERT_TRUE(h.Init(R"(
(literalize Token id)
(literalize WonA id)
(literalize WonB id)
(p a (Token ^id <x>) --> )" + wait + R"((remove 1) (make WonA ^id <x>))
(p b (Token ^id <x>) --> )" + wait + R"((remove 1) (make WonB ^id <x>))
)",
                       "query")
                    .ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = 4;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    RegisterPause(&engine.functions());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(engine.Insert("Token", Tuple{Value(i)}).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    // Exactly one winner per token: 40 firings total, 40 outputs.
    EXPECT_EQ(result.firings, 40u);
    size_t a = h.catalog->Get("WonA")->Count();
    size_t b = h.catalog->Get("WonB")->Count();
    EXPECT_EQ(a + b, 40u);
    EXPECT_EQ(h.catalog->Get("Token")->Count(), 0u);
    // Losers are either removed by maintenance before being taken or
    // detected as stale at validation (or, while waiting, lose a deadlock
    // and are requeued); either way nothing remains queued and nothing
    // double-fires.
    EXPECT_TRUE(h.matcher->conflict_set().empty());
    EXPECT_EQ(locks.LockedResourceCount(), 0u);
  }
}

TEST_F(ConcurrentEngineTest, CommitLogReplaysSerially) {
  // Serializability witness: replaying the committed firing sequence
  // serially from the same initial WM must land in the same final state.
  for (const std::string wait : kRhsWaits) {
    SCOPED_TRACE("rhs prefix '" + wait + "'");
    const std::string program = R"(
(literalize Queue id stage)
(p advance1 (Queue ^id <x> ^stage 1) --> )" + wait + R"((modify 1 ^stage 2))
(p advance2 (Queue ^id <x> ^stage 2) --> )" + wait + R"((modify 1 ^stage 3))
)";
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, "query").ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = 4;
    opts.seed = 7;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    RegisterPause(&engine.functions());
    std::vector<Tuple> initial;
    for (int i = 0; i < 20; ++i) {
      Tuple t{Value(i), Value(1)};
      initial.push_back(t);
      ASSERT_TRUE(engine.Insert("Queue", t).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result.firings, 40u);  // each item advances twice
    auto concurrent_state = DbFingerprint(h.catalog.get(), {"Queue"});

    // Serial replay.
    MatcherHarness serial;
    ASSERT_TRUE(serial.Init(program, "query").ok());
    SequentialEngine seq(serial.catalog.get(), serial.matcher.get());
    RegisterPause(&seq.functions());
    for (const Tuple& t : initial) {
      ASSERT_TRUE(seq.Insert("Queue", t).ok());
    }
    EngineRunResult seq_result;
    ASSERT_TRUE(seq.Run(&seq_result).ok());
    EXPECT_EQ(seq_result.firings, 40u);
    EXPECT_EQ(DbFingerprint(serial.catalog.get(), {"Queue"}),
              concurrent_state);
  }
}

TEST_F(ConcurrentEngineTest, NegativeDependenceIsRespected) {
  // `lone` fires only while no Blocker exists; `spawn` creates Blockers.
  // Relation-level read locks (§5.2) prevent a `lone` commit from racing
  // a Blocker insertion it should have seen: with waiting RHSs, a `spawn`
  // that inserts while a `lone` is in flight blocks on its S lock.
  for (const std::string wait : kRhsWaits) {
    SCOPED_TRACE("rhs prefix '" + wait + "'");
    MatcherHarness h;
    ASSERT_TRUE(h.Init(R"(
(literalize Seed id)
(literalize Blocker id)
(literalize Output id)
(p spawn (Seed ^id <x>) --> )" + wait + R"((remove 1) (make Blocker ^id <x>))
(p lone (Seed ^id <x>) -(Blocker ^id <x>) --> )" + wait +
                           R"((remove 1) (make Output ^id <x>))
)",
                       "query")
                    .ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = 4;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    RegisterPause(&engine.functions());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(engine.Insert("Seed", Tuple{Value(i)}).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    // Every seed was consumed exactly once.
    EXPECT_EQ(h.catalog->Get("Seed")->Count(), 0u);
    size_t blockers = h.catalog->Get("Blocker")->Count();
    size_t outputs = h.catalog->Get("Output")->Count();
    EXPECT_EQ(blockers + outputs, 30u);
    EXPECT_TRUE(h.matcher->conflict_set().empty());
    EXPECT_EQ(locks.LockedResourceCount(), 0u);
  }
}

// Write skew through negated CEs: `lone` writes an Output only while no
// Blocker exists for its id, and `block` a Blocker only while no Output
// does, so any serial order makes exactly one of the two per id. Each RHS
// waits first, so both firings on an id validate before either commits;
// only the relation-level S locks their negated CEs take keep both from
// committing, by blocking the other's insert until one aborts.
TEST_F(ConcurrentEngineTest, NegatedReadLocksPreventWriteSkew) {
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Seed id)
(literalize Trigger id)
(literalize Blocker id)
(literalize Output id)
(p lone (Seed ^id <x>) -(Blocker ^id <x>) -->
  (call pause) (remove 1) (make Output ^id <x>))
(p block (Trigger ^id <x>) -(Output ^id <x>) -->
  (call pause) (remove 1) (make Blocker ^id <x>))
)",
       opts);
  RegisterPause(&engine_->functions());
  constexpr int kIds = 20;
  for (int i = 0; i < kIds; ++i) {
    ASSERT_TRUE(engine_->Insert("Seed", Tuple{Value(i)}).ok());
    ASSERT_TRUE(engine_->Insert("Trigger", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, static_cast<size_t>(kIds));
  EXPECT_EQ(harness_.catalog->Get("Blocker")->Count() +
                harness_.catalog->Get("Output")->Count(),
            static_cast<size_t>(kIds));
  EXPECT_TRUE(harness_.matcher->conflict_set().empty());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

// A worker revalidates a negated CE before firing with the executor's
// witness search. A Blocker written straight into its relation, behind
// the matcher, leaves `lone` in the conflict set; the search must find it
// — by scan under rete, by probing the index the query matcher declares
// on Blocker.id — and skip the instantiation as stale.
TEST(ConcurrentRevalidationTest, NegatedWitnessBehindTheMatcherIsStale) {
  for (const char* spec : {"rete", "query"}) {
    SCOPED_TRACE(spec);
    MatcherHarness harness;
    ASSERT_TRUE(harness
                    .Init(R"(
(literalize Seed id)
(literalize Blocker id)
(literalize Output id)
(p lone (Seed ^id <x>) -(Blocker ^id <x>) --> (remove 1) (make Output ^id <x>))
)",
                          spec)
                    .ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = 1;
    ConcurrentEngine engine(harness.catalog.get(), harness.matcher.get(),
                            &locks, opts);
    ASSERT_TRUE(engine.Insert("Seed", Tuple{Value(1)}).ok());
    ASSERT_EQ(harness.matcher->conflict_set().size(), 1u);
    Relation* blockers = harness.catalog->Get("Blocker");
    if (std::string(spec) == "query") {
      EXPECT_TRUE(blockers->HasHashIndex(0));
    }
    TupleId id;
    ASSERT_TRUE(blockers->Insert(Tuple{Value(1)}, &id).ok());
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result.stale_skipped, 1u);
    EXPECT_EQ(result.firings, 0u);
    EXPECT_EQ(harness.catalog->Get("Output")->Count(), 0u);
    EXPECT_EQ(harness.catalog->Get("Seed")->Count(), 1u);
  }
}

TEST_F(ConcurrentEngineTest, WorkerSweepMatchesSequentialOutcome) {
  // Same consuming workload under 1, 2, 8 workers: identical final state.
  const char* program = R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)";
  for (size_t workers : {1u, 2u, 8u}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, "query").ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = workers;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(engine.Insert("Work", Tuple{Value(i)}).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result.firings, 32u) << workers << " workers";
    EXPECT_EQ(h.catalog->Get("Done")->Count(), 32u);
  }
}

TEST_F(ConcurrentEngineTest, PatternMatcherUnderConcurrency) {
  // The §4.2 matcher's maintenance must be safe from worker threads.
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)",
                     "pattern")
                  .ok());
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Insert("Work", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(result.firings, 50u);
  EXPECT_EQ(h.catalog->Get("Done")->Count(), 50u);
}

TEST_F(ConcurrentEngineTest, DeadlockCompensationPreservesExactState) {
  // Two symmetric rules lock the same (X i, Y i) pair in opposite CE
  // order — the classic deadlock shape. Victims compensate by applying
  // the inverse ChangeSet to the relations (the matcher was never
  // notified mid-transaction), so however many aborts occur, the net
  // effect must be exactly one consumption per pair.
  ConcurrentEngineOptions opts;
  opts.workers = 8;
  opts.seed = 13;
  Load(R"(
(literalize X id)
(literalize Y id)
(literalize Out id)
(p xy (X ^id <i>) (Y ^id <i>) --> (remove 1) (remove 2) (make Out ^id <i>))
(p yx (Y ^id <i>) (X ^id <i>) --> (remove 1) (remove 2) (make Out ^id <i>))
)",
       opts);
  const int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    ASSERT_TRUE(engine_->Insert("X", Tuple{Value(i)}).ok());
    ASSERT_TRUE(engine_->Insert("Y", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  // Exactly one of {xy, yx} consumed each pair; aborted victims left no
  // residue in the relations or the conflict set.
  EXPECT_EQ(harness_.catalog->Get("X")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Y")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Out")->Count(),
            static_cast<size_t>(kPairs));
  EXPECT_EQ(result.firings, static_cast<size_t>(kPairs));
  EXPECT_TRUE(harness_.matcher->conflict_set().empty());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(ConcurrentEngineTest, CommitDeliversWholeRhsAsOneBatch) {
  // §5.2 commit rule, structural form: the matcher hears a transaction's
  // ∆ as exactly one OnBatch per committed firing (plus the initial
  // loads), never action-by-action.
  ConcurrentEngineOptions opts;
  opts.workers = 2;
  Load(R"(
(literalize Work id)
(literalize DoneA id)
(literalize DoneB id)
(p fanout (Work ^id <x>) -->
  (remove 1) (make DoneA ^id <x>) (make DoneB ^id <x>))
)",
       opts);
  const int kItems = 16;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(engine_->Insert("Work", Tuple{Value(i)}).ok());
  }
  uint64_t batches_after_load = harness_.matcher->stats().batches.load();
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, static_cast<size_t>(kItems));
  // One batch per committed transaction (deadlock-free workload).
  EXPECT_EQ(harness_.matcher->stats().batches.load() - batches_after_load,
            static_cast<uint64_t>(kItems));
  EXPECT_EQ(harness_.catalog->Get("DoneA")->Count(),
            static_cast<size_t>(kItems));
  EXPECT_EQ(harness_.catalog->Get("DoneB")->Count(),
            static_cast<size_t>(kItems));
}

TEST_F(ConcurrentEngineTest, HaltStopsWorkers) {
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Tick n)
(p stop (Tick ^n <x>) --> (remove 1) (halt))
)",
       opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Insert("Tick", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_TRUE(result.halted);
  // Workers stop promptly; far fewer than 100 firings.
  EXPECT_LT(result.firings, 100u);
}

// Firings overlap where they wait: a worker hands the run baton on while
// its `call` runs. `rendezvous` returns only once both firings' calls are
// in progress, so a call that kept the baton would leave the other firing
// unstarted and time out.
TEST_F(ConcurrentEngineTest, FiringsOverlapWhileTheyWait) {
  ConcurrentEngineOptions opts;
  opts.workers = 2;
  Load(R"(
(literalize Job id)
(p meet (Job ^id <x>) --> (call rendezvous) (remove 1))
)",
       opts);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  engine_->functions().Register(
      "rendezvous", [&](const std::vector<Value>&) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        if (!cv.wait_for(lock, std::chrono::seconds(5),
                         [&] { return arrived >= 2; })) {
          return Status::Internal("rendezvous timed out");
        }
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Insert("Job", Tuple{Value(1)}).ok());
  ASSERT_TRUE(engine_->Insert("Job", Tuple{Value(2)}).ok());
  ConcurrentRunResult result;
  Status st = engine_->Run(&result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.firings, 2u);
  EXPECT_EQ(harness_.catalog->Get("Job")->Count(), 0u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

}  // namespace
}  // namespace prodb
