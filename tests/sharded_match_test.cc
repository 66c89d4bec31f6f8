// Sharded multi-core match (working-memory partitioning): routing units,
// serial-vs-sharded conflict-set identity, thread-count-independent
// firing order under the recency strategy, per-shard counters, and the
// sharded matchers under the concurrent engine.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "common/rng.h"
#include "engine/concurrent_engine.h"
#include "engine/sequential_engine.h"
#include "match/query_matcher.h"
#include "match/sharding.h"
#include "matcher_test_util.h"
#include "rete/network.h"
#include "workload/generator.h"

namespace prodb {
namespace {

TEST(ShardMapTest, ColdClassesRouteByClassName) {
  ShardingOptions so;
  so.num_shards = 4;
  ShardMap map(so);
  ASSERT_EQ(map.num_shards(), 4u);
  // Same class always lands in the same shard, regardless of tuple id.
  Delta a1;
  a1.relation = "Emp";
  a1.id = TupleId{1, 1};
  Delta a2;
  a2.relation = "Emp";
  a2.id = TupleId{99, 7};
  EXPECT_EQ(map.Route(a1), map.Route(a2));
  EXPECT_EQ(map.Route(a1), map.ShardOfClass("Emp"));
  EXPECT_FALSE(map.IsHot("Emp"));
}

TEST(ShardMapTest, HotClassesRouteByTupleId) {
  ShardingOptions so;
  so.num_shards = 8;
  so.hot_classes = {"Emp"};
  ShardMap map(so);
  EXPECT_TRUE(map.IsHot("Emp"));
  EXPECT_FALSE(map.IsHot("Dept"));
  // Hot routing spreads distinct ids across shards...
  std::map<size_t, int> hist;
  for (uint32_t i = 0; i < 256; ++i) {
    Delta d;
    d.relation = "Emp";
    d.id = TupleId{i, i % 16};
    ++hist[map.Route(d)];
  }
  EXPECT_GT(hist.size(), 4u) << "hot hashing should use most shards";
  // ...and is a pure function of the id.
  Delta d;
  d.relation = "Emp";
  d.id = TupleId{42, 3};
  EXPECT_EQ(map.Route(d), map.ShardOfId(d.id));
}

TEST(ShardMapTest, SingleShardRoutesEverythingToZero) {
  ShardMap map;  // default: 1 shard
  Delta d;
  d.relation = "anything";
  d.id = TupleId{7, 7};
  EXPECT_EQ(map.Route(d), 0u);
}

TEST(ShardImbalanceTest, UniformIsOneEmptyIsOne) {
  EXPECT_DOUBLE_EQ(ShardImbalance({}), 1.0);
  std::vector<ShardStats> even(4);
  for (auto& s : even) s.deltas_routed = 10;
  EXPECT_DOUBLE_EQ(ShardImbalance(even), 1.0);
  std::vector<ShardStats> skew(4);
  skew[0].deltas_routed = 40;  // mean 10, max 40
  EXPECT_DOUBLE_EQ(ShardImbalance(skew), 4.0);
}

TEST(FanOutTest, WorkersRule) {
  EXPECT_EQ(FanOut::Workers(ShardingOptions{}), 1u);
  ShardingOptions so;
  so.num_shards = 8;
  EXPECT_EQ(FanOut::Workers(so), 8u);  // threads 0: one per shard
  so.threads = 3;
  EXPECT_EQ(FanOut::Workers(so), 3u);
  EXPECT_FALSE(FanOut(1).parallel());
  EXPECT_TRUE(FanOut(2).parallel());
}

// Inline and on a pool alike: every part runs, the first failure in part
// order wins and names its part, and each part's wait at the join lands
// in its merge_wait_ns.
TEST(FanOutTest, EveryPartRunsAndFirstFailureInPartOrderWins) {
  for (size_t workers : {1, 4}) {
    SCOPED_TRACE(workers);
    FanOut fan(workers);
    std::vector<int> ran(6, 0);
    std::vector<ShardStats> stats(6);
    size_t failed = 0;
    Status st = fan.Run(
        6,
        [&](size_t i) {
          ran[i] = 1;
          // The last part finishes last, so part 0 waits at the join.
          if (i == 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          if (i == 2 || i == 4) {
            return Status::Internal("part " + std::to_string(i));
          }
          return Status::OK();
        },
        &stats, &failed);
    EXPECT_EQ(st.ToString(), Status::Internal("part 2").ToString());
    EXPECT_EQ(failed, 2u);
    EXPECT_EQ(ran, std::vector<int>(6, 1));
    EXPECT_GE(stats[0].merge_wait_ns, 1000000u);

    EXPECT_TRUE(fan.Run(3, [](size_t) { return Status::OK(); }, nullptr,
                        &failed)
                    .ok());
    EXPECT_EQ(failed, 3u);
    // One part runs inline and leaves the counters alone.
    std::vector<ShardStats> untouched;
    EXPECT_TRUE(fan.Run(1, [](size_t) { return Status::NotFound("x"); },
                        &untouched, &failed)
                    .IsNotFound());
    EXPECT_EQ(failed, 0u);
  }
}

// Drives the same randomized batched churn through a serial matcher and
// sharded variants at several thread counts; conflict sets (including
// recency stamps, checked via Snapshot order below) must be identical.
TEST(ShardedMatchTest, BatchedChurnMatchesSerialAcrossThreadCounts) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(literalize C k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
(p triple (A ^k <x>) (B ^k <x> ^v <w>) (C ^v <w>) --> (remove 1))
(p lonely (A ^k <x> ^v 0) -(C ^k <x>) --> (remove 1))
)";
  auto make_serial = [](Catalog* c) {
    return std::make_unique<ReteNetwork>(c);
  };
  for (bool hot : {false, true}) {
    // Per-batch recency-ordered rule names from the threads=1 run; later
    // thread counts must reproduce them exactly. (The sharded merge
    // applies buffered ops in shard order, so recency stamps are
    // deterministic across thread counts — but legitimately permuted
    // relative to the serial network's traversal order; against the
    // serial oracle only set equality holds.)
    std::vector<std::vector<std::string>> recency_ref;
    for (size_t threads : {1u, 2u, 8u}) {
      MatcherHarness serial, sharded;
      ASSERT_TRUE(serial.Init(program, make_serial).ok());
      ASSERT_TRUE(sharded
                      .Init(program,
                            [&](Catalog* c) {
                              MatcherSpec spec = NamedSpec("rete-shard8");
                              spec.sharding.threads = threads;
                              if (hot) {
                                spec.sharding.hot_classes = {"A", "B", "C"};
                              }
                              return MakeMatcher(spec, c);
                            })
                      .ok());
      ASSERT_EQ(sharded.matcher->ShardStatsSnapshot().size(), 8u);

      Rng rng(7);  // same trace at every thread count
      std::vector<std::pair<std::string, std::pair<TupleId, TupleId>>> live;
      for (int batch = 0; batch < 25; ++batch) {
        serial.wm->BeginBatch();
        sharded.wm->BeginBatch();
        for (int k = 0; k < 12; ++k) {
          if (rng.Chance(0.3) && !live.empty()) {
            size_t pick = rng.Uniform(live.size());
            ASSERT_TRUE(serial.wm
                            ->Delete(live[pick].first,
                                     live[pick].second.first)
                            .ok());
            ASSERT_TRUE(sharded.wm
                            ->Delete(live[pick].first,
                                     live[pick].second.second)
                            .ok());
            live.erase(live.begin() + static_cast<long>(pick));
          } else {
            const char* classes[] = {"A", "B", "C"};
            std::string cls = classes[rng.Uniform(3)];
            Tuple t{Value(static_cast<int64_t>(rng.Uniform(6))),
                    Value(static_cast<int64_t>(rng.Uniform(4)))};
            TupleId sid, pid;
            ASSERT_TRUE(serial.wm->Insert(cls, t, &sid).ok());
            ASSERT_TRUE(sharded.wm->Insert(cls, t, &pid).ok());
            live.emplace_back(cls, std::make_pair(sid, pid));
          }
        }
        ASSERT_TRUE(serial.wm->CommitBatch().ok());
        ASSERT_TRUE(sharded.wm->CommitBatch().ok());
        ASSERT_EQ(CanonicalConflictSet(*sharded.matcher),
                  CanonicalConflictSet(*serial.matcher))
            << "threads=" << threads << " hot=" << hot << " batch="
            << batch;
        // Recency-stamp determinism: the recency-ordered rule sequence
        // must be byte-identical across thread counts (the ordered shard
        // merge), pinning more than set equality.
        auto by_recency = [](Matcher& m) {
          std::vector<Instantiation> snap = m.conflict_set().Snapshot();
          std::sort(snap.begin(), snap.end(),
                    [](const Instantiation& a, const Instantiation& b) {
                      return a.recency < b.recency;
                    });
          std::vector<std::string> names;
          for (const Instantiation& inst : snap) {
            names.push_back(inst.rule_name);
          }
          return names;
        };
        if (threads == 1) {
          recency_ref.push_back(by_recency(*sharded.matcher));
        } else {
          ASSERT_EQ(by_recency(*sharded.matcher),
                    recency_ref[static_cast<size_t>(batch)])
              << "recency order diverged: threads=" << threads
              << " hot=" << hot << " batch=" << batch;
        }
      }
    }
  }
}

// Firing order under the recency strategy must be identical at 1, 2, and
// 8 threads: conflict-resolution reads recency stamps, so any
// nondeterminism in the shard merge would surface as a different firing
// log.
TEST(ShardedMatchTest, RecencyFiringOrderIndependentOfThreadCount) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
(p zero (A ^k <x> ^v 0) --> (remove 1))
)";
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program,
                       [&](Catalog* c) {
                         MatcherSpec spec = NamedSpec("rete-shard8");
                         spec.sharding.threads = threads;
                         spec.sharding.hot_classes = {"A", "B"};
                         return MakeMatcher(spec, c);
                       })
                    .ok());
    SequentialEngineOptions sopts;
    sopts.strategy = StrategyKind::kRecency;
    SequentialEngine engine(h.catalog.get(), h.matcher.get(), sopts);
    Rng rng(99);
    engine.working_memory().BeginBatch();
    for (int i = 0; i < 48; ++i) {
      Tuple t{Value(static_cast<int64_t>(rng.Uniform(8))),
              Value(static_cast<int64_t>(rng.Uniform(3)))};
      ASSERT_TRUE(engine.working_memory()
                      .Insert(rng.Chance(0.5) ? "A" : "B", t)
                      .ok());
    }
    ASSERT_TRUE(engine.working_memory().CommitBatch().ok());
    EngineRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_GT(result.firings, 0u);
    if (reference.empty()) {
      reference = engine.firing_log();
    } else {
      EXPECT_EQ(engine.firing_log(), reference)
          << "firing order diverged at threads=" << threads;
    }
  }
}

TEST(ShardedMatchTest, ShardStatsAccountForRoutingAndMerge) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
)";
  MatcherHarness h;
  ASSERT_TRUE(h.Init(program,
                     [](Catalog* c) {
                       MatcherSpec spec = NamedSpec("rete-shard4");
                       spec.sharding.threads = 2;
                       spec.sharding.hot_classes = {"A"};
                       return MakeMatcher(spec, c);
                     })
                  .ok());
  h.wm->BeginBatch();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        h.wm->Insert(i % 2 ? "A" : "B",
                     Tuple{Value(i % 4), Value(i)})
            .ok());
  }
  ASSERT_TRUE(h.wm->CommitBatch().ok());

  std::vector<ShardStats> stats = h.matcher->ShardStatsSnapshot();
  ASSERT_EQ(stats.size(), 4u);
  uint64_t routed = 0, ops = 0;
  for (const ShardStats& s : stats) {
    routed += s.deltas_routed;
    ops += s.conflict_ops;
  }
  // A is hot, so the rule replicates into every shard — and each replica
  // hooks alpha nodes for BOTH of its CEs there. All 4 shards therefore
  // consume all 32 deltas (B's right-memory fan-in is the documented
  // cost of hot replication).
  EXPECT_EQ(routed, 4u * 32u);
  EXPECT_EQ(ops, h.matcher->conflict_set().size());
  EXPECT_GE(ShardImbalance(stats), 1.0);
  // Serial matchers report no shard stats.
  MatcherHarness serial;
  ASSERT_TRUE(serial
                  .Init(program,
                        [](Catalog* c) {
                          return std::make_unique<ReteNetwork>(c);
                        })
                  .ok());
  EXPECT_TRUE(serial.matcher->ShardStatsSnapshot().empty());
}

TEST(ShardedMatchTest, QueryMatcherShardStatsAndName) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
)";
  MatcherHarness h;
  ASSERT_TRUE(h.Init(program,
                     [](Catalog* c) {
                       MatcherSpec spec = NamedSpec("query-shard4");
                       spec.sharding.threads = 2;
                       return MakeMatcher(spec, c);
                     })
                  .ok());
  EXPECT_EQ(h.matcher->ShardStatsSnapshot().size(), 4u);
  h.wm->BeginBatch();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(h.wm->Insert(i % 2 ? "A" : "B",
                             Tuple{Value(i % 4), Value(i)})
                    .ok());
  }
  ASSERT_TRUE(h.wm->CommitBatch().ok());
  std::vector<ShardStats> stats = h.matcher->ShardStatsSnapshot();
  ASSERT_EQ(stats.size(), 4u);
  uint64_t routed = 0;
  for (const ShardStats& s : stats) routed += s.deltas_routed;
  EXPECT_GT(routed, 0u);
}

// The concurrent engine commits transactions from worker threads while
// the sharded matcher fans propagation out onto its own pool — the
// matcher-internal batch lock must keep the two safe together (TSan
// covers this test in CI).
TEST(ShardedMatchTest, ConcurrentEngineDrivesShardedRete) {
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize A id n)
(literalize B id n)
(p ab (A ^id <i> ^n <x>) (B ^id <i> ^n <y>) --> (remove 1) (remove 2))
)",
                     [](Catalog* c) {
                       MatcherSpec spec = NamedSpec("rete-shard4");
                       spec.sharding.threads = 2;
                       spec.sharding.hot_classes = {"A", "B"};
                       return MakeMatcher(spec, c);
                     })
                  .ok());
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(engine.Insert("A", Tuple{Value(i), Value(i)}).ok());
    ASSERT_TRUE(engine.Insert("B", Tuple{Value(i), Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(result.firings, 24u);
  EXPECT_EQ(h.catalog->Get("A")->Count(), 0u);
  EXPECT_EQ(h.catalog->Get("B")->Count(), 0u);
}

}  // namespace
}  // namespace prodb
