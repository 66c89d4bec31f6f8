// Sharded multi-core match (working-memory partitioning): routing units,
// serial-vs-sharded conflict-set identity, thread-count-independent
// firing order under the recency strategy, per-shard counters, and the
// sharded matchers under the concurrent engine.

#include <gtest/gtest.h>

#include <map>

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
                              ReteOptions opts;
                              opts.sharding.num_shards = 8;
                              opts.sharding.threads = threads;
                              if (hot) {
                                opts.sharding.hot_classes = {"A", "B", "C"};
                              }
                              return std::make_unique<ReteNetwork>(c, opts);
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
                         ReteOptions opts;
                         opts.sharding.num_shards = 8;
                         opts.sharding.threads = threads;
                         opts.sharding.hot_classes = {"A", "B"};
                         return std::make_unique<ReteNetwork>(c, opts);
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
                       ReteOptions opts;
                       opts.sharding.num_shards = 4;
                       opts.sharding.threads = 2;
                       opts.sharding.hot_classes = {"A"};
                       return std::make_unique<ReteNetwork>(c, opts);
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
                       ShardingOptions so;
                       so.num_shards = 4;
                       so.threads = 2;
                       return std::make_unique<QueryMatcher>(
                           c, ExecutorOptions{}, so);
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
                       ReteOptions opts;
                       opts.sharding.num_shards = 4;
                       opts.sharding.threads = 2;
                       opts.sharding.hot_classes = {"A", "B"};
                       return std::make_unique<ReteNetwork>(c, opts);
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

// Sharded WM apply: class-routed parallel application must leave the
// relations and matcher in the same state as the serial walk, with
// per-relation insert ids assigned in delta order.
TEST(ShardedMatchTest, WorkingMemoryShardedApplyMatchesSerial) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
)";
  MatcherHarness serial, sharded;
  auto factory = [](Catalog* c) { return std::make_unique<ReteNetwork>(c); };
  ASSERT_TRUE(serial.Init(program, factory).ok());
  ASSERT_TRUE(sharded.Init(program, factory).ok());
  ShardingOptions so;
  so.num_shards = 4;
  so.threads = 4;
  ASSERT_TRUE(sharded.wm->ConfigureSharding(so).ok());

  ChangeSet cs1, cs2;
  for (int i = 0; i < 64; ++i) {
    const std::string cls = i % 2 ? "A" : "B";
    Tuple t{Value(i % 8), Value(i)};
    cs1.AddInsert(cls, t);
    cs2.AddInsert(cls, t);
  }
  ASSERT_TRUE(serial.wm->Apply(&cs1).ok());
  ASSERT_TRUE(sharded.wm->Apply(&cs2).ok());
  // Same ids per relation (one relation = one shard = serial order).
  for (size_t i = 0; i < cs1.size(); ++i) {
    EXPECT_EQ(cs1[i].id, cs2[i].id) << "delta " << i;
  }
  EXPECT_EQ(CanonicalConflictSet(*sharded.matcher),
            CanonicalConflictSet(*serial.matcher));
}

// Regression: ConfigureSharding used to silently accept a mid-stream
// call, re-routing deltas after the matcher had already partitioned its
// state under the old map — silent divergence. It must refuse instead.
TEST(ShardedMatchTest, ConfigureShardingMidStreamIsAnError) {
  const char* program = R"(
(literalize A k v)
(p some (A ^k <x> ^v <u>) --> (remove 1))
)";
  MatcherHarness h;
  auto factory = [](Catalog* c) { return std::make_unique<ReteNetwork>(c); };
  ASSERT_TRUE(h.Init(program, factory).ok());

  ASSERT_TRUE(h.wm->Insert("A", Tuple{Value(1), Value(2)}).ok());

  ShardingOptions so;
  so.num_shards = 4;
  so.threads = 4;
  Status st = h.wm->ConfigureSharding(so);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  // The refused call changed nothing: the WM keeps working serially.
  ASSERT_TRUE(h.wm->Insert("A", Tuple{Value(2), Value(3)}).ok());
  EXPECT_EQ(h.matcher->conflict_set().size(), 2u);

  // Every mutation flavor arms the guard, not just Insert.
  MatcherHarness h2;
  ASSERT_TRUE(h2.Init(program, factory).ok());
  ChangeSet cs;
  cs.AddInsert("A", Tuple{Value(9), Value(9)});
  ASSERT_TRUE(h2.wm->Apply(&cs).ok());
  EXPECT_TRUE(h2.wm->ConfigureSharding(so).IsInvalidArgument());
}

// The WAL-forced serial fallback of the sharded WM apply is counted:
// a multi-delta Apply on a sharded WM over a WAL-attached catalog takes
// the serial walk and bumps sharded_apply_serialized once per batch
// (DESIGN.md "Sharded match × durability"). Without a WAL the parallel
// path runs and the counter stays zero.
TEST(ShardedMatchTest, WalForcedSerialApplyIsCounted) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x>) (B ^k <x>) --> (remove 1))
)";
  ShardingOptions so;
  so.num_shards = 4;
  so.threads = 4;

  auto make_batch = [] {
    ChangeSet cs;
    for (int i = 0; i < 16; ++i) {
      cs.AddInsert(i % 2 ? "A" : "B", Tuple{Value(i % 4), Value(i)});
    }
    return cs;
  };

  // WAL-attached: serial fallback, counted per multi-delta batch.
  {
    CatalogOptions copts;
    copts.default_storage = StorageKind::kPaged;
    copts.enable_wal = true;
    auto catalog = std::make_unique<Catalog>(copts);
    std::vector<Rule> rules;
    ASSERT_TRUE(LoadProgram(program, catalog.get(), &rules).ok());
    ReteNetwork matcher(catalog.get());
    for (const Rule& r : rules) ASSERT_TRUE(matcher.AddRule(r).ok());
    WorkingMemory wm(catalog.get(), &matcher);
    ASSERT_TRUE(wm.ConfigureSharding(so).ok());

    ChangeSet cs = make_batch();
    ASSERT_TRUE(wm.Apply(&cs).ok());
    EXPECT_EQ(matcher.stats().sharded_apply_serialized.load(), 1u);
    ChangeSet cs2 = make_batch();
    ASSERT_TRUE(wm.Apply(&cs2).ok());
    EXPECT_EQ(matcher.stats().sharded_apply_serialized.load(), 2u);

    // Single-delta batches never took the parallel path to begin with.
    ChangeSet one;
    one.AddInsert("A", Tuple{Value(99), Value(99)});
    ASSERT_TRUE(wm.Apply(&one).ok());
    EXPECT_EQ(matcher.stats().sharded_apply_serialized.load(), 2u);
  }

  // No WAL: parallel apply engages, nothing to count.
  {
    MatcherHarness h;
    auto factory = [](Catalog* c) {
      return std::make_unique<ReteNetwork>(c);
    };
    ASSERT_TRUE(h.Init(program, factory).ok());
    ASSERT_TRUE(h.wm->ConfigureSharding(so).ok());
    ChangeSet cs = make_batch();
    ASSERT_TRUE(h.wm->Apply(&cs).ok());
    EXPECT_EQ(h.matcher->stats().sharded_apply_serialized.load(), 0u);
  }
}

}  // namespace
}  // namespace prodb
