// Secondary-storage tests: working memory (and matcher bookkeeping) on
// paged relations behind a small buffer pool must behave identically to
// memory-resident relations — the paper's core premise is that WM "can
// not, and perhaps should not, reside in main memory" (§1).

#include <gtest/gtest.h>

#include "engine/sequential_engine.h"
#include "match/query_matcher.h"
#include "matcher_test_util.h"
#include "rete/network.h"
#include "txn/transaction.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

// Every paged test ends with the pool's books balanced: no frame may be
// leaked off the free list / LRU / pin accounting by any code path the
// workload exercised.
void ExpectPoolBalanced(Catalog* catalog) {
  Status st = catalog->buffer_pool()->VerifyFrameAccounting();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// Runs the same random trace against a memory catalog and a paged
// catalog (tiny buffer pool: eviction guaranteed); conflict sets must
// stay identical step by step.
void RunPagedVsMemory(const std::string& matcher_spec) {
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 4;
  spec.num_rules = 6;
  spec.ces_per_rule = 3;
  spec.domain = 4;
  spec.seed = 9;
  WorkloadGenerator gen(spec);
  std::vector<Rule> rules = gen.GenerateRules();

  struct Side {
    std::unique_ptr<Catalog> catalog;
    std::unique_ptr<Matcher> matcher;
    std::unique_ptr<WorkingMemory> wm;
  };
  auto make_side = [&](StorageKind kind) {
    Side side;
    CatalogOptions copts;
    copts.default_storage = kind;
    copts.buffer_pool_frames = 8;  // tiny: force eviction traffic
    side.catalog = std::make_unique<Catalog>(copts);
    EXPECT_TRUE(gen.CreateClasses(side.catalog.get(), kind).ok());
    side.matcher = MakeNamedMatcher(matcher_spec, side.catalog.get());
    for (const Rule& r : rules) {
      EXPECT_TRUE(side.matcher->AddRule(r).ok());
    }
    side.wm = std::make_unique<WorkingMemory>(side.catalog.get(),
                                              side.matcher.get());
    return side;
  };
  Side mem = make_side(StorageKind::kMemory);
  Side paged = make_side(StorageKind::kPaged);

  Rng rng(31);
  std::vector<std::pair<std::string, std::pair<TupleId, TupleId>>> live;
  for (int step = 0; step < 150; ++step) {
    if (rng.Chance(0.3) && !live.empty()) {
      size_t pick = rng.Uniform(live.size());
      auto& [cls, ids] = live[pick];
      ASSERT_TRUE(mem.wm->Delete(cls, ids.first).ok());
      ASSERT_TRUE(paged.wm->Delete(cls, ids.second).ok());
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      std::string cls = gen.ClassName(rng.Uniform(spec.num_classes));
      Tuple t = gen.RandomTuple(&rng);
      TupleId a, b;
      ASSERT_TRUE(mem.wm->Insert(cls, t, &a).ok());
      ASSERT_TRUE(paged.wm->Insert(cls, t, &b).ok());
      live.emplace_back(cls, std::make_pair(a, b));
    }
    ASSERT_EQ(CanonicalConflictSet(*paged.matcher),
              CanonicalConflictSet(*mem.matcher))
        << "diverged at step " << step;
  }
  ExpectPoolBalanced(paged.catalog.get());
}

// A modify's new version lands on its old page when it fits there —
// through a transaction and through the WM facade alike — under a new
// id, even though the tail page has room too.
TEST(PagedSystemTest, ModifyPlacesNewVersionOnItsOldPage) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 8;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog
                  .CreateRelation(Schema("Acct", {{"id", ValueType::kInt},
                                                  {"bal", ValueType::kInt}}),
                                  &rel)
                  .ok());
  auto matcher = MakeNamedMatcher("query", &catalog);
  WorkingMemory wm(&catalog, matcher.get());
  std::vector<TupleId> ids;
  for (int64_t i = 0; i < 600; ++i) {
    TupleId id;
    ASSERT_TRUE(wm.Insert("Acct", Tuple{Value(i), Value(i)}, &id).ok());
    ids.push_back(id);
  }
  ASSERT_NE(ids.front().page_id, ids.back().page_id);

  LockManager locks;
  TxnManager tm(&catalog, &locks);
  auto txn = tm.Begin();
  TupleId moved;
  ASSERT_TRUE(
      txn->Modify("Acct", ids[0], Tuple{Value(int64_t{0}), Value(-5)}, &moved)
          .ok());
  EXPECT_EQ(moved.page_id, ids[0].page_id);
  EXPECT_NE(moved, ids[0]);
  ASSERT_TRUE(tm.Commit(txn.get(), [&](const ChangeSet& delta) {
                  return matcher->OnBatch(delta);
                }).ok());

  TupleId again;
  ASSERT_TRUE(
      wm.Modify("Acct", ids[1], Tuple{Value(int64_t{1}), Value(-7)}, &again)
          .ok());
  EXPECT_EQ(again.page_id, ids[1].page_id);
  EXPECT_NE(again, ids[1]);
  EXPECT_EQ(rel->Count(), 600u);
  ExpectPoolBalanced(&catalog);
}

TEST(PagedSystemTest, QueryMatcherPagedEqualsMemory) {
  RunPagedVsMemory("query");
}

TEST(PagedSystemTest, PatternMatcherPagedEqualsMemory) {
  RunPagedVsMemory("pattern");
}

TEST(PagedSystemTest, ReteMatcherPagedEqualsMemory) {
  RunPagedVsMemory("rete");
}

TEST(PagedSystemTest, DbmsRetePagedMemoriesEndToEnd) {
  // Everything on pages: WM relations and the Rete LEFT/RIGHT memories.
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 4;  // fewer frames than relations: must evict
  Catalog catalog(copts);
  std::vector<Rule> rules;
  ASSERT_TRUE(LoadProgram(kThreeWayJoin, &catalog, &rules).ok());
  ReteNetwork matcher(&catalog,
                      MatcherSpec{.kind = MatcherKind::kReteDbms},
                      StorageKind::kPaged);
  for (const Rule& r : rules) {
    ASSERT_TRUE(matcher.AddRule(r).ok());
  }
  WorkingMemory wm(&catalog, &matcher);
  TupleId b;
  ASSERT_TRUE(wm.Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  ASSERT_TRUE(wm.Insert("B", Tuple{Value(4), Value(7), Value("b")}, &b).ok());
  ASSERT_TRUE(wm.Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  EXPECT_EQ(matcher.conflict_set().size(), 1u);
  ASSERT_TRUE(wm.Delete("B", b).ok());
  EXPECT_TRUE(matcher.conflict_set().empty());
  // Buffer pool really paged: more pages than frames.
  EXPECT_GT(catalog.buffer_pool()->stats().misses, 0u);
  ExpectPoolBalanced(&catalog);
}

TEST(PagedSystemTest, EngineRunsOnFileBackedDatabase) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 8;
  copts.db_path = testing::TempDir() + "/prodb_paged_engine.db";
  Catalog catalog(copts);
  std::vector<Rule> rules;
  ASSERT_TRUE(LoadProgram(kEmpDept, &catalog, &rules).ok());
  QueryMatcher matcher(&catalog);
  for (const Rule& r : rules) {
    ASSERT_TRUE(matcher.AddRule(r).ok());
  }
  SequentialEngine engine(&catalog, &matcher);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Insert("Emp", Tuple{Value("E" + std::to_string(i)),
                                           Value(30), Value(100), Value(1),
                                           Value("Sam")})
                    .ok());
  }
  ASSERT_TRUE(
      engine.Insert("Dept", Tuple{Value(1), Value("Toy"), Value(1),
                                  Value("S")})
          .ok());
  EngineRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(result.firings, 100u);
  EXPECT_EQ(catalog.Get("Emp")->Count(), 0u);
  ExpectPoolBalanced(&catalog);
  std::remove(copts.db_path.c_str());
}

}  // namespace
}  // namespace prodb
