#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "ruleindex/basic_locking.h"
#include "ruleindex/predicate_index.h"

namespace prodb {
namespace {

IndexedCondition RangeCond(uint32_t id, const std::string& rel, double lo0,
                           double hi0, double lo1, double hi1) {
  IndexedCondition cond;
  cond.id = id;
  cond.relation = rel;
  cond.ranges.push_back({lo0, hi0});
  cond.ranges.push_back({lo1, hi1});
  return cond;
}

class RuleIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("Emp", {{"age", ValueType::kInt},
                                                   {"salary", ValueType::kInt}}),
                                    &rel_)
                    .ok());
  }
  Catalog catalog_;
  Relation* rel_ = nullptr;
};

TEST_F(RuleIndexTest, ConditionMatchesIntervals) {
  IndexedCondition cond = RangeCond(1, "Emp", 30, 50, 0, 1e9);
  EXPECT_TRUE(cond.Matches(Tuple{Value(40), Value(100)}));
  EXPECT_FALSE(cond.Matches(Tuple{Value(20), Value(100)}));
  EXPECT_FALSE(cond.Matches(Tuple{Value("old"), Value(100)}));
  IndexedCondition open;
  open.id = 2;
  open.relation = "Emp";
  open.ranges.push_back({55.0, std::nullopt});  // age > 55, unbounded above
  open.ranges.push_back({std::nullopt, std::nullopt});
  EXPECT_TRUE(open.Matches(Tuple{Value(60), Value(1)}));
  EXPECT_FALSE(open.Matches(Tuple{Value(30), Value(1)}));
}

TEST_F(RuleIndexTest, BasicLockingMarksExistingTuples) {
  TupleId young, old;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(25), Value(100)}, &young).ok());
  ASSERT_TRUE(rel_->Insert(Tuple{Value(60), Value(100)}, &old).ok());
  BasicLockingIndex index(&catalog_);
  ASSERT_TRUE(index.AddCondition(RangeCond(1, "Emp", 55, 1e9, 0, 1e9)).ok());
  EXPECT_EQ(index.MarkerCount(), 1u);  // only the 60-year-old
  // Delete reports the marked condition without any search.
  std::vector<uint32_t> affected;
  ASSERT_TRUE(index.OnDelete("Emp", old, Tuple{Value(60), Value(100)},
                             &affected)
                  .ok());
  EXPECT_EQ(affected, std::vector<uint32_t>{1});
  ASSERT_TRUE(index.OnDelete("Emp", young, Tuple{Value(25), Value(100)},
                             &affected)
                  .ok());
  EXPECT_TRUE(affected.empty());
}

TEST_F(RuleIndexTest, BasicLockingCatchesPhantomInserts) {
  BasicLockingIndex index(&catalog_);
  ASSERT_TRUE(index.AddCondition(RangeCond(1, "Emp", 55, 1e9, 0, 1e9)).ok());
  ASSERT_TRUE(index.AddCondition(RangeCond(2, "Emp", 0, 30, 0, 1e9)).ok());
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(70), Value(10)}, &id).ok());
  std::vector<uint32_t> affected;
  ASSERT_TRUE(
      index.OnInsert("Emp", id, Tuple{Value(70), Value(10)}, &affected).ok());
  EXPECT_EQ(affected, std::vector<uint32_t>{1});
  // The new tuple is now marked: deleting it reports condition 1 again.
  ASSERT_TRUE(
      index.OnDelete("Emp", id, Tuple{Value(70), Value(10)}, &affected).ok());
  EXPECT_EQ(affected, std::vector<uint32_t>{1});
}

TEST_F(RuleIndexTest, BasicLockingRemoveConditionClears) {
  BasicLockingIndex index(&catalog_);
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(60), Value(1)}, &id).ok());
  ASSERT_TRUE(index.AddCondition(RangeCond(1, "Emp", 55, 1e9, 0, 1e9)).ok());
  ASSERT_TRUE(index.RemoveCondition(1).ok());
  EXPECT_EQ(index.MarkerCount(), 0u);
  std::vector<uint32_t> affected;
  TupleId id2;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(80), Value(1)}, &id2).ok());
  ASSERT_TRUE(
      index.OnInsert("Emp", id2, Tuple{Value(80), Value(1)}, &affected).ok());
  EXPECT_TRUE(affected.empty());
  EXPECT_TRUE(index.RemoveCondition(1).IsNotFound());
}

TEST_F(RuleIndexTest, PredicateIndexPointQueries) {
  PredicateIndex index(2);
  ASSERT_TRUE(index.AddCondition(RangeCond(1, "Emp", 55, 1e9, 0, 1e9)).ok());
  ASSERT_TRUE(index.AddCondition(RangeCond(2, "Emp", 0, 30, 0, 50)).ok());
  std::vector<uint32_t> affected;
  ASSERT_TRUE(index.OnInsert("Emp", TupleId{0, 0}, Tuple{Value(60), Value(5)},
                             &affected)
                  .ok());
  EXPECT_EQ(affected, std::vector<uint32_t>{1});
  ASSERT_TRUE(index.OnInsert("Emp", TupleId{0, 1}, Tuple{Value(20), Value(5)},
                             &affected)
                  .ok());
  EXPECT_EQ(affected, std::vector<uint32_t>{2});
  ASSERT_TRUE(index.OnInsert("Emp", TupleId{0, 2}, Tuple{Value(40), Value(5)},
                             &affected)
                  .ok());
  EXPECT_TRUE(affected.empty());
}

// Property: both schemes report exactly the true affected set on random
// workloads (basic locking verifies candidates; predicate boxes are exact
// for interval conditions).
TEST_F(RuleIndexTest, SchemesAgreeWithBruteForce) {
  BasicLockingIndex basic(&catalog_);
  PredicateIndex pred(2);
  std::vector<IndexedCondition> conds;
  Rng rng(3);
  for (uint32_t i = 0; i < 40; ++i) {
    double lo0 = rng.NextDouble() * 80;
    double lo1 = rng.NextDouble() * 80;
    IndexedCondition c =
        RangeCond(i, "Emp", lo0, lo0 + rng.NextDouble() * 30, lo1,
                  lo1 + rng.NextDouble() * 30);
    conds.push_back(c);
    ASSERT_TRUE(basic.AddCondition(c).ok());
    ASSERT_TRUE(pred.AddCondition(c).ok());
  }
  for (int step = 0; step < 300; ++step) {
    Tuple t{Value(static_cast<int64_t>(rng.Uniform(100))),
            Value(static_cast<int64_t>(rng.Uniform(100)))};
    TupleId id;
    ASSERT_TRUE(rel_->Insert(t, &id).ok());
    std::set<uint32_t> want;
    for (const auto& c : conds) {
      if (c.Matches(t)) want.insert(c.id);
    }
    std::vector<uint32_t> a, b;
    ASSERT_TRUE(basic.OnInsert("Emp", id, t, &a).ok());
    ASSERT_TRUE(pred.OnInsert("Emp", id, t, &b).ok());
    EXPECT_EQ(std::set<uint32_t>(a.begin(), a.end()), want);
    EXPECT_EQ(std::set<uint32_t>(b.begin(), b.end()), want);
    // Delete round-trip.
    std::vector<uint32_t> da, db;
    ASSERT_TRUE(basic.OnDelete("Emp", id, t, &da).ok());
    ASSERT_TRUE(pred.OnDelete("Emp", id, t, &db).ok());
    EXPECT_EQ(std::set<uint32_t>(da.begin(), da.end()), want);
    EXPECT_EQ(std::set<uint32_t>(db.begin(), db.end()), want);
    ASSERT_TRUE(rel_->Delete(id).ok());
  }
}

TEST_F(RuleIndexTest, FootprintTradeoff) {
  // Basic locking's space grows with matching *tuples*; predicate
  // indexing's with *conditions* — the crux of [STON86a]'s trade-off.
  BasicLockingIndex basic(&catalog_);
  PredicateIndex pred(2);
  IndexedCondition wide = RangeCond(1, "Emp", 0, 1e9, 0, 1e9);
  for (int i = 0; i < 500; ++i) {
    TupleId id;
    ASSERT_TRUE(rel_->Insert(Tuple{Value(i), Value(i)}, &id).ok());
  }
  ASSERT_TRUE(basic.AddCondition(wide).ok());
  ASSERT_TRUE(pred.AddCondition(wide).ok());
  EXPECT_EQ(basic.MarkerCount(), 500u);
  EXPECT_GT(basic.FootprintBytes(), pred.FootprintBytes());
}

}  // namespace
}  // namespace prodb
