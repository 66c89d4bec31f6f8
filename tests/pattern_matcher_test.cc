#include "match/pattern_matcher.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matcher_test_util.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

class PatternMatcherTest : public ::testing::Test {
 protected:
  void Load(const std::string& source, const std::string& spec = "pattern",
            StorageKind cond_storage = StorageKind::kMemory) {
    ASSERT_TRUE(harness_
                    .Init(source,
                          [&](Catalog* c) {
                            return MakeMatcher(NamedSpec(spec), c,
                                               cond_storage);
                          })
                    .ok());
    pm_ = static_cast<PatternMatcher*>(harness_.matcher.get());
  }
  WorkingMemory& wm() { return *harness_.wm; }
  ConflictSet& cs() { return harness_.matcher->conflict_set(); }
  MatcherHarness harness_;
  PatternMatcher* pm_ = nullptr;
};

// The paper's Example 5: insert B(4,5,b), C(c,7,8), A(4,a,8), B(4,7,b);
// Rule-1 must enter the conflict set exactly at the last insertion.
TEST_F(PatternMatcherTest, ExampleFiveTrace) {
  Load(kThreeWayJoin);
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(5), Value("b")}).ok());
  EXPECT_TRUE(cs().empty());
  // B's arrival propagated a matching pattern into COND-A (x=4) and
  // COND-C (y=5).
  EXPECT_EQ(pm_->PatternCount("A"), 1u);
  EXPECT_EQ(pm_->PatternCount("C"), 1u);

  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  EXPECT_TRUE(cs().empty());
  // C contributes to COND-A (z=8) and COND-B (y=7).
  EXPECT_EQ(pm_->PatternCount("A"), 2u);
  EXPECT_EQ(pm_->PatternCount("B"), 1u);

  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  EXPECT_TRUE(cs().empty());  // B(4,5,b) has y=5, C needs y=7: no match yet

  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  ASSERT_EQ(cs().size(), 1u);
  const Instantiation inst = cs().Snapshot()[0];
  EXPECT_EQ(inst.rule_name, "Rule-1");
  EXPECT_EQ(inst.tuples[0], (Tuple{Value(4), Value("a"), Value(8)}));
  EXPECT_EQ(inst.tuples[1], (Tuple{Value(4), Value(7), Value("b")}));
  EXPECT_EQ(inst.tuples[2], (Tuple{Value("c"), Value(7), Value(8)}));
}

TEST_F(PatternMatcherTest, CondRelationsExistWithOriginalRows) {
  Load(kThreeWayJoin);
  for (const char* cls : {"A", "B", "C"}) {
    Relation* cond = pm_->CondRelation(cls);
    ASSERT_NE(cond, nullptr) << cls;
    // One original condition row before any WM activity.
    EXPECT_EQ(cond->Count(), 1u) << cls;
    EXPECT_EQ(cond->schema().name(), std::string("COND-") + cls);
  }
  // Inserting a B adds narrowed pattern rows to COND-A and COND-C.
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(5), Value("b")}).ok());
  EXPECT_EQ(pm_->CondRelation("A")->Count(), 2u);
  EXPECT_EQ(pm_->CondRelation("C")->Count(), 2u);
  EXPECT_EQ(pm_->CondRelation("B")->Count(), 1u);
}

TEST_F(PatternMatcherTest, DeletionDecrementsCounters) {
  Load(kThreeWayJoin);
  TupleId b1, b2;
  // Two identical-join B tuples: the x=4 pattern in COND-A has counter 2.
  ASSERT_TRUE(
      wm().Insert("B", Tuple{Value(4), Value(5), Value("b")}, &b1).ok());
  ASSERT_TRUE(
      wm().Insert("B", Tuple{Value(4), Value(9), Value("b")}, &b2).ok());
  EXPECT_EQ(pm_->PatternCount("A"), 1u);  // same projection x=4
  ASSERT_TRUE(wm().Delete("B", b1).ok());
  EXPECT_EQ(pm_->PatternCount("A"), 1u);  // still supported by b2
  ASSERT_TRUE(wm().Delete("B", b2).ok());
  EXPECT_EQ(pm_->PatternCount("A"), 0u);  // counter hit zero: row removed
  EXPECT_EQ(pm_->CondRelation("A")->Count(), 1u);  // original row remains
}

TEST_F(PatternMatcherTest, DeleteRetractsInstantiation) {
  Load(kThreeWayJoin);
  TupleId a;
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  ASSERT_TRUE(
      wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}, &a).ok());
  ASSERT_EQ(cs().size(), 1u);
  ASSERT_TRUE(wm().Delete("A", a).ok());
  EXPECT_TRUE(cs().empty());
}

TEST_F(PatternMatcherTest, NegatedConditionLifecycle) {
  Load(R"(
(literalize Order id status)
(literalize Assignment order machine)
(p Idle
  (Order ^id <o> ^status pending)
  -(Assignment ^order <o>)
  -->
  (remove 1))
)");
  ASSERT_TRUE(wm().Insert("Order", Tuple{Value(1), Value("pending")}).ok());
  ASSERT_EQ(cs().size(), 1u);
  TupleId blocker;
  ASSERT_TRUE(
      wm().Insert("Assignment", Tuple{Value(1), Value(7)}, &blocker).ok());
  EXPECT_TRUE(cs().empty());
  ASSERT_TRUE(wm().Delete("Assignment", blocker).ok());
  ASSERT_EQ(cs().size(), 1u);
}

TEST_F(PatternMatcherTest, SingleSearchDoesNotScanWm) {
  // §4.2.3: matching consults COND-<class>, not the other WM relations,
  // until support exists. Filling B with non-matching tuples must not
  // make an A insertion more expensive in WM terms.
  Load(kThreeWayJoin);
  for (int i = 0; i < 100; ++i) {
    // b3 != 'b': fails B's own alpha test, never reaches patterns.
    ASSERT_TRUE(
        wm().Insert("B", Tuple{Value(i), Value(i), Value("z")}).ok());
  }
  EXPECT_EQ(pm_->PatternCount("A"), 0u);
  uint64_t examined_before = pm_->stats().tuples_examined.load();
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  // The A insertion examined no patterns (COND-A holds none).
  EXPECT_EQ(pm_->stats().tuples_examined.load(), examined_before);
}

TEST_F(PatternMatcherTest, RuleDefSyncReflectsSatisfaction) {
  Load(kThreeWayJoin);
  ASSERT_NE(pm_->rule_def(), nullptr);
  EXPECT_EQ(pm_->rule_def()->Count(), 3u);  // one row per CE
  ASSERT_TRUE(pm_->SyncRuleDef().ok());
  // Nothing satisfied yet.
  ASSERT_TRUE(pm_->rule_def()
                  ->Scan([](TupleId, const Tuple& t) {
                    EXPECT_EQ(t[2], Value(int64_t{0}));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  ASSERT_TRUE(pm_->SyncRuleDef().ok());
  int set_bits = 0;
  ASSERT_TRUE(pm_->rule_def()
                  ->Scan([&](TupleId, const Tuple& t) {
                    if (t[2] == Value(int64_t{1})) ++set_bits;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(set_bits, 1);  // only CE 1 (class A) satisfied
}

TEST_F(PatternMatcherTest, ParallelPropagationMatchesSequential) {
  Load(kThreeWayJoin, "pattern-shard4");  // 4 propagation threads
  MatcherHarness seq;
  ASSERT_TRUE(seq.Init(kThreeWayJoin,
                       [](Catalog* c) {
                         return std::make_unique<PatternMatcher>(c);
                       })
                  .ok());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const char* classes[] = {"A", "B", "C"};
    size_t c = rng.Uniform(3);
    Tuple t;
    if (c == 0) {
      t = Tuple{Value(static_cast<int64_t>(rng.Uniform(5))), Value("a"),
                Value(static_cast<int64_t>(rng.Uniform(5)))};
    } else if (c == 1) {
      t = Tuple{Value(static_cast<int64_t>(rng.Uniform(5))),
                Value(static_cast<int64_t>(rng.Uniform(5))), Value("b")};
    } else {
      t = Tuple{Value("c"), Value(static_cast<int64_t>(rng.Uniform(5))),
                Value(static_cast<int64_t>(rng.Uniform(5)))};
    }
    ASSERT_TRUE(wm().Insert(classes[c], t).ok());
    ASSERT_TRUE(seq.wm->Insert(classes[c], t).ok());
  }
  EXPECT_EQ(CanonicalConflictSet(*harness_.matcher),
            CanonicalConflictSet(*seq.matcher));
}

TEST_F(PatternMatcherTest, PagedCondStorageWorks) {
  Load(kThreeWayJoin, "pattern", StorageKind::kPaged);
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  EXPECT_EQ(cs().size(), 1u);
  EXPECT_EQ(pm_->CondRelation("A")->storage_kind(), StorageKind::kPaged);
}

TEST_F(PatternMatcherTest, FootprintGrowsWithPatterns) {
  Load(kThreeWayJoin);
  size_t before = pm_->AuxiliaryFootprintBytes();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        wm().Insert("B", Tuple{Value(i), Value(i), Value("b")}).ok());
  }
  EXPECT_GT(pm_->AuxiliaryFootprintBytes(), before);
}

}  // namespace
}  // namespace prodb
