// Edge cases for the §4.2 matching-pattern matcher beyond the Example 5
// walkthrough: duplicate WM elements, constant-only negation, rules
// sharing classes, and stale-pattern tolerance.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/production_system.h"
#include "match/pattern_matcher.h"
#include "matcher_test_util.h"

namespace prodb {
namespace {

class PatternEdgeTest : public ::testing::Test {
 protected:
  void Load(const std::string& source) {
    ASSERT_TRUE(harness_
                    .Init(source,
                          [](Catalog* c) {
                            return std::make_unique<PatternMatcher>(c);
                          })
                    .ok());
    pm_ = static_cast<PatternMatcher*>(harness_.matcher.get());
  }
  WorkingMemory& wm() { return *harness_.wm; }
  ConflictSet& cs() { return harness_.matcher->conflict_set(); }
  MatcherHarness harness_;
  PatternMatcher* pm_ = nullptr;
};

TEST_F(PatternEdgeTest, DuplicateWmElementsYieldDistinctInstantiations) {
  // OPS5 working memory is a multiset: equal-valued elements are
  // distinct. Both pairs must instantiate; deleting one leaves one.
  Load(R"(
(literalize L k)
(literalize R k)
(p join (L ^k <x>) (R ^k <x>) --> (remove 1))
)");
  TupleId l1, l2;
  ASSERT_TRUE(wm().Insert("L", Tuple{Value(1)}, &l1).ok());
  ASSERT_TRUE(wm().Insert("L", Tuple{Value(1)}, &l2).ok());
  ASSERT_TRUE(wm().Insert("R", Tuple{Value(1)}).ok());
  EXPECT_EQ(cs().size(), 2u);
  // The x=1 pattern in COND-R carries counter 2; deleting one L keeps it.
  EXPECT_EQ(pm_->PatternCount("R"), 1u);
  ASSERT_TRUE(wm().Delete("L", l1).ok());
  EXPECT_EQ(cs().size(), 1u);
  EXPECT_EQ(pm_->PatternCount("R"), 1u);
  ASSERT_TRUE(wm().Delete("L", l2).ok());
  EXPECT_TRUE(cs().empty());
  EXPECT_EQ(pm_->PatternCount("R"), 0u);
}

TEST_F(PatternEdgeTest, ConstantOnlyNegation) {
  // Negated CE with no variables: a global gate.
  Load(R"(
(literalize Job id)
(literalize Freeze flag)
(p run (Job ^id <x>) -(Freeze ^flag on) --> (remove 1))
)");
  TupleId freeze;
  ASSERT_TRUE(wm().Insert("Freeze", Tuple{Value("on")}, &freeze).ok());
  ASSERT_TRUE(wm().Insert("Job", Tuple{Value(1)}).ok());
  EXPECT_TRUE(cs().empty());  // gated
  ASSERT_TRUE(wm().Delete("Freeze", freeze).ok());
  EXPECT_EQ(cs().size(), 1u);  // gate lifted re-enables the job
  // A non-matching Freeze value does not gate.
  ASSERT_TRUE(wm().Insert("Freeze", Tuple{Value("off")}).ok());
  EXPECT_EQ(cs().size(), 1u);
}

TEST_F(PatternEdgeTest, TwoRulesSharingClassesKeepSeparateCounters) {
  Load(R"(
(literalize E k v)
(literalize F k v)
(p r1 (E ^k <x>) (F ^k <x>) --> (remove 1))
(p r2 (E ^v <y>) (F ^v <y>) --> (remove 1))
)");
  ASSERT_TRUE(wm().Insert("E", Tuple{Value(1), Value(2)}).ok());
  // COND-F receives one pattern per rule (different projections).
  EXPECT_EQ(pm_->PatternCount("F"), 2u);
  ASSERT_TRUE(wm().Insert("F", Tuple{Value(1), Value(9)}).ok());
  // Only r1's join matches (k=1); r2 needs v=2.
  auto snap = cs().Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].rule_name, "r1");
  ASSERT_TRUE(wm().Insert("F", Tuple{Value(7), Value(2)}).ok());
  EXPECT_EQ(cs().size(), 2u);
}

TEST_F(PatternEdgeTest, ModifyMovesPatternsConsistently) {
  Load(R"(
(literalize L k)
(literalize R k)
(p join (L ^k <x>) (R ^k <x>) --> (remove 1))
)");
  TupleId l;
  ASSERT_TRUE(wm().Insert("L", Tuple{Value(1)}, &l).ok());
  ASSERT_TRUE(wm().Insert("R", Tuple{Value(2)}).ok());
  EXPECT_TRUE(cs().empty());
  // Modify L's key to 2: delete+insert through the matcher.
  ASSERT_TRUE(wm().Modify("L", l, Tuple{Value(2)}, &l).ok());
  EXPECT_EQ(cs().size(), 1u);
  // The old x=1 pattern died with the modification.
  EXPECT_EQ(pm_->PatternCount("R"), 1u);
}

TEST_F(PatternEdgeTest, RandomChurnAgainstOracleWithDuplicates) {
  const char* program = R"(
(literalize L k v)
(literalize R k v)
(p join (L ^k <x> ^v <y>) (R ^k <x> ^v <y>) --> (remove 1))
)";
  Load(program);
  MatcherHarness oracle;
  ASSERT_TRUE(oracle.Init(program, "query").ok());
  Rng rng(77);
  std::vector<std::pair<std::string, std::pair<TupleId, TupleId>>> live;
  for (int step = 0; step < 400; ++step) {
    if (rng.Chance(0.4) && !live.empty()) {
      size_t pick = rng.Uniform(live.size());
      auto& [cls, ids] = live[pick];
      ASSERT_TRUE(wm().Delete(cls, ids.first).ok());
      ASSERT_TRUE(oracle.wm->Delete(cls, ids.second).ok());
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      // Tiny domain: duplicates guaranteed.
      std::string cls = rng.Chance(0.5) ? "L" : "R";
      Tuple t{Value(static_cast<int64_t>(rng.Uniform(2))),
              Value(static_cast<int64_t>(rng.Uniform(2)))};
      TupleId a, b;
      ASSERT_TRUE(wm().Insert(cls, t, &a).ok());
      ASSERT_TRUE(oracle.wm->Insert(cls, t, &b).ok());
      live.emplace_back(cls, std::make_pair(a, b));
    }
    ASSERT_EQ(CanonicalConflictSet(*harness_.matcher),
              CanonicalConflictSet(*oracle.matcher))
        << "step " << step;
  }
}

// A rule whose second CE cannot get its COND relation (a WM class is
// already named COND-B) must install nothing. The failed load used to
// leave CE 0 dispatched under a rule index no rule holds, and the next
// insert into A read past the end of the rule list. The pattern matcher
// is the default, so this is the default server's kLoad then kBatch.
TEST(PatternEdgeFailureTest, FailedAddRuleDispatchesNothing) {
  ProductionSystem ps;
  Status st = ps.LoadString(
      "(literalize A k) (literalize B k) (literalize COND-B k)"
      " (p bad (A ^k <x>) (B ^k <x>) --> (remove 1))");
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  EXPECT_TRUE(ps.rules().empty());
  EXPECT_TRUE(ps.Insert("A", Tuple{Value(1)}).ok());
  EXPECT_TRUE(ps.Insert("B", Tuple{Value(1)}).ok());
  EXPECT_TRUE(ps.conflict_set().empty());
}

}  // namespace
}  // namespace prodb
