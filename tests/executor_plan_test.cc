// Plan-order and evaluation-strategy edge cases for the conjunctive
// executor — the §3.2 freedom the DBMS approach has over Rete's fixed
// left-deep plan.

#include <gtest/gtest.h>

#include "db/executor.h"
#include "plan/planner.h"

namespace prodb {
namespace {

class ExecutorPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* rel;
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("Big", {{"k", ValueType::kInt},
                                                   {"v", ValueType::kInt}}),
                                    &rel)
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("Small", {{"k", ValueType::kInt},
                                                     {"tag", ValueType::kInt}}),
                                    &rel)
                    .ok());
    for (int i = 0; i < 200; ++i) {
      TupleId id;
      ASSERT_TRUE(catalog_.Get("Big")
                      ->Insert(Tuple{Value(i % 40), Value(i)}, &id)
                      .ok());
    }
    for (int i = 0; i < 5; ++i) {
      TupleId id;
      ASSERT_TRUE(catalog_.Get("Small")
                      ->Insert(Tuple{Value(i), Value(7)}, &id)
                      .ok());
    }
  }

  ConjunctiveQuery PessimalOrderQuery() {
    ConjunctiveQuery q;
    ConditionSpec big;
    big.relation = "Big";
    big.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
    ConditionSpec small;
    small.relation = "Small";
    small.constant_tests.push_back(ConstantTest{1, CompareOp::kEq, Value(7)});
    small.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
    q.conditions = {big, small};
    q.num_vars = 1;
    return q;
  }

  // The cost-based planner's join order for `q` over the fixture's
  // current contents — passed to the executor as `forced_order`.
  std::vector<size_t> PlannedOrder(const ConjunctiveQuery& q) {
    CatalogStats stats;
    for (const ConditionSpec& c : q.conditions) {
      stats.Register(c.relation, catalog_.Get(c.relation));
    }
    PlannerOptions po;
    po.enable = true;
    return JoinPlanner(&stats, po).Plan(q).order;
  }

  Catalog catalog_;
};

TEST_F(ExecutorPlanTest, ReorderEqualsFixedOrderResults) {
  const std::vector<size_t> planned = PlannedOrder(PessimalOrderQuery());
  ASSERT_EQ(planned, (std::vector<size_t>{1, 0}));  // Small first
  Executor exec(&catalog_);
  std::vector<QueryMatch> ma, mb;
  ASSERT_TRUE(exec.Evaluate(PessimalOrderQuery(), &ma).ok());
  ASSERT_TRUE(exec.Evaluate(PessimalOrderQuery(), &mb, &planned).ok());
  EXPECT_EQ(ma.size(), mb.size());
  EXPECT_EQ(ma.size(), 25u);  // 5 small keys × 5 Big tuples per key
}

TEST_F(ExecutorPlanTest, ReorderRespectsNonEqBinderDependencies) {
  // CE0 tests v < <m> where <m> is bound by CE1; a planned order must
  // keep CE1 (the binder) before CE0 even though CE0 has "more" constant
  // tests.
  ConjunctiveQuery q;
  ConditionSpec tested;
  tested.relation = "Big";
  tested.constant_tests.push_back(ConstantTest{0, CompareOp::kGe, Value(0)});
  tested.constant_tests.push_back(
      ConstantTest{0, CompareOp::kLe, Value(1000)});
  tested.var_uses.push_back(VarUse{1, 0, CompareOp::kLt});  // v < <m>
  ConditionSpec binder;
  binder.relation = "Small";
  binder.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});  // k = <m>
  q.conditions = {tested, binder};
  q.num_vars = 1;

  // In LHS order the non-eq test defers until the binder arrives; the
  // planned order puts the binder first. Both must agree.
  const std::vector<size_t> planned = PlannedOrder(q);
  ASSERT_EQ(planned, (std::vector<size_t>{1, 0}));
  Executor exec(&catalog_);
  std::vector<QueryMatch> ma, mb;
  ASSERT_TRUE(exec.Evaluate(q, &ma).ok());
  ASSERT_TRUE(exec.Evaluate(q, &mb, &planned).ok());
  EXPECT_EQ(ma.size(), mb.size());
  EXPECT_GT(ma.size(), 0u);
}

TEST_F(ExecutorPlanTest, SeededPlusReorderAgree) {
  Relation* small = catalog_.Get("Small");
  std::vector<std::pair<TupleId, Tuple>> rows;
  ASSERT_TRUE(small->Select(Selection{}, &rows).ok());
  ASSERT_FALSE(rows.empty());
  const std::vector<size_t> planned = PlannedOrder(PessimalOrderQuery());
  Executor exec(&catalog_);
  std::vector<QueryMatch> ma, mb;
  ASSERT_TRUE(exec.EvaluateSeeded(PessimalOrderQuery(), 1, rows[0].first,
                                  rows[0].second, &ma)
                  .ok());
  ASSERT_TRUE(exec.EvaluateSeeded(PessimalOrderQuery(), 1, rows[0].first,
                                  rows[0].second, &mb, &planned)
                  .ok());
  EXPECT_EQ(ma.size(), mb.size());
  EXPECT_EQ(ma.size(), 5u);
}

TEST_F(ExecutorPlanTest, EmptyRelationShortCircuits) {
  Relation* rel;
  ASSERT_TRUE(catalog_
                  .CreateRelation(Schema("Empty", {{"k", ValueType::kInt}}),
                                  &rel)
                  .ok());
  ConjunctiveQuery q = PessimalOrderQuery();
  ConditionSpec empty;
  empty.relation = "Empty";
  q.conditions.push_back(empty);
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  EXPECT_TRUE(matches.empty());
}

TEST_F(ExecutorPlanTest, DuplicateVariableWithinCe) {
  // Big tuples where k == v (intra-CE variable repetition).
  ConjunctiveQuery q;
  ConditionSpec ce;
  ce.relation = "Big";
  ce.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ce.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});
  q.conditions = {ce};
  q.num_vars = 1;
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  for (const QueryMatch& m : matches) {
    EXPECT_EQ(m.tuples[0][0], m.tuples[0][1]);
  }
  // i%40 == i only for i in [0, 40): exactly 40 matches.
  EXPECT_EQ(matches.size(), 40u);
}

TEST_F(ExecutorPlanTest, MultipleNegatedConditions) {
  ConjunctiveQuery q;
  ConditionSpec small;
  small.relation = "Small";
  small.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec no_big;  // no Big with k = <m>
  no_big.relation = "Big";
  no_big.negated = true;
  no_big.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec no_big2;  // and no Big with v = <m>
  no_big2.relation = "Big";
  no_big2.negated = true;
  no_big2.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});
  q.conditions = {small, no_big, no_big2};
  q.num_vars = 1;
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  // Small keys 0..4 all collide with Big's k range 0..39: no matches.
  EXPECT_TRUE(matches.empty());
}

}  // namespace
}  // namespace prodb
