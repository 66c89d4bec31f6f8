#include "db/executor.h"

#include <gtest/gtest.h>

#include "plan/planner.h"

namespace prodb {
namespace {

// Shared fixture: the paper's Emp/Dept database (Example 3).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* rel;
    ASSERT_TRUE(catalog_
                    .CreateRelation(
                        Schema("Emp", {{"name", ValueType::kSymbol},
                                       {"salary", ValueType::kInt},
                                       {"dno", ValueType::kInt},
                                       {"manager", ValueType::kSymbol}}),
                        &rel)
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateRelation(
                        Schema("Dept", {{"dno", ValueType::kInt},
                                        {"dname", ValueType::kSymbol},
                                        {"floor", ValueType::kInt}}),
                        &rel)
                    .ok());
  }

  TupleId AddEmp(const std::string& name, int salary, int dno,
                 const std::string& mgr) {
    TupleId id;
    EXPECT_TRUE(catalog_.Get("Emp")
                    ->Insert(Tuple{Value(name), Value(salary), Value(dno),
                                   Value(mgr)},
                             &id)
                    .ok());
    return id;
  }
  TupleId AddDept(int dno, const std::string& dname, int floor) {
    TupleId id;
    EXPECT_TRUE(catalog_.Get("Dept")
                    ->Insert(Tuple{Value(dno), Value(dname), Value(floor)},
                             &id)
                    .ok());
    return id;
  }

  // R2 of Example 3: employees in the Toy department on floor 1.
  ConjunctiveQuery ToyFloorOneQuery() {
    ConjunctiveQuery q;
    ConditionSpec emp;
    emp.relation = "Emp";
    emp.var_uses.push_back(VarUse{2, 0, CompareOp::kEq});  // dno = <d>
    ConditionSpec dept;
    dept.relation = "Dept";
    dept.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});  // dno = <d>
    dept.constant_tests.push_back(
        ConstantTest{1, CompareOp::kEq, Value("Toy")});
    dept.constant_tests.push_back(ConstantTest{2, CompareOp::kEq, Value(1)});
    q.conditions = {emp, dept};
    q.num_vars = 1;
    return q;
  }

  Catalog catalog_;
};

TEST_F(ExecutorTest, TwoWayJoin) {
  AddEmp("Mike", 100, 1, "Sam");
  AddEmp("Ann", 200, 2, "Sam");
  AddDept(1, "Toy", 1);
  AddDept(2, "Shoe", 1);
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(ToyFloorOneQuery(), &matches).ok());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].tuples[0][0], Value("Mike"));
  EXPECT_EQ(*matches[0].binding[0], Value(1));
}

TEST_F(ExecutorTest, SelfJoinWithInequality) {
  // R1 of Example 3: Mike earns more than his manager.
  AddEmp("Mike", 100, 1, "Sam");
  AddEmp("Sam", 60, 1, "Board");
  ConjunctiveQuery q;
  ConditionSpec mike;
  mike.relation = "Emp";
  mike.constant_tests.push_back(
      ConstantTest{0, CompareOp::kEq, Value("Mike")});
  mike.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});  // salary <s>
  mike.var_uses.push_back(VarUse{3, 1, CompareOp::kEq});  // manager <m>
  ConditionSpec mgr;
  mgr.relation = "Emp";
  mgr.var_uses.push_back(VarUse{0, 1, CompareOp::kEq});  // name = <m>
  mgr.var_uses.push_back(VarUse{1, 0, CompareOp::kLt});  // salary < <s>
  q.conditions = {mike, mgr};
  q.num_vars = 2;

  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].tuples[1][0], Value("Sam"));

  // Raise the manager's salary (a delete then an insert): no match.
  Relation* emp = catalog_.Get("Emp");
  TupleId sam_id = matches[0].tuple_ids[1];
  TupleId nid;
  ASSERT_TRUE(emp->Delete(sam_id).ok());
  ASSERT_TRUE(
      emp->Insert(Tuple{Value("Sam"), Value(150), Value(1), Value("Board")},
                  &nid)
          .ok());
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  EXPECT_TRUE(matches.empty());
}

TEST_F(ExecutorTest, NegatedConditionFiltersMatches) {
  AddEmp("Mike", 100, 1, "Sam");
  AddEmp("Ann", 100, 2, "Sam");
  AddDept(1, "Toy", 1);
  ConjunctiveQuery q;
  ConditionSpec emp;
  emp.relation = "Emp";
  emp.var_uses.push_back(VarUse{2, 0, CompareOp::kEq});
  ConditionSpec nodept;  // employees whose department does not exist
  nodept.relation = "Dept";
  nodept.negated = true;
  nodept.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  q.conditions = {emp, nodept};
  q.num_vars = 1;
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].tuples[0][0], Value("Ann"));
  EXPECT_EQ(matches[0].tuple_ids[1], QueryMatch::kNoTuple);
}

TEST_F(ExecutorTest, SeededEvaluationOnlySeesSeedCombinations) {
  AddEmp("Mike", 100, 1, "Sam");
  AddEmp("Bob", 100, 1, "Sam");
  TupleId dept = AddDept(1, "Toy", 1);
  Tuple dept_tuple{Value(1), Value("Toy"), Value(1)};
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  // Seed the Dept CE: both employees should pair with it.
  ASSERT_TRUE(exec.EvaluateSeeded(ToyFloorOneQuery(), 1, dept, dept_tuple,
                                  &matches)
                  .ok());
  EXPECT_EQ(matches.size(), 2u);
  // Seed with a tuple that fails its own CE: nothing.
  Tuple shoe{Value(1), Value("Shoe"), Value(1)};
  ASSERT_TRUE(
      exec.EvaluateSeeded(ToyFloorOneQuery(), 1, dept, shoe, &matches).ok());
  EXPECT_TRUE(matches.empty());
  // Seeding a negated CE is an error.
  ConjunctiveQuery q = ToyFloorOneQuery();
  q.conditions[1].negated = true;
  EXPECT_TRUE(exec.EvaluateSeeded(q, 1, dept, dept_tuple, &matches)
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, EvaluateBoundRestrictsVariables) {
  AddEmp("Mike", 100, 1, "Sam");
  AddEmp("Ann", 100, 2, "Sam");
  AddDept(1, "Toy", 1);
  AddDept(2, "Toy", 1);
  Executor exec(&catalog_);
  Binding binding(1);
  binding[0] = Value(2);  // <d> = 2
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.EvaluateBound(ToyFloorOneQuery(), binding, &matches).ok());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].tuples[0][0], Value("Ann"));
}

TEST_F(ExecutorTest, ReorderProducesSameMatches) {
  for (int i = 0; i < 20; ++i) {
    AddEmp("E" + std::to_string(i), 100 + i, i % 4, "Sam");
  }
  AddDept(2, "Toy", 1);
  // The cost-based planner's order, passed to Evaluate as forced_order.
  CatalogStats stats;
  stats.Register("Emp", catalog_.Get("Emp"));
  stats.Register("Dept", catalog_.Get("Dept"));
  PlannerOptions po;
  po.enable = true;
  const std::vector<size_t> planned =
      JoinPlanner(&stats, po).Plan(ToyFloorOneQuery()).order;
  ASSERT_EQ(planned, (std::vector<size_t>{1, 0}));  // Dept first
  Executor exec(&catalog_);
  std::vector<QueryMatch> a, b;
  ASSERT_TRUE(exec.Evaluate(ToyFloorOneQuery(), &a).ok());
  ASSERT_TRUE(exec.Evaluate(ToyFloorOneQuery(), &b, &planned).ok());
  ASSERT_EQ(a.size(), b.size());
  // Same tuple-id combinations regardless of plan.
  auto key = [](const QueryMatch& m) {
    std::string k;
    for (auto id : m.tuple_ids) k += id.ToString();
    return k;
  };
  std::multiset<std::string> ka, kb;
  for (const auto& m : a) ka.insert(key(m));
  for (const auto& m : b) kb.insert(key(m));
  EXPECT_EQ(ka, kb);
}

TEST_F(ExecutorTest, IndexProbeMatchesScan) {
  ASSERT_TRUE(catalog_.Get("Dept")->CreateHashIndex(0).ok());
  for (int i = 0; i < 30; ++i) {
    AddEmp("E" + std::to_string(i), 100, i % 10, "Sam");
    AddDept(i % 10, i % 2 ? "Toy" : "Shoe", 1);
  }
  ExecutorOptions no_index;
  no_index.use_indexes = false;
  Executor with(&catalog_), without(&catalog_, no_index);
  std::vector<QueryMatch> a, b;
  ASSERT_TRUE(with.Evaluate(ToyFloorOneQuery(), &a).ok());
  ASSERT_TRUE(without.Evaluate(ToyFloorOneQuery(), &b).ok());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
}

TEST_F(ExecutorTest, ThreeWayJoinChainsBindings) {
  // Emp -> Dept via dno, Dept -> Emp(manager) via manager name.
  Relation* rel;
  ASSERT_TRUE(catalog_
                  .CreateRelation(Schema("Mgr", {{"name", ValueType::kSymbol},
                                                 {"level", ValueType::kInt}}),
                                  &rel)
                  .ok());
  AddEmp("Mike", 100, 1, "Sam");
  AddDept(1, "Toy", 1);
  TupleId id;
  ASSERT_TRUE(
      rel->Insert(Tuple{Value("Sam"), Value(3)}, &id).ok());

  ConjunctiveQuery q;
  ConditionSpec emp;
  emp.relation = "Emp";
  emp.var_uses.push_back(VarUse{2, 0, CompareOp::kEq});  // dno <d>
  emp.var_uses.push_back(VarUse{3, 1, CompareOp::kEq});  // manager <m>
  ConditionSpec dept;
  dept.relation = "Dept";
  dept.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec mgr;
  mgr.relation = "Mgr";
  mgr.var_uses.push_back(VarUse{0, 1, CompareOp::kEq});
  q.conditions = {emp, dept, mgr};
  q.num_vars = 2;

  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(*matches[0].binding[1], Value("Sam"));
}

TEST_F(ExecutorTest, MissingRelationReported) {
  ConjunctiveQuery q;
  ConditionSpec c;
  c.relation = "Ghost";
  q.conditions = {c};
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  EXPECT_TRUE(exec.Evaluate(q, &matches).IsNotFound());
}

}  // namespace
}  // namespace prodb
