#include "engine/sequential_engine.h"

#include <gtest/gtest.h>

#include "matcher_test_util.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

// The engine must behave identically over any matcher; parameterize.
class SequentialEngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Load(const std::string& source,
            SequentialEngineOptions opts = {}) {
    ASSERT_TRUE(harness_.Init(source, GetParam()).ok());
    engine_ = std::make_unique<SequentialEngine>(
        harness_.catalog.get(), harness_.matcher.get(), opts);
  }
  Relation* rel(const std::string& name) {
    return harness_.catalog->Get(name);
  }
  MatcherHarness harness_;
  std::unique_ptr<SequentialEngine> engine_;
};

TEST_P(SequentialEngineTest, ExpressionSimplification) {
  // Example 2: simplify 0 + x to x (the modify writes nil into Op/Arg1).
  Load(kExpressionSimplification);
  ASSERT_TRUE(
      engine_->Insert("Goal", Tuple{Value("Simplify"), Value("e1")}).ok());
  ASSERT_TRUE(engine_->Insert("Expression",
                              Tuple{Value("e1"), Value(0), Value("+"),
                                    Value("y")})
                  .ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 1u);
  EXPECT_FALSE(result.exhausted);
  // The expression's op and arg1 are now nil.
  bool checked = false;
  ASSERT_TRUE(rel("Expression")
                  ->Scan([&](TupleId, const Tuple& t) {
                    EXPECT_TRUE(t[1].is_null());  // arg1
                    EXPECT_TRUE(t[2].is_null());  // op
                    EXPECT_EQ(t[3], Value("y"));
                    checked = true;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_TRUE(checked);
  EXPECT_EQ(engine_->firing_log(),
            std::vector<std::string>{"Plus0X"});
}

TEST_P(SequentialEngineTest, TimesZeroUsesOtherRule) {
  Load(kExpressionSimplification);
  ASSERT_TRUE(
      engine_->Insert("Goal", Tuple{Value("Simplify"), Value("e2")}).ok());
  ASSERT_TRUE(engine_->Insert("Expression",
                              Tuple{Value("e2"), Value(0), Value("*"),
                                    Value("z")})
                  .ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(engine_->firing_log(), std::vector<std::string>{"Time0X"});
}

TEST_P(SequentialEngineTest, EmpDeptRemovesQualifyingEmployees) {
  Load(kEmpDept);
  ASSERT_TRUE(engine_->Insert("Emp",
                              Tuple{Value("Ann"), Value(30), Value(100),
                                    Value(1), Value("Sam")})
                  .ok());
  ASSERT_TRUE(engine_->Insert("Emp",
                              Tuple{Value("Bob"), Value(40), Value(100),
                                    Value(2), Value("Sam")})
                  .ok());
  ASSERT_TRUE(engine_->Insert("Dept", Tuple{Value(1), Value("Toy"), Value(1),
                                            Value("Sam")})
                  .ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 1u);  // only Ann is in Toy/floor1
  EXPECT_EQ(rel("Emp")->Count(), 1u);
  ASSERT_TRUE(rel("Emp")
                  ->Scan([](TupleId, const Tuple& t) {
                    EXPECT_EQ(t[0], Value("Bob"));
                    return Status::OK();
                  })
                  .ok());
}

TEST_P(SequentialEngineTest, FactoryFloorSchedulesAndFrees) {
  Load(kFactoryFloor);
  ASSERT_TRUE(engine_->Insert("Capability",
                              Tuple{Value("gear"), Value("lathe")})
                  .ok());
  ASSERT_TRUE(engine_->Insert("Machine",
                              Tuple{Value(1), Value("lathe"), Value("idle")})
                  .ok());
  ASSERT_TRUE(engine_->Insert("Order", Tuple{Value(100), Value("gear"),
                                             Value(5), Value("pending")})
                  .ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 1u);  // AssignOrder
  EXPECT_EQ(rel("Assignment")->Count(), 1u);
  // Machine is now busy, order running.
  ASSERT_TRUE(rel("Machine")
                  ->Scan([](TupleId, const Tuple& t) {
                    EXPECT_EQ(t[2], Value("busy"));
                    return Status::OK();
                  })
                  .ok());
  // Mark the order done: FinishOrder frees the machine.
  TupleId order_id;
  Tuple order_tuple;
  ASSERT_TRUE(rel("Order")->Scan([&](TupleId id, const Tuple& t) {
    order_id = id;
    order_tuple = t;
    return Status::OK();
  }).ok());
  Tuple done = order_tuple;
  done[3] = Value("done");
  ASSERT_TRUE(engine_->working_memory().Modify("Order", order_id, done).ok());
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(rel("Assignment")->Count(), 0u);
  ASSERT_TRUE(rel("Machine")
                  ->Scan([](TupleId, const Tuple& t) {
                    EXPECT_EQ(t[2], Value("idle"));
                    return Status::OK();
                  })
                  .ok());
}

TEST_P(SequentialEngineTest, HaltStopsExecution) {
  Load(R"(
(literalize Tick n)
(p stop (Tick ^n <x>) --> (halt))
)");
  ASSERT_TRUE(engine_->Insert("Tick", Tuple{Value(1)}).ok());
  ASSERT_TRUE(engine_->Insert("Tick", Tuple{Value(2)}).ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.firings, 1u);  // halt preempts the second instantiation
}

TEST_P(SequentialEngineTest, MakeChainsRules) {
  // make-produced tuples trigger downstream rules (forward chaining).
  Load(R"(
(literalize Seed v)
(literalize Derived v)
(literalize Final v)
(p derive (Seed ^v <x>) --> (remove 1) (make Derived ^v <x>))
(p finish (Derived ^v <x>) --> (remove 1) (make Final ^v <x>))
)");
  ASSERT_TRUE(engine_->Insert("Seed", Tuple{Value(7)}).ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 2u);
  EXPECT_EQ(rel("Seed")->Count(), 0u);
  EXPECT_EQ(rel("Derived")->Count(), 0u);
  EXPECT_EQ(rel("Final")->Count(), 1u);
  EXPECT_EQ(engine_->firing_log(),
            (std::vector<std::string>{"derive", "finish"}));
}

TEST_P(SequentialEngineTest, CallInvokesRegisteredFunction) {
  Load(R"(
(literalize Event name payload)
(p notify (Event ^name <n> ^payload <p>) --> (remove 1) (call log <n> <p>))
)");
  std::vector<std::string> calls;
  engine_->functions().Register(
      "log", [&](const std::vector<Value>& args) {
        std::string s;
        for (const Value& v : args) s += v.ToString() + ",";
        calls.push_back(s);
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Insert("Event", Tuple{Value("boot"), Value(9)}).ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], "boot,9,");
  // Unregistered function errors.
  ASSERT_TRUE(engine_->Insert("Event", Tuple{Value("x"), Value(1)}).ok());
  engine_->functions() = FunctionRegistry();
  EXPECT_FALSE(engine_->Run(&result).ok());
}

TEST_P(SequentialEngineTest, MaxFiringsBoundsRunaway) {
  // A rule that regenerates its own trigger never terminates on its own.
  SequentialEngineOptions opts;
  opts.max_firings = 25;
  Load(R"(
(literalize Loop n)
(p spin (Loop ^n <x>) --> (remove 1) (make Loop ^n <x>))
)",
       opts);
  ASSERT_TRUE(engine_->Insert("Loop", Tuple{Value(1)}).ok());
  EngineRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.firings, 25u);
}

INSTANTIATE_TEST_SUITE_P(Matchers, SequentialEngineTest,
                         ::testing::Values("query", "pattern", "rete"),
                         SpecParamName);

TEST(StrategyTest, PriorityOrdersFirings) {
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize E v)
(p low  (E ^v 1) --> (remove 1))
(p high (E ^v 2) --> (remove 1))
)",
                     "query")
                  .ok());
  // Give `high` a larger priority: it must fire first although `low`'s
  // instantiation is older.
  const_cast<Rule&>(h.matcher->rules()[1]).priority = 10;
  SequentialEngineOptions opts;
  opts.strategy = StrategyKind::kPriority;
  SequentialEngine engine(h.catalog.get(), h.matcher.get(), opts);
  ASSERT_TRUE(engine.Insert("E", Tuple{Value(1)}).ok());
  ASSERT_TRUE(engine.Insert("E", Tuple{Value(2)}).ok());
  EngineRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(engine.firing_log(),
            (std::vector<std::string>{"high", "low"}));
}

TEST(StrategyTest, FifoVsRecencyOrder) {
  for (StrategyKind kind : {StrategyKind::kFifo, StrategyKind::kRecency}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(R"(
(literalize E v)
(p r (E ^v <x>) --> (remove 1))
)",
                       "query")
                    .ok());
    SequentialEngineOptions opts;
    opts.strategy = kind;
    SequentialEngine engine(h.catalog.get(), h.matcher.get(), opts);
    ASSERT_TRUE(engine.Insert("E", Tuple{Value(1)}).ok());
    ASSERT_TRUE(engine.Insert("E", Tuple{Value(2)}).ok());
    bool fired = false;
    EngineRunResult result;
    ASSERT_TRUE(engine.Step(&fired, &result).ok());
    ASSERT_TRUE(fired);
    // FIFO fires on the older tuple (1); recency on the newer (2).
    Relation* e = h.catalog->Get("E");
    EXPECT_EQ(e->Count(), 1u);
    ASSERT_TRUE(e->Scan([&](TupleId, const Tuple& t) {
                   EXPECT_EQ(t[0], kind == StrategyKind::kFifo ? Value(2)
                                                               : Value(1));
                   return Status::OK();
                 }).ok());
  }
}

}  // namespace
}  // namespace prodb
