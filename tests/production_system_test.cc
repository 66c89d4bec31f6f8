#include "core/production_system.h"

#include <gtest/gtest.h>

#include "matcher_test_util.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

// The facade must behave identically over every matcher kind.
class ProductionSystemTest : public ::testing::TestWithParam<std::string> {
 protected:
  ProductionSystemOptions Opts() {
    MatcherSpec spec;
    EXPECT_TRUE(MatcherSpec::Parse(GetParam(), &spec).ok());
    ProductionSystemOptions opts;
    opts.matcher = spec.kind;
    return opts;
  }
};

TEST_P(ProductionSystemTest, LoadInsertRun) {
  ProductionSystem ps(Opts());
  ASSERT_TRUE(ps.LoadString(kEmpDept).ok());
  EXPECT_EQ(ps.rules().size(), 2u);
  ASSERT_TRUE(ps.Insert("Emp", Tuple{Value("Ann"), Value(30), Value(100),
                                     Value(1), Value("Sam")})
                  .ok());
  ASSERT_TRUE(
      ps.Insert("Dept", Tuple{Value(1), Value("Toy"), Value(1), Value("S")})
          .ok());
  EXPECT_EQ(ps.conflict_set().size(), 1u);
  EngineRunResult result;
  ASSERT_TRUE(ps.Run(&result).ok());
  EXPECT_EQ(result.firings, 1u);
  EXPECT_EQ(ps.catalog().Get("Emp")->Count(), 0u);
}

TEST_P(ProductionSystemTest, StepFiresOne) {
  ProductionSystem ps(Opts());
  ASSERT_TRUE(ps.LoadString(R"(
(literalize E v)
(p r (E ^v <x>) --> (remove 1))
)")
                  .ok());
  ASSERT_TRUE(ps.Insert("E", Tuple{Value(1)}).ok());
  ASSERT_TRUE(ps.Insert("E", Tuple{Value(2)}).ok());
  bool fired = false;
  ASSERT_TRUE(ps.Step(&fired).ok());
  EXPECT_TRUE(fired);
  EXPECT_EQ(ps.catalog().Get("E")->Count(), 1u);
  ASSERT_TRUE(ps.Step(&fired).ok());
  ASSERT_TRUE(ps.Step(&fired).ok());
  EXPECT_FALSE(fired);  // nothing left
}

TEST_P(ProductionSystemTest, ConcurrentRun) {
  ProductionSystem ps(Opts());
  ASSERT_TRUE(ps.LoadString(R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)")
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ps.Insert("Work", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(ps.RunConcurrent(&result).ok());
  EXPECT_EQ(result.firings, 20u);
  EXPECT_EQ(ps.catalog().Get("Done")->Count(), 20u);
}

TEST_P(ProductionSystemTest, IncrementalLoadAcrossCalls) {
  ProductionSystem ps(Opts());
  ASSERT_TRUE(ps.LoadString("(literalize E v)").ok());
  ASSERT_TRUE(ps.LoadString("(p r (E ^v 1) --> (remove 1))").ok());
  ASSERT_TRUE(ps.Insert("E", Tuple{Value(1)}).ok());
  EXPECT_EQ(ps.conflict_set().size(), 1u);
}

TEST_P(ProductionSystemTest, RegisteredFunctionsWork) {
  ProductionSystem ps(Opts());
  ASSERT_TRUE(ps.LoadString(R"(
(literalize E v)
(p r (E ^v <x>) --> (remove 1) (call sink <x>))
)")
                  .ok());
  std::vector<int64_t> seen;
  ps.RegisterFunction("sink", [&](const std::vector<Value>& args) {
    seen.push_back(args[0].as_int());
    return Status::OK();
  });
  ASSERT_TRUE(ps.Insert("E", Tuple{Value(7)}).ok());
  ASSERT_TRUE(ps.Run().ok());
  EXPECT_EQ(seen, std::vector<int64_t>{7});
}

TEST_P(ProductionSystemTest, BadProgramReportsError) {
  ProductionSystem ps(Opts());
  EXPECT_FALSE(ps.LoadString("(p broken (Nope ^x 1) --> (halt))").ok());
  EXPECT_FALSE(ps.LoadString("(((").ok());
}

INSTANTIATE_TEST_SUITE_P(Matchers, ProductionSystemTest,
                         ::testing::Values("rete", "rete-dbms", "query",
                                           "pattern"),
                         SpecParamName);

TEST(ProductionSystemPaged, WorksOnSecondaryStorage) {
  ProductionSystemOptions opts;
  opts.matcher = MatcherKind::kPattern;
  opts.wm_storage = StorageKind::kPaged;
  opts.buffer_pool_frames = 32;
  ProductionSystem ps(opts);
  ASSERT_TRUE(ps.LoadString(kEmpDept).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ps.Insert("Emp", Tuple{Value("E" + std::to_string(i)),
                                       Value(30), Value(100), Value(1),
                                       Value("Sam")})
                    .ok());
  }
  ASSERT_TRUE(
      ps.Insert("Dept", Tuple{Value(1), Value("Toy"), Value(1), Value("S")})
          .ok());
  EngineRunResult result;
  ASSERT_TRUE(ps.Run(&result).ok());
  EXPECT_EQ(result.firings, 200u);  // R2 removes everyone in Toy/floor1
  EXPECT_EQ(ps.catalog().Get("Emp")->Count(), 0u);
}

TEST(ProductionSystemRuleQueries, AnswersPaperQuery) {
  ProductionSystem ps;
  ASSERT_TRUE(ps.LoadString(R"(
(literalize Emp age salary)
(p seniors (Emp ^age > 55) --> (remove 1))
(p juniors (Emp ^age < 30) --> (remove 1))
)")
                  .ok());
  std::vector<std::string> names;
  ASSERT_TRUE(ps.RulesFor("Emp", "age", CompareOp::kGt, 55, &names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"seniors"});
  ASSERT_TRUE(ps.RulesForTuple("Emp", Tuple{Value(20), Value(1)}, &names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"juniors"});
  EXPECT_TRUE(
      ps.RulesFor("Emp", "bogus", CompareOp::kGt, 1, &names)
          .IsInvalidArgument());
}

}  // namespace
}  // namespace prodb
