#include "workload/generator.h"

#include <gtest/gtest.h>

#include "db/executor.h"

namespace prodb {
namespace {

TEST(WorkloadTest, CreatesRequestedClasses) {
  WorkloadSpec spec;
  spec.num_classes = 5;
  spec.attrs_per_class = 3;
  WorkloadGenerator gen(spec);
  Catalog catalog;
  ASSERT_TRUE(gen.CreateClasses(&catalog).ok());
  EXPECT_EQ(catalog.RelationCount(), 5u);
  Relation* c0 = catalog.Get("C0");
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->schema().arity(), 3u);
}

TEST(WorkloadTest, RulesAreDeterministic) {
  WorkloadSpec spec;
  spec.num_rules = 10;
  spec.seed = 5;
  WorkloadGenerator a(spec), b(spec);
  auto ra = a.GenerateRules();
  auto rb = b.GenerateRules();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].lhs.ToString(), rb[i].lhs.ToString());
  }
}

TEST(WorkloadTest, ChainRulesShareAdjacentVariables) {
  WorkloadSpec spec;
  spec.ces_per_rule = 4;
  spec.chain_join = true;
  spec.num_rules = 1;
  WorkloadGenerator gen(spec);
  Rule rule = gen.GenerateRules()[0];
  ASSERT_EQ(rule.lhs.conditions.size(), 4u);
  EXPECT_EQ(rule.lhs.num_vars, 3);
  // Middle CEs import one var and export another.
  EXPECT_EQ(rule.lhs.conditions[1].var_uses.size(), 2u);
  // Ends have a single var use.
  EXPECT_EQ(rule.lhs.conditions[0].var_uses.size(), 1u);
  EXPECT_EQ(rule.lhs.conditions[3].var_uses.size(), 1u);
}

TEST(WorkloadTest, StarRulesShareOneVariable) {
  WorkloadSpec spec;
  spec.ces_per_rule = 4;
  spec.chain_join = false;
  spec.num_rules = 1;
  WorkloadGenerator gen(spec);
  Rule rule = gen.GenerateRules()[0];
  EXPECT_EQ(rule.lhs.num_vars, 1);
  for (const ConditionSpec& ce : rule.lhs.conditions) {
    ASSERT_EQ(ce.var_uses.size(), 1u);
    EXPECT_EQ(ce.var_uses[0].var, 0);
  }
}

TEST(WorkloadTest, NegationProbabilityAddsNegatedCes) {
  WorkloadSpec spec;
  spec.num_rules = 50;
  spec.negation_prob = 1.0;
  WorkloadGenerator gen(spec);
  for (const Rule& r : gen.GenerateRules()) {
    EXPECT_TRUE(r.lhs.conditions.back().negated);
  }
  spec.negation_prob = 0.0;
  WorkloadGenerator none(spec);
  for (const Rule& r : none.GenerateRules()) {
    for (const ConditionSpec& ce : r.lhs.conditions) {
      EXPECT_FALSE(ce.negated);
    }
  }
}

TEST(WorkloadTest, MatchingTupleSatisfiesOwnCe) {
  WorkloadSpec spec;
  spec.num_rules = 20;
  WorkloadGenerator gen(spec);
  Rng rng(1);
  for (const Rule& rule : gen.GenerateRules()) {
    for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
      if (rule.lhs.conditions[ce].negated) continue;
      Tuple t = gen.MatchingTuple(rule, ce, &rng);
      Binding b;
      EXPECT_TRUE(BindSingle(rule.lhs.conditions[ce], t, rule.lhs.num_vars,
                             &b));
    }
  }
}

TEST(WorkloadTest, ConsumingActionsRemoveFirstCe) {
  WorkloadSpec spec;
  spec.consuming_actions = true;
  spec.num_rules = 3;
  WorkloadGenerator gen(spec);
  for (const Rule& r : gen.GenerateRules()) {
    ASSERT_EQ(r.actions.size(), 1u);
    EXPECT_EQ(r.actions[0].kind, ActionKind::kRemove);
    EXPECT_EQ(r.actions[0].ce_index, 0);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool diverged = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

}  // namespace
}  // namespace prodb
