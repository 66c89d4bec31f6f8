// Cost-based join planning (src/db/stats, src/plan): incremental
// statistics maintenance against a full-recount oracle, estimator and
// planner sanity, drift-triggered replans, and the beta-prefix sharing
// the planner unlocks when two rules' planned orders agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/stats.h"
#include "match/query_matcher.h"
#include "matcher_test_util.h"
#include "plan/planner.h"
#include "rete/network.h"

namespace prodb {
namespace {

Schema TwoColSchema(const std::string& name) {
  return Schema(name, {Attribute{"k", ValueType::kInt},
                       Attribute{"v", ValueType::kInt}});
}

Tuple Row(int64_t k, int64_t v) { return Tuple{Value(k), Value(v)}; }

// Randomized cross-check: stats maintained incrementally from a delta
// stream must agree with a full recount (Resketch from the relation)
// after arbitrary churn — exactly on cardinality, approximately on the
// distinct sketches.
TEST(CatalogStats, IncrementalMatchesRecountUnderChurn) {
  Catalog catalog;
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("R"), &rel).ok());
  CatalogStats stats;
  stats.Register("R", rel);
  RelationStats* rs = stats.Get("R");
  ASSERT_NE(rs, nullptr);

  Rng rng(7);
  std::vector<std::pair<TupleId, Tuple>> live;
  for (int step = 0; step < 2000; ++step) {
    if (rng.Chance(0.4) && !live.empty()) {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(rel->Delete(live[pick].first).ok());
      stats.OnDelta("R", live[pick].second, -1);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      Tuple t = Row(static_cast<int64_t>(rng.Uniform(50)),
                    static_cast<int64_t>(rng.Uniform(1000)));
      TupleId id;
      ASSERT_TRUE(rel->Insert(t, &id).ok());
      stats.OnDelta("R", t, +1);
      live.emplace_back(id, std::move(t));
    }
  }
  // Cardinality is a plain counter: exact.
  EXPECT_EQ(rs->cardinality(), static_cast<int64_t>(rel->Count()));
  EXPECT_EQ(rs->cardinality(), static_cast<int64_t>(live.size()));

  // Distinct estimates: the incremental sketch never clears bits on
  // delete, so it can only over-estimate relative to a fresh recount.
  // After Resketch both must bracket the exact distinct count closely
  // (linear counting at 1024 bits is a few percent in this range).
  std::set<int64_t> exact_k;
  for (const auto& [id, t] : live) exact_k.insert(t[0].as_int());
  ASSERT_TRUE(rs->Resketch(rel).ok());
  const double est = rs->DistinctEstimate(0);
  const double exact = static_cast<double>(exact_k.size());
  EXPECT_GE(est, exact * 0.85);
  EXPECT_LE(est, exact * 1.15);
  EXPECT_EQ(rs->cardinality(), static_cast<int64_t>(rel->Count()));
}

TEST(CatalogStats, SketchStaleAfterChurnAndRefresh) {
  Catalog catalog;
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("R"), &rel).ok());
  CatalogStats stats;
  stats.Register("R", rel);
  RelationStats* rs = stats.Get("R");
  EXPECT_FALSE(rs->SketchStale());
  for (int i = 0; i < 200; ++i) {
    Tuple t = Row(i, i);
    TupleId id;
    ASSERT_TRUE(rel->Insert(t, &id).ok());
    stats.OnDelta("R", t, +1);
  }
  EXPECT_TRUE(rs->SketchStale());
  EXPECT_EQ(stats.RefreshStale(&catalog), 1u);
  EXPECT_FALSE(rs->SketchStale());
  EXPECT_EQ(rs->cardinality(), 200);
  // Selectivity signals after the sketch: an inserted key hits its
  // 1/distinct estimate; a never-inserted key is at most that (near zero
  // when its sketch bit is clear, equal only on a hash collision).
  const double present = rs->SelectivityEq(0, Value(int64_t{5}));
  const double absent = rs->SelectivityEq(0, Value(int64_t{123456}));
  EXPECT_GT(present, 1.0 / 400.0);
  EXPECT_LE(absent, present);
  // Histogram: half the keys lie below 100.
  const double below = rs->SelectivityCmp(0, CompareOp::kLt,
                                          Value(int64_t{100}));
  EXPECT_GT(below, 0.35);
  EXPECT_LT(below, 0.65);
}

// Planner sanity: with skewed cardinalities the planned order starts at
// the smallest relation, and every planned order is a permutation of the
// positive CEs with negated CEs after all positives.
TEST(JoinPlanner, OrdersSelectiveFirst) {
  Catalog catalog;
  Relation *a = nullptr, *b = nullptr, *c = nullptr;
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("A"), &a).ok());
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("B"), &b).ok());
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("C"), &c).ok());
  TupleId id;
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(a->Insert(Row(i, i), &id).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b->Insert(Row(i, i), &id).ok());
  ASSERT_TRUE(c->Insert(Row(1, 1), &id).ok());
  CatalogStats stats;
  stats.Register("A", a);
  stats.Register("B", b);
  stats.Register("C", c);

  // (A ^k <x>) (B ^k <x>) (C ^k <x>) — equi-join on attribute 0.
  ConjunctiveQuery q;
  for (const char* rel : {"A", "B", "C"}) {
    ConditionSpec cond;
    cond.relation = rel;
    cond.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
    q.conditions.push_back(cond);
  }
  q.num_vars = 1;

  PlannerOptions po;
  po.enable = true;
  JoinPlanner planner(&stats, po);
  JoinPlan plan = planner.Plan(q);
  EXPECT_TRUE(plan.planned);
  ASSERT_EQ(plan.order.size(), 3u);
  EXPECT_EQ(plan.order[0], 2u);  // C (1 row) leads
  EXPECT_EQ(plan.num_positive, 3u);
  std::vector<size_t> sorted = plan.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(plan.level_cards.size(), 3u);
  EXPECT_GT(plan.cost, 0.0);

  // Planning off: the syntactic textual order, exactly.
  JoinPlanner off(&stats, PlannerOptions{});
  JoinPlan syn = off.Plan(q);
  EXPECT_FALSE(syn.planned);
  EXPECT_EQ(syn.order, (std::vector<size_t>{0, 1, 2}));
}

// Eligibility: an ordered comparison against a variable pins the CE
// after the variable's binder, however small its relation — the Rete
// join chain has no deferred-test machinery, so an ineligible order
// would silently drop the test.
TEST(JoinPlanner, OrderedComparisonNeedsBinderFirst) {
  Catalog catalog;
  Relation *a = nullptr, *b = nullptr;
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("A"), &a).ok());
  ASSERT_TRUE(catalog.CreateRelation(TwoColSchema("B"), &b).ok());
  TupleId id;
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(a->Insert(Row(i, i), &id).ok());
  ASSERT_TRUE(b->Insert(Row(1, 1), &id).ok());
  CatalogStats stats;
  stats.Register("A", a);
  stats.Register("B", b);

  // (A ^k <x>) (B ^k > <x>): B is far smaller, but its only use of <x>
  // is an ordered comparison — A must stay first.
  ConjunctiveQuery q;
  ConditionSpec ca;
  ca.relation = "A";
  ca.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec cb;
  cb.relation = "B";
  cb.var_uses.push_back(VarUse{0, 0, CompareOp::kGt});
  q.conditions = {ca, cb};
  q.num_vars = 1;

  PlannerOptions po;
  po.enable = true;
  JoinPlanner planner(&stats, po);
  JoinPlan plan = planner.Plan(q);
  EXPECT_EQ(plan.order, (std::vector<size_t>{0, 1}));
}

// Two rules over the same two CEs in opposite textual order. Planned,
// both compile to the same physical order, so the level-indexed chains
// share their whole positive prefix — one beta node instead of two —
// and the rebuild + reseed that installs the shared shape must leave
// the conflict set untouched.
TEST(JoinPlanning, BetaPrefixSharesAfterReorder) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p FatFirst
  (A ^k <x>)
  (B ^k <x>)
  -->
  (remove 1))
(p ThinFirst
  (B ^k <x>)
  (A ^k <x>)
  -->
  (remove 1))
)";
  MatcherHarness h;
  ASSERT_TRUE(h.Init(program, "rete-plan").ok());
  auto* rete = dynamic_cast<ReteNetwork*>(h.matcher.get());
  ASSERT_NE(rete, nullptr);
  // Both rules planned at AddRule on an empty WM: syntactic fallback,
  // orders differ textually, no sharing possible.
  EXPECT_EQ(rete->Topology().beta_nodes, 2u);

  // Skew the load: A fat, B thin, sharing only a few join keys.
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(h.wm->Insert("A", Row(i % 8, i)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.wm->Insert("B", Row(i, i)).ok());
  }
  // 3 B keys x 15 A tuples per key x 2 rules.
  auto before = CanonicalConflictSet(*h.matcher);
  EXPECT_EQ(before.size(), 90u);

  ASSERT_TRUE(rete->ForceReplan().ok());
  // Both rules now plan B (thin) first; identical planned prefixes share
  // beta nodes even though the CEs sit at different LHS slots.
  ASSERT_EQ(rete->plans().size(), 2u);
  EXPECT_TRUE(rete->plans()[0].planned);
  EXPECT_EQ(rete->plans()[0].order, (std::vector<size_t>{1, 0}));  // B, A
  EXPECT_EQ(rete->plans()[1].order, (std::vector<size_t>{0, 1}));  // B, A
  EXPECT_EQ(rete->Topology().beta_nodes, 1u);

  // Rebuild + reseed preserved the conflict set bit for bit.
  EXPECT_EQ(CanonicalConflictSet(*h.matcher), before);

  // And the rebuilt network keeps matching correctly: a new B key joins
  // the 15 A tuples sharing it, under both rules.
  size_t matches_before = before.size();
  ASSERT_TRUE(h.wm->Insert("B", Row(5, 99)).ok());
  EXPECT_EQ(h.matcher->conflict_set().Snapshot().size(),
            matches_before + 30);
}

// Drift triggers a replan on the batch path without any manual nudge,
// for both planning consumers.
TEST(JoinPlanning, DriftTriggersReplan) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p R
  (A ^k <x>)
  (B ^k <x>)
  -->
  (remove 1))
)";
  for (int variant = 0; variant < 2; ++variant) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program,
                       [&](Catalog* c) {
                         MatcherSpec spec =
                             NamedSpec(variant == 0 ? "rete-plan"
                                                    : "query-plan");
                         spec.planner.replan_drift = 2.0;
                         return MakeMatcher(spec, c);
                       })
                    .ok());
    EXPECT_EQ(h.matcher->stats().replans.load(), 0u);
    h.wm->BeginBatch();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(h.wm->Insert("A", Row(i % 16, i)).ok());
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(h.wm->Insert("B", Row(i, i)).ok());
    }
    ASSERT_TRUE(h.wm->CommitBatch().ok());
    EXPECT_GE(h.matcher->stats().replans.load(), 1u)
        << (variant == 0 ? "rete" : "query");
    EXPECT_GE(h.matcher->stats().plans_built.load(), 2u);
  }
}

// Both consumers decide join orders through the same RulePlans, so a
// planned Rete network and a planned query matcher fed one trace build
// and re-plan at the same batches and hold the same orders after each.
// The trace grows one relation after another, so the orders change.
TEST(JoinPlanning, ConsumersReplanInStep) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(literalize C k v)
(p AB
  (A ^k <x>)
  (B ^k <x>)
  -->
  (remove 1))
(p BCA
  (B ^k <x> ^v <y>)
  (C ^k <y>)
  (A ^k <x>)
  -->
  (remove 1))
(p CAnotB
  (C ^k <x>)
  (A ^k <x>)
  -(B ^k <x>)
  -->
  (remove 1))
)";
  auto planned = [](const std::string& name) {
    return [name](Catalog* c) {
      MatcherSpec spec;
      EXPECT_TRUE(MatcherSpec::Parse(name, &spec).ok());
      spec.planner.replan_drift = 2.0;
      return MakeMatcher(spec, c);
    };
  };
  MatcherHarness rete_h, query_h;
  ASSERT_TRUE(rete_h.Init(program, planned("rete-plan")).ok());
  ASSERT_TRUE(query_h.Init(program, planned("query-plan")).ok());
  auto* rete = dynamic_cast<ReteNetwork*>(rete_h.matcher.get());
  auto* query = dynamic_cast<QueryMatcher*>(query_h.matcher.get());
  ASSERT_NE(rete, nullptr);
  ASSERT_NE(query, nullptr);

  // Each phase mostly grows one relation: A, then C, then B.
  const char* const kLead[] = {"A", "C", "B"};
  const size_t kBatchSizes[] = {1, 3, 64, 7, 130, 2, 33, 250, 5, 90};
  const size_t kTuples = 1500;
  Rng rng(2027);
  std::set<std::vector<std::vector<size_t>>> seen_orders;
  size_t done = 0;
  for (size_t b = 0; done < kTuples; ++b) {
    const size_t size =
        std::min(kBatchSizes[b % std::size(kBatchSizes)], kTuples - done);
    rete_h.wm->BeginBatch();
    query_h.wm->BeginBatch();
    for (size_t i = 0; i < size; ++i, ++done) {
      const char* lead = kLead[done * std::size(kLead) / kTuples];
      const char* cls =
          rng.Chance(0.8) ? lead : kLead[rng.Uniform(std::size(kLead))];
      const Tuple t = Row(static_cast<int64_t>(rng.Uniform(128)),
                          static_cast<int64_t>(rng.Uniform(128)));
      ASSERT_TRUE(rete_h.wm->Insert(cls, t).ok());
      ASSERT_TRUE(query_h.wm->Insert(cls, t).ok());
    }
    ASSERT_TRUE(rete_h.wm->CommitBatch().ok());
    ASSERT_TRUE(query_h.wm->CommitBatch().ok());

    EXPECT_EQ(rete->stats().plans_built.load(),
              query->stats().plans_built.load())
        << "batch " << b;
    EXPECT_EQ(rete->stats().replans.load(), query->stats().replans.load())
        << "batch " << b;
    ASSERT_EQ(rete->plans().size(), query->plans().size());
    std::vector<std::vector<size_t>> orders;
    for (size_t r = 0; r < rete->plans().size(); ++r) {
      EXPECT_EQ(rete->plans()[r].order, query->plans()[r].order)
          << "batch " << b << ", rule " << r;
      orders.push_back(query->plans()[r].order);
    }
    seen_orders.insert(std::move(orders));
  }
  // The trace re-planned, and changed orders twice (B leads AB once A
  // is fat; A leads CAnotB once C is fat too).
  EXPECT_GE(query->stats().replans.load(), 2u);
  EXPECT_GE(seen_orders.size(), 3u);
  EXPECT_EQ(CanonicalConflictSet(*rete), CanonicalConflictSet(*query));
}

// The executor consumer: planned evaluation order must not change the
// result set, only the work. Oracle = the same query with planning off.
TEST(JoinPlanning, QueryMatcherPlannedEqualsSyntactic) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(literalize C k v)
(p R3
  (A ^k <x> ^v <y>)
  (B ^k <x>)
  (C ^k <y>)
  -->
  (remove 1))
)";
  MatcherHarness plain, planned;
  ASSERT_TRUE(plain.Init(program,
                         [](Catalog* c) {
                           return std::make_unique<QueryMatcher>(c);
                         })
                  .ok());
  ASSERT_TRUE(planned.Init(program,
                           [](Catalog* c) {
                             MatcherSpec spec = NamedSpec("query-plan");
                             spec.planner.replan_drift = 2.0;
                             return MakeMatcher(spec, c);
                           })
                    .ok());
  Rng rng(91);
  for (int step = 0; step < 400; ++step) {
    const char* cls = (step % 7 == 0) ? "C" : (step % 3 == 0 ? "B" : "A");
    Tuple t = Row(static_cast<int64_t>(rng.Uniform(6)),
                  static_cast<int64_t>(rng.Uniform(6)));
    ASSERT_TRUE(plain.wm->Insert(cls, t).ok());
    ASSERT_TRUE(planned.wm->Insert(cls, t).ok());
  }
  EXPECT_EQ(CanonicalConflictSet(*planned.matcher),
            CanonicalConflictSet(*plain.matcher));
  EXPECT_FALSE(CanonicalConflictSet(*plain.matcher).empty());
  // The estimator accounting ran.
  EXPECT_GT(planned.matcher->stats().est_card_samples.load(), 0u);
}

}  // namespace
}  // namespace prodb
