// Cross-matcher equivalence: the four matching architectures the paper
// compares (in-memory Rete §3.1, DBMS-backed Rete §3.2, query matcher
// §4.1, matching-pattern matcher §4.2) must produce identical conflict
// sets on any sequence of WM insertions and deletions. The query matcher
// recomputes from base relations each time and serves as the oracle.

#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.h"
#include "core/matcher_spec.h"
#include "matcher_test_util.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

struct MatcherCase {
  std::string name;
  std::function<std::unique_ptr<Matcher>(Catalog*)> factory;
};

// Every configuration the suite compares, by matcher spec name. The
// defaults run fully indexed; the "-scan" half forces all indexing off
// (join-key probes, declared WM indexes, constant-test discrimination),
// so agreement between the two proves every probe path is a pure filter
// — same conflict sets, fewer tuples visited. "-nodisc" turns off only
// the discrimination tier, pinning any divergence on candidate dispatch
// (candidates must be a superset of the CEs/alphas whose constant tests
// pass). Sharded variants must agree with the serial oracle on one-delta
// and multi-delta batches alike (the parallel fan-out + ordered merge
// serves both). "-plan" changes only the join *sequence*, so the
// conflict set must stay byte-identical to the syntactic baseline —
// including across the drift-triggered replans the suite's aggressive
// threshold forces mid-trace (Rete rebuilds and reseeds its join
// network; the query matcher swaps plan snapshots); the serial and
// 8-shard variants cover both commit paths. Each name appears once,
// except "rete-shard4", whose second entry is the hot variant.
const char* const kMatcherSpecs[] = {
    "query",           "pattern",          "rete",
    "rete-dbms",       "query-scan",       "pattern-scan",
    "rete-scan",       "rete-dbms-scan",   "query-nodisc",
    "pattern-nodisc",  "rete-nodisc",      "rete-dbms-nodisc",
    "query-shard4",    "pattern-shard4",   "rete-shard4",
    "rete-shard4",     "rete-dbms-shard4", "query-plan",
    "rete-plan",       "rete-dbms-plan",   "query-plan-shard8",
    "rete-plan-shard8",
};
constexpr size_t kHotVariant = 15;

// The suite's test-only settings on top of a parsed spec. 4 shards run
// on 2 worker threads — small enough to keep the suite quick, uneven
// enough (threads != shards) to exercise work stealing of whole shards;
// 8 shards keep one thread each, the wide end of the planner x sharding
// matrix. The hot variant hash-partitions every class name the test
// programs use by tuple id, exercising replicated rules behind head-
// tuple partition filters (unknown names in the list are inert). An
// aggressive drift threshold makes the short traces cross it, so the
// replan machinery runs mid-trace instead of only at registration.
MatcherSpec TestSpec(const char* name, bool hot) {
  MatcherSpec spec;
  EXPECT_TRUE(MatcherSpec::Parse(name, &spec).ok()) << name;
  if (spec.sharding.num_shards == 4) spec.sharding.threads = 2;
  if (hot) {
    spec.sharding.hot_classes = {"A",     "B",          "C",  "D",
                                 "Emp",   "Dept",       "C0", "C1",
                                 "Order", "Assignment", "C2"};
  }
  if (spec.planner.enable) spec.planner.replan_drift = 2.0;
  return spec;
}

std::vector<MatcherCase> AllMatchers() {
  std::vector<MatcherCase> cases;
  for (size_t i = 0; i < std::size(kMatcherSpecs); ++i) {
    const bool hot = i == kHotVariant;
    const MatcherSpec spec = TestSpec(kMatcherSpecs[i], hot);
    cases.push_back({std::string(kMatcherSpecs[i]) + (hot ? " (hot)" : ""),
                     [spec](Catalog* c) { return MakeMatcher(spec, c); }});
  }
  return cases;
}

// Replays one insert/delete trace against every matcher and compares the
// canonical conflict sets after every step.
void RunTrace(const std::string& program,
              const std::vector<std::string>& classes,
              const std::function<Tuple(const std::string&, Rng*)>& gen,
              uint64_t seed, int steps, double delete_prob) {
  std::vector<MatcherHarness> harnesses;
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, mc.factory).ok()) << mc.name;
    harnesses.push_back(std::move(h));
  }
  Rng rng(seed);
  // Track live tuples (by value) per class so deletes hit real tuples.
  std::map<std::string, std::vector<std::vector<TupleId>>> live_ids;
  std::map<std::string, std::vector<Tuple>> live_tuples;
  for (const auto& cls : classes) {
    live_ids[cls].clear();
    live_tuples[cls].clear();
  }

  for (int step = 0; step < steps; ++step) {
    const std::string& cls = classes[rng.Uniform(classes.size())];
    bool do_delete =
        rng.Chance(delete_prob) && !live_tuples[cls].empty();
    if (do_delete) {
      size_t pick = rng.Uniform(live_tuples[cls].size());
      for (size_t m = 0; m < harnesses.size(); ++m) {
        ASSERT_TRUE(harnesses[m]
                        .wm->Delete(cls, live_ids[cls][pick][m])
                        .ok())
            << AllMatchers()[m].name << " step " << step;
      }
      live_ids[cls].erase(live_ids[cls].begin() + static_cast<long>(pick));
      live_tuples[cls].erase(live_tuples[cls].begin() +
                             static_cast<long>(pick));
    } else {
      Tuple t = gen(cls, &rng);
      std::vector<TupleId> ids;
      for (size_t m = 0; m < harnesses.size(); ++m) {
        TupleId id;
        ASSERT_TRUE(harnesses[m].wm->Insert(cls, t, &id).ok())
            << AllMatchers()[m].name << " step " << step;
        ids.push_back(id);
      }
      live_ids[cls].push_back(std::move(ids));
      live_tuples[cls].push_back(std::move(t));
    }
    auto oracle = CanonicalConflictSet(*harnesses[0].matcher);
    for (size_t m = 1; m < harnesses.size(); ++m) {
      auto got = CanonicalConflictSet(*harnesses[m].matcher);
      ASSERT_EQ(got, oracle)
          << "matcher " << AllMatchers()[m].name << " diverged at step "
          << step << " (" << (do_delete ? "delete" : "insert") << " on "
          << cls << ")";
    }
  }
}

TEST(MatcherEquivalence, ThreeWayJoinRandomChurn) {
  auto gen = [](const std::string& cls, Rng* rng) {
    int64_t lo = static_cast<int64_t>(rng->Uniform(4));
    int64_t hi = static_cast<int64_t>(rng->Uniform(4));
    if (cls == "A") return Tuple{Value(lo), Value("a"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value("b")};
    return Tuple{Value("c"), Value(lo), Value(hi)};
  };
  RunTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 11, 250, 0.25);
}

TEST(MatcherEquivalence, ThreeWayJoinSometimesFailingAlpha) {
  auto gen = [](const std::string& cls, Rng* rng) {
    // Half the tuples fail their class's constant test.
    bool pass = rng->Chance(0.5);
    int64_t lo = static_cast<int64_t>(rng->Uniform(3));
    int64_t hi = static_cast<int64_t>(rng->Uniform(3));
    if (cls == "A") return Tuple{Value(lo), Value(pass ? "a" : "q"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value(pass ? "b" : "q")};
    return Tuple{Value(pass ? "c" : "q"), Value(lo), Value(hi)};
  };
  RunTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 23, 250, 0.3);
}

TEST(MatcherEquivalence, EmpDeptChurn) {
  auto gen = [](const std::string& cls, Rng* rng) {
    static const char* names[] = {"Mike", "Sam", "Ann", "Bob"};
    if (cls == "Emp") {
      return Tuple{Value(names[rng->Uniform(4)]),
                   Value(static_cast<int64_t>(rng->Uniform(60))),
                   Value(static_cast<int64_t>(rng->Uniform(300))),
                   Value(static_cast<int64_t>(rng->Uniform(3))),
                   Value(names[rng->Uniform(4)])};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(3))),
                 Value(rng->Chance(0.5) ? "Toy" : "Shoe"),
                 Value(static_cast<int64_t>(1 + rng->Uniform(2))),
                 Value(names[rng->Uniform(4)])};
  };
  RunTrace(kEmpDept, {"Emp", "Dept"}, gen, 31, 300, 0.3);
}

TEST(MatcherEquivalence, NegationChurn) {
  const char* program = R"(
(literalize Order id status)
(literalize Assignment order machine)
(p Idle
  (Order ^id <o> ^status pending)
  -(Assignment ^order <o>)
  -->
  (remove 1))
(p Busy
  (Order ^id <o> ^status pending)
  (Assignment ^order <o> ^machine <m>)
  -->
  (remove 2))
)";
  auto gen = [](const std::string& cls, Rng* rng) {
    if (cls == "Order") {
      return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                   Value(rng->Chance(0.7) ? "pending" : "done")};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                 Value(static_cast<int64_t>(rng->Uniform(3)))};
  };
  RunTrace(program, {"Order", "Assignment"}, gen, 47, 300, 0.35);
}

// Self-joins: one tuple can satisfy two positive CEs of one rule at once
// (C(1,1) under (C ^a <x>) (C ^b <x>) pairs with itself), or a positive
// and a negated CE, so an insert must see the pattern support its own
// other CE contributes.
TEST(MatcherEquivalence, SelfJoinChurn) {
  const char* program = R"(
(literalize C a b)
(literalize D a b)
(p Self
  (C ^a <x>)
  (C ^b <x>)
  -->
  (remove 1))
(p SelfBlocked
  (C ^a <x>)
  -(C ^b <x>)
  -->
  (remove 1))
(p Chain
  (D ^a 1 ^b <y>)
  (C ^a <y>)
  (C ^b <y>)
  -->
  (remove 1))
)";
  auto gen = [](const std::string& cls, Rng* rng) {
    const int64_t a = static_cast<int64_t>(rng->Uniform(16));
    const int64_t b =
        rng->Chance(0.5) ? a : static_cast<int64_t>(rng->Uniform(16));
    // D's constant test passes for half of its tuples.
    if (cls == "D") return Tuple{Value(int64_t{1} + (a & 1)), Value(b)};
    return Tuple{Value(a), Value(b)};
  };
  RunTrace(program, {"C", "D"}, gen, 59, 300, 0.3);
}

// Batched-vs-one-at-a-time equivalence: the same logical trace is driven
// through a reference harness one delta per batch and through a second
// harness via BeginBatch/CommitBatch with shuffled batch sizes (so every
// OnBatch — Rete relation grouping, the query matcher's amortized passes,
// the pattern matcher's lazy bump flush — is exercised on multi-delta
// batches against the one-delta oracle). Conflict sets must agree at
// every batch boundary, and auxiliary footprints must track each other
// since the net matcher state is identical.
void RunBatchedTrace(const std::string& program,
                     const std::vector<std::string>& classes,
                     const std::function<Tuple(const std::string&, Rng*)>& gen,
                     uint64_t seed, int num_batches, double delete_prob,
                     double modify_prob) {
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness ref, bat;
    ASSERT_TRUE(ref.Init(program, mc.factory).ok()) << mc.name;
    ASSERT_TRUE(bat.Init(program, mc.factory).ok()) << mc.name;

    Rng rng(seed);
    // Per class: live tuples with their (reference, batched) ids.
    std::map<std::string, std::vector<std::pair<TupleId, TupleId>>> live;
    std::map<std::string, std::vector<Tuple>> live_t;
    const size_t kSizes[] = {1, 2, 3, 5, 8, 13, 21};

    for (int b = 0; b < num_batches; ++b) {
      size_t n = kSizes[rng.Uniform(7)];
      bat.wm->BeginBatch();
      for (size_t k = 0; k < n; ++k) {
        const std::string& cls = classes[rng.Uniform(classes.size())];
        double roll = rng.NextDouble();
        if (roll < delete_prob && !live_t[cls].empty()) {
          size_t pick = rng.Uniform(live_t[cls].size());
          ASSERT_TRUE(ref.wm->Delete(cls, live[cls][pick].first).ok());
          ASSERT_TRUE(bat.wm->Delete(cls, live[cls][pick].second).ok());
          live[cls].erase(live[cls].begin() + static_cast<long>(pick));
          live_t[cls].erase(live_t[cls].begin() + static_cast<long>(pick));
        } else if (roll < delete_prob + modify_prob &&
                   !live_t[cls].empty()) {
          size_t pick = rng.Uniform(live_t[cls].size());
          Tuple next = gen(cls, &rng);
          TupleId r_id, b_id;
          ASSERT_TRUE(
              ref.wm->Modify(cls, live[cls][pick].first, next, &r_id).ok());
          ASSERT_TRUE(
              bat.wm->Modify(cls, live[cls][pick].second, next, &b_id).ok());
          live[cls][pick] = {r_id, b_id};
          live_t[cls][pick] = std::move(next);
        } else {
          Tuple t = gen(cls, &rng);
          TupleId r_id, b_id;
          ASSERT_TRUE(ref.wm->Insert(cls, t, &r_id).ok());
          ASSERT_TRUE(bat.wm->Insert(cls, t, &b_id).ok());
          live[cls].emplace_back(r_id, b_id);
          live_t[cls].push_back(std::move(t));
        }
      }
      ASSERT_TRUE(bat.wm->CommitBatch().ok()) << mc.name;
      ASSERT_EQ(CanonicalConflictSet(*bat.matcher),
                CanonicalConflictSet(*ref.matcher))
          << mc.name << " diverged after batch " << b << " (size " << n
          << ")";
    }
    // Identical net state: footprints must be in the same regime.
    size_t fr = ref.matcher->AuxiliaryFootprintBytes();
    size_t fb = bat.matcher->AuxiliaryFootprintBytes();
    EXPECT_LE(fb, 2 * fr + 4096) << mc.name;
    EXPECT_LE(fr, 2 * fb + 4096) << mc.name;
    EXPECT_GE(bat.matcher->stats().batches.load(),
              static_cast<uint64_t>(num_batches))
        << mc.name;
  }
}

// A rule whose second CE names a missing class must fail before it
// registers its first: the next rule reuses its index, and a leftover
// registration would instantiate under that rule's name.
TEST(MatcherEquivalence, FailedAddRuleLeavesNoGhost) {
  const std::string program = R"(
(literalize A k)
(literalize B k)
)";
  Catalog scratch;
  std::vector<Rule> rules;
  ASSERT_TRUE(LoadProgram(program + R"(
(literalize Z k)
(p bad (A ^k <x>) (Z ^k <x>) --> (remove 1))
(p good (B ^k <x>) --> (remove 1))
)",
                          &scratch, &rules)
                  .ok());
  for (const char* spec : {"rete", "rete-dbms", "query", "pattern"}) {
    SCOPED_TRACE(spec);
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, spec).ok());
    EXPECT_TRUE(h.matcher->AddRule(rules[0]).IsNotFound());
    ASSERT_TRUE(h.matcher->AddRule(rules[1]).ok());
    ASSERT_TRUE(h.wm->Insert("A", Tuple{Value(int64_t{7})}).ok());
    EXPECT_TRUE(CanonicalConflictSet(*h.matcher).empty());
  }
}

TEST(MatcherBatchEquivalence, ThreeWayJoinShuffledBatches) {
  auto gen = [](const std::string& cls, Rng* rng) {
    int64_t lo = static_cast<int64_t>(rng->Uniform(4));
    int64_t hi = static_cast<int64_t>(rng->Uniform(4));
    if (cls == "A") return Tuple{Value(lo), Value("a"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value("b")};
    return Tuple{Value("c"), Value(lo), Value(hi)};
  };
  RunBatchedTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 101, 40, 0.25, 0.15);
}

TEST(MatcherBatchEquivalence, EmpDeptShuffledBatches) {
  auto gen = [](const std::string& cls, Rng* rng) {
    static const char* names[] = {"Mike", "Sam", "Ann", "Bob"};
    if (cls == "Emp") {
      return Tuple{Value(names[rng->Uniform(4)]),
                   Value(static_cast<int64_t>(rng->Uniform(60))),
                   Value(static_cast<int64_t>(rng->Uniform(300))),
                   Value(static_cast<int64_t>(rng->Uniform(3))),
                   Value(names[rng->Uniform(4)])};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(3))),
                 Value(rng->Chance(0.5) ? "Toy" : "Shoe"),
                 Value(static_cast<int64_t>(1 + rng->Uniform(2))),
                 Value(names[rng->Uniform(4)])};
  };
  RunBatchedTrace(kEmpDept, {"Emp", "Dept"}, gen, 211, 40, 0.25, 0.2);
}

TEST(MatcherBatchEquivalence, NegationShuffledBatches) {
  const char* program = R"(
(literalize Order id status)
(literalize Assignment order machine)
(p Idle
  (Order ^id <o> ^status pending)
  -(Assignment ^order <o>)
  -->
  (remove 1))
(p Busy
  (Order ^id <o> ^status pending)
  (Assignment ^order <o> ^machine <m>)
  -->
  (remove 2))
)";
  auto gen = [](const std::string& cls, Rng* rng) {
    if (cls == "Order") {
      return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                   Value(rng->Chance(0.7) ? "pending" : "done")};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                 Value(static_cast<int64_t>(rng->Uniform(3)))};
  };
  RunBatchedTrace(program, {"Order", "Assignment"}, gen, 307, 40, 0.3, 0.1);
}

// Parameterized sweep over synthetic workloads: join widths 2..4, chain
// and star shapes.
struct SweepParam {
  size_t ces;
  bool chain;
  uint64_t seed;
};

class MatcherEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MatcherEquivalenceSweep, SyntheticWorkload) {
  const SweepParam param = GetParam();
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 4;
  spec.num_rules = 6;
  spec.ces_per_rule = param.ces;
  spec.chain_join = param.chain;
  spec.domain = 4;  // dense joins
  spec.seed = param.seed;
  WorkloadGenerator gen(spec);
  std::vector<Rule> rules = gen.GenerateRules();

  std::vector<MatcherHarness> harnesses;
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness h;
    h.catalog = std::make_unique<Catalog>();
    ASSERT_TRUE(gen.CreateClasses(h.catalog.get()).ok());
    h.rules = rules;
    h.matcher = mc.factory(h.catalog.get());
    for (const Rule& r : rules) {
      ASSERT_TRUE(h.matcher->AddRule(r).ok());
    }
    h.wm = std::make_unique<WorkingMemory>(h.catalog.get(),
                                           h.matcher.get());
    harnesses.push_back(std::move(h));
  }

  Rng rng(param.seed * 131);
  std::vector<std::pair<std::string, std::vector<TupleId>>> live;
  for (int step = 0; step < 200; ++step) {
    if (rng.Chance(0.3) && !live.empty()) {
      size_t pick = rng.Uniform(live.size());
      for (size_t m = 0; m < harnesses.size(); ++m) {
        ASSERT_TRUE(
            harnesses[m].wm->Delete(live[pick].first, live[pick].second[m])
                .ok());
      }
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      std::string cls = gen.ClassName(rng.Uniform(spec.num_classes));
      Tuple t = gen.RandomTuple(&rng);
      std::vector<TupleId> ids;
      for (auto& h : harnesses) {
        TupleId id;
        ASSERT_TRUE(h.wm->Insert(cls, t, &id).ok());
        ids.push_back(id);
      }
      live.emplace_back(cls, std::move(ids));
    }
    auto oracle = CanonicalConflictSet(*harnesses[0].matcher);
    for (size_t m = 1; m < harnesses.size(); ++m) {
      ASSERT_EQ(CanonicalConflictSet(*harnesses[m].matcher), oracle)
          << AllMatchers()[m].name << " diverged at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatcherEquivalenceSweep,
    ::testing::Values(SweepParam{2, true, 1}, SweepParam{3, true, 2},
                      SweepParam{4, true, 3}, SweepParam{3, false, 4},
                      SweepParam{4, false, 5}),
    [](const auto& info) {
      return "Ces" + std::to_string(info.param.ces) +
             (info.param.chain ? "Chain" : "Star") + "Seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace prodb
