#include "rete/network.h"

#include <gtest/gtest.h>

#include "common/change_set.h"
#include "common/rng.h"
#include "matcher_test_util.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

class ReteTest : public ::testing::TestWithParam<bool> {
 protected:
  void Load(const std::string& source) {
    ASSERT_TRUE(harness_.Init(source, GetParam() ? "rete-dbms" : "rete").ok());
    rete_ = static_cast<ReteNetwork*>(harness_.matcher.get());
  }
  WorkingMemory& wm() { return *harness_.wm; }
  ConflictSet& cs() { return harness_.matcher->conflict_set(); }
  MatcherHarness harness_;
  ReteNetwork* rete_ = nullptr;
};

TEST_P(ReteTest, ThreeWayJoinFiresOnLastArrival) {
  Load(kThreeWayJoin);
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  EXPECT_TRUE(cs().empty());
  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  ASSERT_EQ(cs().size(), 1u);
  EXPECT_EQ(cs().Snapshot()[0].rule_name, "Rule-1");
}

TEST_P(ReteTest, OutOfOrderArrivalAlsoFires) {
  Load(kThreeWayJoin);
  // Tokens queue in LEFT/RIGHT memories awaiting partners (§3.1).
  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  EXPECT_TRUE(cs().empty());
  EXPECT_GT(rete_->TokenCount(), 0u);
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  EXPECT_EQ(cs().size(), 1u);
}

TEST_P(ReteTest, NonMatchingTuplesAreFiltered) {
  Load(kThreeWayJoin);
  // a2 != 'a': discarded by the one-input node, never stored.
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("x"), Value(8)}).ok());
  EXPECT_EQ(rete_->TokenCount(), 0u);
}

TEST_P(ReteTest, MinusTokensRetract) {
  Load(kThreeWayJoin);
  TupleId b;
  ASSERT_TRUE(wm().Insert("A", Tuple{Value(4), Value("a"), Value(8)}).ok());
  ASSERT_TRUE(
      wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}, &b).ok());
  ASSERT_TRUE(wm().Insert("C", Tuple{Value("c"), Value(7), Value(8)}).ok());
  ASSERT_EQ(cs().size(), 1u);
  ASSERT_TRUE(wm().Delete("B", b).ok());
  EXPECT_TRUE(cs().empty());
  // Reinsert: fires again.
  ASSERT_TRUE(wm().Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  EXPECT_EQ(cs().size(), 1u);
}

TEST_P(ReteTest, NegatedNodeCountsWitnesses) {
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
  TupleId w1, w2;
  ASSERT_TRUE(wm().Insert("Assignment", Tuple{Value(1), Value(7)}, &w1).ok());
  EXPECT_TRUE(cs().empty());
  ASSERT_TRUE(wm().Insert("Assignment", Tuple{Value(1), Value(8)}, &w2).ok());
  ASSERT_TRUE(wm().Delete("Assignment", w1).ok());
  // One witness remains: still blocked.
  EXPECT_TRUE(cs().empty());
  ASSERT_TRUE(wm().Delete("Assignment", w2).ok());
  EXPECT_EQ(cs().size(), 1u);
}

TEST_P(ReteTest, EmpDeptRulesBothFire) {
  Load(kEmpDept);
  ASSERT_TRUE(wm().Insert("Emp",
                          Tuple{Value("Mike"), Value(30), Value(200), Value(1),
                                Value("Sam")})
                  .ok());
  ASSERT_TRUE(wm().Insert("Emp",
                          Tuple{Value("Sam"), Value(50), Value(100), Value(2),
                                Value("Board")})
                  .ok());
  ASSERT_TRUE(
      wm().Insert("Dept", Tuple{Value(1), Value("Toy"), Value(1), Value("S")})
          .ok());
  auto snap = cs().Snapshot();
  std::multiset<std::string> names;
  for (const auto& inst : snap) names.insert(inst.rule_name);
  EXPECT_EQ(names, (std::multiset<std::string>{"R1", "R2"}));
}

INSTANTIATE_TEST_SUITE_P(Backend, ReteTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DbmsBacked" : "InMemory";
                         });

TEST(ReteTopologyTest, AlphaSharingReducesNodes) {
  // Two rules with identical first CE share one alpha node when sharing
  // is on ([SELL86]-style multiple-query optimization).
  const char* source = R"(
(literalize E k v)
(literalize F k v)
(p r1 (E ^k 1 ^v <x>) (F ^k <x>) --> (remove 1))
(p r2 (E ^k 1 ^v <y>) (F ^v <y>) --> (remove 2))
)";
  MatcherHarness shared, unshared;
  ASSERT_TRUE(shared.Init(source, "rete").ok());
  ASSERT_TRUE(unshared.Init(source, "rete-noshare").ok());
  auto topo_on = static_cast<ReteNetwork*>(shared.matcher.get())->Topology();
  auto topo_off =
      static_cast<ReteNetwork*>(unshared.matcher.get())->Topology();
  EXPECT_LT(topo_on.alpha_nodes, topo_off.alpha_nodes);
  EXPECT_EQ(topo_off.alpha_nodes, 4u);
  EXPECT_EQ(topo_on.production_nodes, 2u);
}

TEST(ReteTopologyTest, BetaPrefixSharingMergesChains) {
  // Two 3-CE rules with identical first two CEs: with prefix sharing the
  // first join is compiled once ([SELL88]-style global plan).
  const char* source = R"(
(literalize E k v)
(literalize F k v)
(literalize G k v)
(p r1 (E ^k 1 ^v <x>) (F ^k <x> ^v <y>) (G ^k <y>) --> (remove 1))
(p r2 (E ^k 1 ^v <x>) (F ^k <x> ^v <y>) (G ^v <y>) --> (remove 1))
)";
  MatcherHarness shared, unshared;
  ASSERT_TRUE(shared.Init(source, "rete").ok());
  ASSERT_TRUE(unshared.Init(source, "rete-noshare").ok());
  auto topo_on = static_cast<ReteNetwork*>(shared.matcher.get())->Topology();
  auto topo_off =
      static_cast<ReteNetwork*>(unshared.matcher.get())->Topology();
  EXPECT_EQ(topo_off.beta_nodes, 4u);  // two 2-join chains
  EXPECT_EQ(topo_on.beta_nodes, 3u);   // E⋈F shared, two G joins

  // Behaviour identical: a completing insert fires both rules in both
  // configurations.
  for (MatcherHarness* h : {&shared, &unshared}) {
    ASSERT_TRUE(h->wm->Insert("E", Tuple{Value(1), Value(5)}).ok());
    ASSERT_TRUE(h->wm->Insert("F", Tuple{Value(5), Value(9)}).ok());
    ASSERT_TRUE(h->wm->Insert("G", Tuple{Value(9), Value(9)}).ok());
  }
  EXPECT_EQ(CanonicalConflictSet(*shared.matcher),
            CanonicalConflictSet(*unshared.matcher));
  EXPECT_EQ(shared.matcher->conflict_set().size(), 2u);
}

TEST(ReteTopologyTest, BetaSharingSurvivesDeletion) {
  const char* source = R"(
(literalize E k)
(literalize F k)
(p r1 (E ^k <x>) (F ^k <x>) --> (remove 1))
(p r2 (E ^k <x>) (F ^k <x>) --> (remove 2))
)";
  MatcherHarness h;
  ASSERT_TRUE(h.Init(source,
                     [](Catalog* c) {
                       return std::make_unique<ReteNetwork>(c);
                     })
                  .ok());
  TupleId e, f;
  ASSERT_TRUE(h.wm->Insert("E", Tuple{Value(1)}, &e).ok());
  ASSERT_TRUE(h.wm->Insert("F", Tuple{Value(1)}, &f).ok());
  EXPECT_EQ(h.matcher->conflict_set().size(), 2u);  // both rules fire
  ASSERT_TRUE(h.wm->Delete("F", f).ok());
  EXPECT_TRUE(h.matcher->conflict_set().empty());
  ASSERT_TRUE(h.wm->Insert("F", Tuple{Value(1)}).ok());
  EXPECT_EQ(h.matcher->conflict_set().size(), 2u);
}

// --- Shared RIGHT memories ------------------------------------------------

// r1 and r2 have different heads, but all their CEs read one alpha node
// (class A, no constant tests), and their second CEs are the same text:
// the two level-1 nodes share one RIGHT memory. r3 reads that memory one
// level deeper, r4 reads the alpha node through a negated CE. Mutating
// the shared memory once per activation must still form each pair
// exactly once; mutating it at the first node in registration order
// formed r1/r2 pairs twice.
constexpr const char* kSharedRightProgram = R"(
(literalize A x y z)
(literalize B k)
(p r1 (A ^x <v>) (A ^y <v>) --> (remove 1))
(p r2 (A ^z <w>) (A ^y <w>) --> (remove 1))
(p r3 (B ^k <u>) (A ^x <u>) (A ^y <u>) --> (remove 1))
(p r4 (A ^z <w>) -(A ^y <w>) --> (remove 1))
)";

std::vector<MatcherSpec> SharedRightVariants() {
  MatcherSpec hot = NamedSpec("rete-shard4");
  hot.sharding.hot_classes = {"A"};
  return {NamedSpec("rete"), NamedSpec("rete-noshare"), hot,
          NamedSpec("rete-dbms")};
}

TEST(ReteSharedRightTest, EveryPairFormsExactlyOnce) {
  for (const MatcherSpec& variant : SharedRightVariants()) {
    SCOPED_TRACE(variant.Name());
    MatcherHarness rete, query;
    ASSERT_TRUE(rete.Init(kSharedRightProgram,
                          [&](Catalog* c) {
                            return std::make_unique<ReteNetwork>(c, variant);
                          })
                    .ok());
    ASSERT_TRUE(query.Init(kSharedRightProgram, "query").ok());
    // The level-1 CEs of r1 and r2 and the level-2 CE of r3 share one
    // memory (and r3's level-1 CE and r4's negated CE have their own) —
    // unless the hot variant replicates the chains per shard. Unshared,
    // each of the five nodes keeps its own.
    const ReteTopology topo =
        static_cast<ReteNetwork*>(rete.matcher.get())->Topology();
    if (!variant.sharding.enabled()) {
      EXPECT_EQ(topo.right_memories, variant.share ? 3u : 5u);
    }

    // Live tuples: class, tuple, and their ids in (rete, query).
    struct Live {
      std::string cls;
      Tuple t;
      TupleId r, q;
    };
    std::vector<Live> live;
    Rng rng(17);
    auto gen = [&](const std::string& cls) {
      if (cls == "B") return Tuple{Value(rng.Range(0, 3))};
      return Tuple{Value(rng.Range(0, 3)), Value(rng.Range(0, 3)),
                   Value(rng.Range(0, 3))};
    };
    for (int batch = 0; batch < 120; ++batch) {
      rete.wm->BeginBatch();
      query.wm->BeginBatch();
      const int ops = 1 + static_cast<int>(rng.Uniform(6));
      for (int op = 0; op < ops; ++op) {
        const uint64_t kind = live.empty() ? 0 : rng.Uniform(5);
        if (kind <= 1) {
          const std::string cls = rng.Uniform(4) == 0 ? "B" : "A";
          Live l{cls, gen(cls), {}, {}};
          ASSERT_TRUE(rete.wm->Insert(cls, l.t, &l.r).ok());
          ASSERT_TRUE(query.wm->Insert(cls, l.t, &l.q).ok());
          live.push_back(std::move(l));
        } else if (kind == 2) {
          // Insert and delete one tuple inside the same ChangeSet.
          Tuple t = gen("A");
          TupleId r, q;
          ASSERT_TRUE(rete.wm->Insert("A", t, &r).ok());
          ASSERT_TRUE(query.wm->Insert("A", t, &q).ok());
          ASSERT_TRUE(rete.wm->Delete("A", r).ok());
          ASSERT_TRUE(query.wm->Delete("A", q).ok());
        } else if (kind == 3) {
          const size_t pick = rng.Uniform(live.size());
          Live& l = live[pick];
          Tuple t = gen(l.cls);
          ASSERT_TRUE(rete.wm->Modify(l.cls, l.r, t, &l.r).ok());
          ASSERT_TRUE(query.wm->Modify(l.cls, l.q, t, &l.q).ok());
          l.t = std::move(t);
        } else {
          const size_t pick = rng.Uniform(live.size());
          ASSERT_TRUE(rete.wm->Delete(live[pick].cls, live[pick].r).ok());
          ASSERT_TRUE(query.wm->Delete(live[pick].cls, live[pick].q).ok());
          live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
        }
      }
      ASSERT_TRUE(rete.wm->CommitBatch().ok());
      ASSERT_TRUE(query.wm->CommitBatch().ok());
      ASSERT_EQ(CanonicalConflictSet(*rete.matcher),
                CanonicalConflictSet(*query.matcher))
          << "diverged after batch " << batch;
    }
  }
}

// The served join benchmark's eight rules, written in the order the
// planner picks (Customer, Order, Item) and compiled without it: every
// rule reads the shared Order and Item alpha nodes with the same CE and
// join key after its own Customer head, so 16 join nodes read 2 RIGHT
// memories. Unshared (rete-noshare), each node keeps its own.
TEST(ReteTopologyTest, JoinRulesShareTwoRightMemories) {
  std::string source =
      "(literalize Customer id region tier)\n"
      "(literalize Item id region)\n"
      "(literalize Order id cust item)\n";
  for (int k = 0; k < 8; ++k) {
    source += "(p ship" + std::to_string(k) +
              " (Customer ^id <c> ^region <r> ^tier " + std::to_string(k) +
              ") (Order ^cust <c> ^item <i>) (Item ^id <i> ^region <r>)"
              " --> (remove 1))\n";
  }
  MatcherHarness shared, unshared;
  ASSERT_TRUE(shared.Init(source, "rete").ok());
  ASSERT_TRUE(unshared.Init(source, "rete-noshare").ok());
  auto* on_net = static_cast<ReteNetwork*>(shared.matcher.get());
  auto* off_net = static_cast<ReteNetwork*>(unshared.matcher.get());
  EXPECT_EQ(on_net->Topology().beta_nodes, 16u);
  EXPECT_EQ(on_net->Topology().right_memories, 2u);
  EXPECT_EQ(off_net->Topology().right_memories, 16u);

  // Same answers; each Order and Item is held once, not once per rule.
  for (MatcherHarness* h : {&shared, &unshared}) {
    for (int c = 0; c < 16; ++c) {
      ASSERT_TRUE(h->wm->Insert("Customer",
                                Tuple{Value(c), Value(c % 2), Value(c % 8)})
                      .ok());
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(h->wm->Insert("Item", Tuple{Value(i), Value(i % 2)}).ok());
    }
    for (int o = 0; o < 32; ++o) {
      ASSERT_TRUE(h->wm->Insert("Order",
                                Tuple{Value(o), Value(o % 16), Value(o % 4)})
                      .ok());
    }
  }
  EXPECT_EQ(CanonicalConflictSet(*shared.matcher),
            CanonicalConflictSet(*unshared.matcher));
  EXPECT_FALSE(shared.matcher->conflict_set().empty());
  // 32 Orders + 4 Items in RIGHT memories, once shared or 8 times not.
  EXPECT_EQ(off_net->TokenCount() - on_net->TokenCount(), 7u * (32 + 4));
  EXPECT_EQ(shared.matcher->stats().patterns_stored.load(),
            on_net->TokenCount());
  EXPECT_LT(shared.matcher->AuxiliaryFootprintBytes(),
            unshared.matcher->AuxiliaryFootprintBytes());
}

// Memories hold handles that own their tuples: a batch's ChangeSet (and
// every tuple in it) can go away as soon as OnBatch returns. A later join
// reads the stored tuple through its handle, and a later retraction
// finds it by id. Under ASan a handle into the freed batch is caught.
TEST(ReteLifetimeTest, MemoriesOutliveTheirChangeSet) {
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize A k v)
(literalize B k v)
(p r (A ^k <x>) (B ^k <x>) --> (remove 1))
)",
                     [](Catalog* c) {
                       return std::make_unique<ReteNetwork>(c);
                     })
                  .ok());
  const Tuple a{Value(1), Value("held by a LEFT memory past its batch")};
  const Tuple b{Value(2), Value("held by a RIGHT memory past its batch")};
  TupleId a_id, b_id;
  ASSERT_TRUE(h.catalog->Get("A")->Insert(a, &a_id).ok());
  ASSERT_TRUE(h.catalog->Get("B")->Insert(b, &b_id).ok());
  {
    auto batch = std::make_unique<ChangeSet>();
    batch->AddInsert("A", a, a_id);
    batch->AddInsert("B", b, b_id);
    ASSERT_TRUE(h.matcher->OnBatch(*batch).ok());
  }  // the batch and its tuple copies are gone

  // Partners arrive: each join reads a stored tuple through its handle.
  const Tuple b1{Value(1), Value("partner")};
  const Tuple a2{Value(2), Value("partner")};
  TupleId b1_id, a2_id;
  ASSERT_TRUE(h.catalog->Get("B")->Insert(b1, &b1_id).ok());
  ASSERT_TRUE(h.catalog->Get("A")->Insert(a2, &a2_id).ok());
  {
    ChangeSet batch;
    batch.AddInsert("B", b1, b1_id);
    batch.AddInsert("A", a2, a2_id);
    ASSERT_TRUE(h.matcher->OnBatch(batch).ok());
  }
  std::vector<Instantiation> snap = h.matcher->conflict_set().Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  std::multiset<std::string> got;
  for (const Instantiation& inst : snap) {
    got.insert(inst.tuples[0].ToString() + inst.tuples[1].ToString());
  }
  EXPECT_EQ(got, (std::multiset<std::string>{a.ToString() + b1.ToString(),
                                             a2.ToString() + b.ToString()}));

  // Retract the first batch's tuples by id.
  {
    ChangeSet batch;
    batch.AddDelete("A", a_id, a);
    batch.AddDelete("B", b_id, b);
    ASSERT_TRUE(h.matcher->OnBatch(batch).ok());
  }
  EXPECT_TRUE(h.matcher->conflict_set().empty());
  // The partners are still stored, once each.
  EXPECT_EQ(static_cast<ReteNetwork*>(h.matcher.get())->TokenCount(), 2u);
}

// A rule whose build fails after it has hooked nodes into the network
// (here: its RIGHT memory's relation name is already taken) must leave
// the network as it was. Its level-1 node would otherwise hang off the
// shared level-0 node and the shared B alpha node, reading a popped
// rule's conditions on the next activation (a use-after-free under
// ASan), and its LEFT relation would stay in the catalog.
TEST(ReteLifetimeTest, FailedAddRuleLeavesNetworkAsBefore) {
  const std::string program = R"(
(literalize A k v)
(literalize B k v)
(p ok (A ^k <x>) (B ^k <x>) --> (remove 1))
)";
  MatcherHarness h;
  ASSERT_TRUE(h.Init(program, "rete-dbms").ok());
  auto* rete = static_cast<ReteNetwork*>(h.matcher.get());
  ASSERT_TRUE(h.wm->Insert("A", Tuple{Value(1), Value(10)}).ok());
  ASSERT_TRUE(h.wm->Insert("B", Tuple{Value(2), Value(1)}).ok());

  // `bad` shares `ok`'s level-0 node and B alpha node; its stores would
  // be LEFT2-bad-L1 and RIGHT3-bad-L1, and the second name is taken.
  Catalog scratch;
  std::vector<Rule> rules;
  ASSERT_TRUE(LoadProgram(program + R"(
(p bad (A ^k <x>) (B ^v <x>) --> (remove 1))
)",
                          &scratch, &rules)
                  .ok());
  Relation* blocker = nullptr;
  ASSERT_TRUE(h.catalog
                  ->CreateRelation(Schema("RIGHT3-bad-L1",
                                          {{"x", ValueType::kInt}}),
                                   &blocker)
                  .ok());
  const ReteTopology topo = rete->Topology();
  const size_t tokens = rete->TokenCount();
  const size_t relations = h.catalog->RelationNames().size();

  EXPECT_FALSE(h.matcher->AddRule(rules[1]).ok());
  EXPECT_EQ(h.matcher->rules().size(), 1u);
  const ReteTopology after = rete->Topology();
  EXPECT_EQ(after.alpha_nodes, topo.alpha_nodes);
  EXPECT_EQ(after.beta_nodes, topo.beta_nodes);
  EXPECT_EQ(after.negative_nodes, topo.negative_nodes);
  EXPECT_EQ(after.production_nodes, topo.production_nodes);
  EXPECT_EQ(after.right_memories, topo.right_memories);
  EXPECT_EQ(rete->TokenCount(), tokens);
  // The failed build's LEFT relation is gone; the blocker is untouched.
  EXPECT_EQ(h.catalog->RelationNames().size(), relations);
  EXPECT_EQ(h.catalog->Get("RIGHT3-bad-L1"), blocker);
  for (const std::string& name : h.catalog->RelationNames()) {
    if (name != "RIGHT3-bad-L1") {
      EXPECT_EQ(name.find("-bad-"), std::string::npos) << name;
    }
  }

  // Later activations reach only `ok`'s nodes, and the conflict set
  // stays what the working memory implies.
  MatcherHarness oracle;
  ASSERT_TRUE(oracle.Init(program, "query").ok());
  ASSERT_TRUE(oracle.wm->Insert("A", Tuple{Value(1), Value(10)}).ok());
  ASSERT_TRUE(oracle.wm->Insert("B", Tuple{Value(2), Value(1)}).ok());
  for (MatcherHarness* m : {&h, &oracle}) {
    ASSERT_TRUE(m->wm->Insert("A", Tuple{Value(2), Value(20)}).ok());
    ASSERT_TRUE(m->wm->Insert("B", Tuple{Value(1), Value(2)}).ok());
  }
  EXPECT_EQ(CanonicalConflictSet(*h.matcher),
            CanonicalConflictSet(*oracle.matcher));
  EXPECT_EQ(h.matcher->conflict_set().size(), 2u);
}

TEST(ReteDbmsTest, LeftRightRelationsMaterializeInCatalog) {
  // §3.2: the DBMS implementation stores LEFT/RIGHT as relations.
  MatcherHarness h;
  ASSERT_TRUE(h.Init(kThreeWayJoin, "rete-dbms").ok());
  int memory_relations = 0;
  for (const std::string& name : h.catalog->RelationNames()) {
    if (name.rfind("LEFT", 0) == 0 || name.rfind("RIGHT", 0) == 0) {
      ++memory_relations;
    }
  }
  // Two join levels beyond the head: 2 LEFT + 2 RIGHT.
  EXPECT_EQ(memory_relations, 4);
  // Tokens land in those relations.
  ASSERT_TRUE(h.wm->Insert("B", Tuple{Value(4), Value(7), Value("b")}).ok());
  size_t stored = 0;
  for (const std::string& name : h.catalog->RelationNames()) {
    if (name.rfind("LEFT", 0) == 0 || name.rfind("RIGHT", 0) == 0) {
      stored += h.catalog->Get(name)->Count();
    }
  }
  EXPECT_GT(stored, 0u);
}

}  // namespace
}  // namespace prodb
