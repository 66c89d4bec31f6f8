#include "match/conflict_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"
#include "engine/strategy.h"

namespace prodb {
namespace {

Instantiation Make(int rule, std::vector<uint32_t> pages) {
  Instantiation inst;
  inst.rule_index = rule;
  inst.rule_name = "R" + std::to_string(rule);
  for (uint32_t p : pages) {
    inst.tuple_ids.push_back(TupleId{p, 0});
    inst.tuples.push_back(Tuple{Value(static_cast<int64_t>(p))});
  }
  return inst;
}

TEST(InstantiationTest, KeyOfMatchesKeyWithNegatedSlot) {
  // A rule whose second CE is negated: that slot holds no tuple. The key
  // a matcher retracts by must be byte-identical to the member's Key().
  Instantiation inst;
  inst.rule_index = 3;
  inst.rule_name = "r";
  inst.tuple_ids = {TupleId{7, 2}, Instantiation::kNoTuple, TupleId{9, 0}};
  inst.tuples = {Tuple{Value(1)}, Tuple(), Tuple{Value(2)}};
  EXPECT_EQ(Instantiation::KeyOf(3, inst.tuple_ids), inst.Key());
  ConflictSet cs;
  ASSERT_TRUE(cs.Add(inst));
  EXPECT_TRUE(cs.RemoveByKey(Instantiation::KeyOf(3, inst.tuple_ids)));
  EXPECT_TRUE(cs.empty());
}

TEST(ConflictSetTest, AddDeduplicates) {
  ConflictSet cs;
  EXPECT_TRUE(cs.Add(Make(0, {1, 2})));
  EXPECT_FALSE(cs.Add(Make(0, {1, 2})));  // same rule + tuples
  EXPECT_TRUE(cs.Add(Make(1, {1, 2})));   // different rule
  EXPECT_TRUE(cs.Add(Make(0, {1, 3})));   // different tuples
  EXPECT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.total_added(), 3u);
}

TEST(ConflictSetTest, RecencyMonotone) {
  ConflictSet cs;
  cs.Add(Make(0, {1}));
  cs.Add(Make(0, {2}));
  auto snap = cs.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_NE(snap[0].recency, snap[1].recency);
}

TEST(ConflictSetTest, RemoveAndContains) {
  ConflictSet cs;
  Instantiation inst = Make(0, {1, 2});
  cs.Add(inst);
  EXPECT_TRUE(cs.Contains(inst.Key()));
  EXPECT_TRUE(cs.Remove(inst));
  EXPECT_FALSE(cs.Remove(inst));
  EXPECT_TRUE(cs.empty());
}

TEST(ConflictSetTest, RemoveIfByPredicate) {
  ConflictSet cs;
  cs.Add(Make(0, {1, 2}));
  cs.Add(Make(0, {1, 3}));
  cs.Add(Make(1, {9}));
  size_t removed = cs.RemoveIf([](const Instantiation& inst) {
    return inst.rule_index == 0 && inst.tuple_ids[0] == TupleId{1, 0};
  });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(cs.size(), 1u);
}

TEST(ConflictSetTest, TakeWithChooser) {
  ConflictSet cs;
  cs.Add(Make(0, {1}));
  cs.Add(Make(1, {2}));
  Instantiation out;
  // Chooser picks the second member in key order.
  ASSERT_TRUE(cs.Take(
      [](const ConflictSet::View& view) { return view.NthInKeyOrder(1); },
      &out));
  EXPECT_EQ(out.rule_name, "R1");
  EXPECT_EQ(cs.size(), 1u);
  // Declining chooser takes nothing.
  EXPECT_FALSE(cs.Take(
      [](const ConflictSet::View& view) { return view.end(); }, &out));
  EXPECT_EQ(cs.size(), 1u);
  // Empty set: the chooser is never asked.
  cs.Clear();
  bool asked = false;
  EXPECT_FALSE(cs.Take(
      [&](const ConflictSet::View& view) {
        asked = true;
        return view.begin();
      },
      &out));
  EXPECT_FALSE(asked);
}

TEST(ConflictSetTest, RemoveIfNotifiesInKeyOrder) {
  ConflictSet cs;
  // Added out of key order, so neither insertion nor recency order is
  // key order.
  for (uint32_t page : {7u, 3u, 12u, 5u, 40u, 1u, 9u}) {
    ASSERT_TRUE(cs.Add(Make(static_cast<int>(page % 3), {page})));
  }
  std::vector<std::string> heard;
  cs.SetDeltaListener(
      [&](bool added, const std::string& key, const Instantiation* inst) {
        EXPECT_FALSE(added);
        EXPECT_EQ(inst, nullptr);
        heard.push_back(key);
      });
  const size_t removed = cs.RemoveIf([](const Instantiation& inst) {
    return inst.tuple_ids[0].page_id != 12;
  });
  cs.SetDeltaListener(nullptr);
  EXPECT_EQ(removed, 6u);
  ASSERT_EQ(heard.size(), 6u);
  EXPECT_TRUE(std::is_sorted(heard.begin(), heard.end()));
  EXPECT_EQ(std::adjacent_find(heard.begin(), heard.end()), heard.end());
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs.Contains(Make(0, {12}).Key()));
}

// The selection logic strategies had when a chooser received a copy of
// the members in key order and returned an index: the reference the
// non-copying choosers must agree with, pick for pick.
int ReferencePick(StrategyKind kind, const std::vector<Instantiation>& items,
                  const std::vector<Rule>& rules, Rng* rng) {
  if (items.empty()) return -1;
  if (kind == StrategyKind::kRandom) {
    return static_cast<int>(rng->Uniform(items.size()));
  }
  auto prio = [&](const Instantiation& inst) {
    return rules[static_cast<size_t>(inst.rule_index)].priority;
  };
  size_t best = 0;
  for (size_t i = 1; i < items.size(); ++i) {
    const Instantiation& a = items[i];
    const Instantiation& b = items[best];
    bool better = false;
    switch (kind) {
      case StrategyKind::kFifo: better = a.recency < b.recency; break;
      case StrategyKind::kRecency: better = a.recency > b.recency; break;
      case StrategyKind::kPriority:
        better = prio(a) > prio(b) ||
                 (prio(a) == prio(b) && a.recency > b.recency);
        break;
      case StrategyKind::kRandom: break;
    }
    if (better) best = i;
  }
  return static_cast<int>(best);
}

constexpr int kRandomRules = 5;

Instantiation RandomInst(Rng* rng) {
  std::vector<uint32_t> pages(1 + rng->Uniform(2));
  for (uint32_t& p : pages) p = static_cast<uint32_t>(rng->Uniform(12));
  return Make(static_cast<int>(rng->Uniform(kRandomRules)), pages);
}

// A member's key half the time, a random (possibly absent) key otherwise.
std::string RandomKey(const ConflictSet& cs, Rng* rng) {
  std::vector<Instantiation> members = cs.Snapshot();
  if (!members.empty() && rng->Chance(0.5)) {
    return members[rng->Uniform(members.size())].Key();
  }
  return RandomInst(rng).Key();
}

// The keys a walk of the view visits, sorted.
std::vector<std::string> WalkedKeys(const ConflictSet::View& view) {
  std::vector<std::string> keys;
  for (const auto& [key, inst] : view) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The keys of NthInKeyOrder(0), NthInKeyOrder(1), ... up to the first
// end().
std::vector<std::string> KeysByNth(const ConflictSet::View& view) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < view.size(); ++i) {
    const ConflictSet::View::const_iterator nth = view.NthInKeyOrder(i);
    if (nth == view.end()) break;
    keys.push_back(nth->first);
  }
  return keys;
}

// The view's recency ends are the min/max-recency members, its walk
// visits every member once, its k-th member in key order is Snapshot()'s
// k-th, and CountByRule agrees with the members.
void ExpectIndexesInStep(ConflictSet& cs) {
  const std::vector<Instantiation> members = cs.Snapshot();
  std::vector<std::string> member_keys;
  std::vector<uint64_t> per_rule(kRandomRules, 0);
  for (const Instantiation& inst : members) {
    member_keys.push_back(inst.Key());
    ++per_rule[static_cast<size_t>(inst.rule_index)];
  }
  EXPECT_EQ(cs.CountByRule(kRandomRules), per_rule);

  auto by_recency = [](const Instantiation& a, const Instantiation& b) {
    return a.recency < b.recency;
  };
  bool viewed = false;
  Instantiation unused;
  EXPECT_FALSE(cs.Take(
      [&](const ConflictSet::View& view) {
        viewed = true;
        EXPECT_EQ(view.size(), members.size());
        EXPECT_EQ(WalkedKeys(view), member_keys);
        EXPECT_EQ(KeysByNth(view), member_keys);
        EXPECT_EQ(view.NthInKeyOrder(view.size()), view.end());
        auto [lo, hi] = std::minmax_element(members.begin(), members.end(),
                                            by_recency);
        EXPECT_EQ(view.Oldest()->first, lo->Key());
        EXPECT_EQ(view.Oldest()->second.recency, lo->recency);
        EXPECT_EQ(view.Newest()->first, hi->Key());
        EXPECT_EQ(view.Newest()->second.recency, hi->recency);
        return view.end();
      },
      &unused));
  EXPECT_EQ(viewed, !members.empty());
}

// A seeded mix of every mutation, with each strategy's Take checked
// against the copying reference and the recency ends and the key-order
// index checked after every operation.
TEST(ConflictSetTest, StrategiesMatchCopyingReference) {
  std::vector<Rule> rules(kRandomRules);
  for (size_t r = 0; r < rules.size(); ++r) {
    rules[r].priority = static_cast<int>(r % 3);  // ties across rules
  }
  for (StrategyKind kind :
       {StrategyKind::kFifo, StrategyKind::kRecency, StrategyKind::kPriority,
        StrategyKind::kRandom}) {
    SCOPED_TRACE(StrategyName(kind));
    constexpr uint64_t kSeed = 7;
    ConflictSet cs;
    ConflictSet::Chooser chooser = MakeStrategy(kind, &rules, kSeed);
    Rng reference_rng(kSeed);
    Rng ops(1234);
    size_t taken = 0, max_size = 0;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t dice = ops.Uniform(100);
      if (dice < 40) {
        cs.Add(RandomInst(&ops));
      } else if (dice < 50) {
        ConflictOpBuffer buf;
        for (int k = 0; k < 6; ++k) {
          if (ops.Chance(0.6)) {
            buf.Add(RandomInst(&ops));
          } else {
            buf.RemoveByKey(RandomKey(cs, &ops));
          }
        }
        cs.ApplyOps(&buf);
      } else if (dice < 58) {
        cs.RemoveByKey(RandomKey(cs, &ops));
      } else if (dice < 63) {
        const int rule = static_cast<int>(ops.Uniform(kRandomRules));
        const uint32_t page = static_cast<uint32_t>(ops.Uniform(12));
        cs.RemoveIf([&](const Instantiation& inst) {
          return inst.rule_index == rule && inst.tuple_ids[0].page_id == page;
        });
      } else if (dice < 99) {
        const std::vector<Instantiation> members = cs.Snapshot();
        const int want = ReferencePick(kind, members, rules, &reference_rng);
        Instantiation got;
        ASSERT_EQ(cs.Take(chooser, &got), want >= 0) << "step " << step;
        if (want >= 0) {
          const Instantiation& expected = members[static_cast<size_t>(want)];
          ASSERT_EQ(got.Key(), expected.Key()) << "step " << step;
          EXPECT_EQ(got.recency, expected.recency);
          EXPECT_EQ(got.rule_name, expected.rule_name);
          EXPECT_EQ(got.tuples, expected.tuples);
          EXPECT_FALSE(cs.Contains(expected.Key()));
          EXPECT_EQ(cs.size(), members.size() - 1);
          ++taken;
        }
      } else {
        cs.Clear();
      }
      max_size = std::max(max_size, cs.size());
      ExpectIndexesInStep(cs);
    }
    EXPECT_GT(taken, 500u);
    EXPECT_GT(max_size, 20u);
  }
}

// Four maintainers Add, RemoveByKey and ApplyOps over disjoint key ranges
// (one rule index each) while two takers drain with the FIFO and random
// choosers, so the recency list and the key-order index the random
// chooser builds are mutated from six threads. Afterwards both must still
// hold exactly the members.
TEST(ConflictSetTest, ConcurrentMaintenanceKeepsRecencyList) {
  constexpr int kMaintainers = 4;
  constexpr int kSteps = 3000;
  const std::vector<Rule> rules(kMaintainers);
  ConflictSet cs;
  // Maintenance steps done so far; the takers stop at three quarters, so
  // the set ends with members in it.
  std::atomic<int> progress{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kMaintainers; ++t) {
    threads.emplace_back([&cs, &progress, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      auto inst = [&] {
        return Make(t, {static_cast<uint32_t>(rng.Uniform(48))});
      };
      for (int step = 0; step < kSteps; ++step) {
        const uint64_t dice = rng.Uniform(10);
        if (dice < 5) {
          cs.Add(inst());
        } else if (dice < 8) {
          cs.RemoveByKey(inst().Key());
        } else {
          ConflictOpBuffer buf;
          for (int k = 0; k < 4; ++k) {
            if (rng.Chance(0.5)) {
              buf.Add(inst());
            } else {
              buf.RemoveByKey(inst().Key());
            }
          }
          cs.ApplyOps(&buf);
        }
        progress.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (StrategyKind kind : {StrategyKind::kFifo, StrategyKind::kRandom}) {
    threads.emplace_back([&cs, &progress, &rules, kind] {
      const ConflictSet::Chooser chooser = MakeStrategy(kind, &rules, 11);
      Instantiation out;
      while (progress.load(std::memory_order_relaxed) <
             kMaintainers * kSteps * 3 / 4) {
        cs.Take(chooser, &out);
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<std::string> member_keys;
  for (const Instantiation& inst : cs.Snapshot()) {
    member_keys.push_back(inst.Key());
  }
  ASSERT_FALSE(member_keys.empty());
  Instantiation out;
  EXPECT_FALSE(cs.Take(
      [&](const ConflictSet::View& view) {
        EXPECT_EQ(view.size(), member_keys.size());
        EXPECT_EQ(WalkedKeys(view), member_keys);
        EXPECT_EQ(KeysByNth(view), member_keys);
        return view.end();
      },
      &out));
  // Draining oldest first walks the recency list from its oldest member
  // to its newest: every member once, in increasing stamp order.
  const ConflictSet::Chooser fifo = MakeStrategy(StrategyKind::kFifo, &rules);
  std::vector<std::string> drained;
  uint64_t last_stamp = 0;
  while (cs.Take(fifo, &out)) {
    EXPECT_GT(out.recency, last_stamp);
    last_stamp = out.recency;
    drained.push_back(out.Key());
  }
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, member_keys);
  EXPECT_TRUE(cs.empty());
}

TEST(ConflictSetTest, NegatedPositionsInKey) {
  Instantiation a = Make(0, {1});
  a.tuple_ids.push_back(Instantiation::kNoTuple);
  a.tuples.push_back(Tuple());
  Instantiation b = Make(0, {1});
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.ToString().find("-"), std::string::npos);
}

}  // namespace
}  // namespace prodb
