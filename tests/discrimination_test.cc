#include "match/discrimination.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "matcher_test_util.h"
#include "rete/network.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

ConstantTest Eq(int attr, Value v) {
  return ConstantTest{attr, CompareOp::kEq, std::move(v)};
}

std::vector<uint32_t> LookupSorted(const DiscriminationIndex& idx,
                                   const Tuple& t) {
  std::vector<uint32_t> out;
  idx.Lookup(t, &out);
  return out;
}

TEST(DiscriminationIndexTest, TierClassification) {
  DiscriminationIndex idx;
  // Entry with an equality test -> eq tier, even when range tests coexist.
  idx.Add(0, {ConstantTest{0, CompareOp::kGt, Value(5)}, Eq(1, Value("a"))});
  // Bounded numeric comparisons -> range tier.
  idx.Add(1, {ConstantTest{0, CompareOp::kGe, Value(10)},
              ConstantTest{0, CompareOp::kLe, Value(20)}});
  // Half-open numeric bound still classifiable (interval to +inf).
  idx.Add(2, {ConstantTest{1, CompareOp::kGt, Value(3.5)}});
  // Only <> tests -> residual.
  idx.Add(3, {ConstantTest{0, CompareOp::kNe, Value(7)}});
  // Range test against a non-numeric constant -> residual.
  idx.Add(4, {ConstantTest{0, CompareOp::kLt, Value("zebra")}});
  // No tests at all -> residual.
  idx.Add(5, {});
  EXPECT_EQ(idx.size(), 6u);
  EXPECT_EQ(idx.eq_entries(), 1u);
  EXPECT_EQ(idx.range_entries(), 2u);
  EXPECT_EQ(idx.residual_entries(), 3u);
}

TEST(DiscriminationIndexTest, EqTierProbesByValue) {
  DiscriminationIndex idx;
  idx.Add(0, {Eq(0, Value(1))});
  idx.Add(1, {Eq(0, Value(2))});
  idx.Add(2, {Eq(1, Value("x"))});
  idx.Seal();
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(1), Value("y")}),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(2), Value("x")}),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(LookupSorted(idx, Tuple{Value(3), Value("z")}).empty());
  // Ints and reals holding the same number share a bucket (Value::Hash
  // and operator== agree on 2 == 2.0).
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(2.0), Value("q")}),
            (std::vector<uint32_t>{1}));
}

TEST(DiscriminationIndexTest, RangeTierStabsIntervals) {
  DiscriminationIndex idx;
  idx.Add(0, {ConstantTest{0, CompareOp::kGe, Value(10)},
              ConstantTest{0, CompareOp::kLe, Value(20)}});
  idx.Add(1, {ConstantTest{0, CompareOp::kGt, Value(15)}});
  idx.Seal();
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(12)}), (std::vector<uint32_t>{0}));
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(18)}),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(LookupSorted(idx, Tuple{Value(25)}), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(LookupSorted(idx, Tuple{Value(5)}).empty());
}

TEST(DiscriminationIndexTest, CrossTypeOrderingNeverMisses) {
  // Value::Compare ranks null < numbers < symbols, so a symbol satisfies
  // `attr > 5` and a null satisfies `attr < 5`. The stab mapping
  // (null -> -inf, symbol -> +inf) must keep such entries as candidates.
  DiscriminationIndex idx;
  idx.Add(0, {ConstantTest{0, CompareOp::kGt, Value(5)}});
  idx.Add(1, {ConstantTest{0, CompareOp::kLt, Value(5)}});
  idx.Seal();
  Tuple symbol{Value("sym")};
  Tuple null_t{Value()};
  ASSERT_TRUE((ConstantTest{0, CompareOp::kGt, Value(5)}.Matches(symbol)));
  ASSERT_TRUE((ConstantTest{0, CompareOp::kLt, Value(5)}.Matches(null_t)));
  EXPECT_EQ(LookupSorted(idx, symbol), (std::vector<uint32_t>{0}));
  EXPECT_EQ(LookupSorted(idx, null_t), (std::vector<uint32_t>{1}));
}

TEST(DiscriminationIndexTest, ShortTuplesSkipOutOfRangeAttrs) {
  DiscriminationIndex idx;
  idx.Add(0, {Eq(3, Value(1))});
  idx.Add(1, {ConstantTest{3, CompareOp::kGe, Value(0)}});
  idx.Seal();
  // Arity-1 tuple: attr 3 does not exist, no candidates, no crash.
  EXPECT_TRUE(LookupSorted(idx, Tuple{Value(1)}).empty());
}

// Property test mirroring token_store_test's indexed-vs-scan cross-check:
// on random entry sets and random (int/real/symbol/null) tuples the
// candidate set must (a) contain every entry whose tests all pass and
// (b) come back sorted and duplicate-free.
TEST(DiscriminationIndexTest, RandomizedSupersetOfBruteForce) {
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    DiscriminationIndex idx;
    std::vector<std::vector<ConstantTest>> entries;
    size_t n = 5 + rng.Uniform(40);
    for (uint32_t id = 0; id < n; ++id) {
      std::vector<ConstantTest> tests;
      size_t m = rng.Uniform(3);  // 0..2 tests
      for (size_t k = 0; k < m; ++k) {
        int attr = static_cast<int>(rng.Uniform(3));
        CompareOp op = static_cast<CompareOp>(rng.Uniform(6));
        Value c = rng.Chance(0.2)
                      ? Value("s" + std::to_string(rng.Uniform(4)))
                      : Value(static_cast<int64_t>(rng.Uniform(16)));
        tests.push_back(ConstantTest{attr, op, std::move(c)});
      }
      idx.Add(id, tests);
      entries.push_back(std::move(tests));
    }
    idx.Seal();

    for (int probe = 0; probe < 60; ++probe) {
      std::vector<Value> vals;
      for (int a = 0; a < 3; ++a) {
        double roll = rng.NextDouble();
        if (roll < 0.1) {
          vals.emplace_back();  // null
        } else if (roll < 0.25) {
          vals.emplace_back("s" + std::to_string(rng.Uniform(4)));
        } else if (roll < 0.4) {
          vals.emplace_back(static_cast<double>(rng.Uniform(16)) + 0.5);
        } else {
          vals.emplace_back(static_cast<int64_t>(rng.Uniform(16)));
        }
      }
      Tuple t(std::move(vals));
      std::vector<uint32_t> cands = LookupSorted(idx, t);
      ASSERT_TRUE(std::is_sorted(cands.begin(), cands.end()));
      ASSERT_EQ(std::adjacent_find(cands.begin(), cands.end()),
                cands.end())
          << "duplicate candidate";
      std::set<uint32_t> cand_set(cands.begin(), cands.end());
      for (uint32_t id = 0; id < entries.size(); ++id) {
        bool passes = true;
        for (const ConstantTest& ct : entries[id]) {
          if (!ct.Matches(t)) {
            passes = false;
            break;
          }
        }
        if (passes) {
          EXPECT_TRUE(cand_set.count(id))
              << "round " << round << ": entry " << id
              << " passes all tests but was not a candidate for "
              << t.ToString();
        }
      }
    }
  }
}

// Matcher-level, through the one dispatch step every architecture
// shares: with discrimination on, conflict sets are identical to the
// linear walk and the dispatch counters show strictly less work.
TEST(DiscriminationIndexTest, MatcherDispatchCountersShrink) {
  // Many rules with distinct constants on the same class => the index
  // should dispatch each delta to a small candidate set.
  std::string program = "(literalize Item kind weight)\n";
  for (int r = 0; r < 32; ++r) {
    program += "(p R" + std::to_string(r) + " (Item ^kind k" +
               std::to_string(r) + " ^weight <w>) --> (remove 1))\n";
  }
  struct Counters {
    uint64_t tests = 0, cands = 0;
    std::multiset<std::string> conflict_set;
  };
  auto run = [&](const std::string& spec, Counters* out) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, spec).ok()) << spec;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      Tuple t{Value("k" + std::to_string(rng.Uniform(32))),
              Value(static_cast<int64_t>(rng.Uniform(10)))};
      ASSERT_TRUE(h.wm->Insert("Item", t).ok());
    }
    out->tests = h.matcher->stats().alpha_tests_evaluated.load();
    out->cands = h.matcher->stats().candidates_visited.load();
    out->conflict_set = CanonicalConflictSet(*h.matcher);
  };
  for (const std::string spec : {"query", "pattern", "rete"}) {
    Counters with, without;
    run(spec, &with);
    run(spec + "-nodisc", &without);
    // Linear walk examines all 32 CEs / alpha nodes per delta and
    // nominates nothing; the index nominates ~1.
    EXPECT_EQ(without.tests, 200u * 32u) << spec;
    EXPECT_EQ(without.cands, 0u) << spec;
    EXPECT_LE(with.tests, 200u * 2u) << spec;
    EXPECT_EQ(with.cands, with.tests) << spec;
    EXPECT_EQ(with.conflict_set, without.conflict_set) << spec;
    EXPECT_EQ(with.conflict_set.size(), 200u) << spec;
  }
}

TEST(DiscriminationIndexTest, ReteAlphaDispatchShrinksWithSharing) {
  // Same alpha structure shared across rules: the index is built over
  // the deduplicated alpha nodes, so sharing composes with dispatch.
  std::string program = "(literalize Item kind weight)\n";
  for (int r = 0; r < 16; ++r) {
    // Two rules per distinct alpha signature.
    for (int dup = 0; dup < 2; ++dup) {
      program += "(p R" + std::to_string(r) + "_" + std::to_string(dup) +
                 " (Item ^kind k" + std::to_string(r) +
                 " ^weight <w>) --> (remove 1))\n";
    }
  }
  auto run = [&](const std::string& spec, uint64_t* tests, size_t* alphas) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, spec).ok());
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
      Tuple t{Value("k" + std::to_string(rng.Uniform(16))),
              Value(static_cast<int64_t>(rng.Uniform(10)))};
      ASSERT_TRUE(h.wm->Insert("Item", t).ok());
    }
    *tests = h.matcher->stats().alpha_tests_evaluated.load();
    *alphas =
        static_cast<ReteNetwork*>(h.matcher.get())->Topology().alpha_nodes;
  };
  uint64_t with, without;
  size_t alphas_shared, alphas_nodisc;
  run("rete", &with, &alphas_shared);
  run("rete-nodisc", &without, &alphas_nodisc);
  EXPECT_EQ(alphas_shared, 16u);  // sharing deduplicates the 32 rules
  // Linear walk: 16 shared alphas tested per delta.
  EXPECT_EQ(without, 100u * 16u);
  // Index: ~1 candidate per delta.
  EXPECT_LE(with, 100u * 2u);
}

}  // namespace
}  // namespace prodb
