#include "rete/token_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace prodb {
namespace {

ReteToken MakeToken(std::vector<std::pair<size_t, int>> filled, size_t n) {
  ReteToken t;
  t.ids.assign(n, ReteToken::kNoTuple);
  t.tuples.assign(n, Tuple());
  for (auto& [pos, v] : filled) {
    t.ids[pos] = TupleId{static_cast<uint32_t>(v), 0};
    t.tuples[pos] = Tuple{Value(v), Value(v * 10)};
  }
  return t;
}

// Both stores must satisfy the same contract.
class TokenStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      catalog_ = std::make_unique<Catalog>();
      std::unique_ptr<RelationTokenStore> rts;
      ASSERT_TRUE(RelationTokenStore::Create(catalog_.get(), "LEFT-test",
                                             {2, 2, 0}, StorageKind::kMemory,
                                             &rts)
                      .ok());
      store_ = std::move(rts);
    } else {
      store_ = std::make_unique<MemoryTokenStore>();
    }
  }
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<TokenStore> store_;
};

TEST_P(TokenStoreTest, AddScanRoundTrip) {
  ReteToken t = MakeToken({{0, 1}, {1, 2}}, 3);
  ASSERT_TRUE(store_->Add(t).ok());
  ASSERT_EQ(store_->size(), 1u);
  size_t seen = 0;
  ASSERT_TRUE(store_->Scan([&](const ReteToken& got) {
                 EXPECT_EQ(got.ids[0], t.ids[0]);
                 EXPECT_EQ(got.ids[1], t.ids[1]);
                 EXPECT_EQ(got.tuples[0], t.tuples[0]);
                 EXPECT_EQ(got.ids[2], ReteToken::kNoTuple);
                 ++seen;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, 1u);
}

TEST_P(TokenStoreTest, RemoveExactMatchesFullCombination) {
  ASSERT_TRUE(store_->Add(MakeToken({{0, 1}, {1, 2}}, 3)).ok());
  ASSERT_TRUE(store_->Add(MakeToken({{0, 1}, {1, 3}}, 3)).ok());
  bool found = false;
  ASSERT_TRUE(
      store_->RemoveExact(MakeToken({{0, 1}, {1, 9}}, 3), &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(
      store_->RemoveExact(MakeToken({{0, 1}, {1, 2}}, 3), &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(store_->size(), 1u);
  // Removing again: gone.
  ASSERT_TRUE(
      store_->RemoveExact(MakeToken({{0, 1}, {1, 2}}, 3), &found).ok());
  EXPECT_FALSE(found);
}

TEST_P(TokenStoreTest, FootprintGrows) {
  size_t before = store_->FootprintBytes();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->Add(MakeToken({{0, i}, {1, i}}, 3)).ok());
  }
  EXPECT_GT(store_->FootprintBytes(), before);
}

INSTANTIATE_TEST_SUITE_P(Backends, TokenStoreTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Relation" : "Memory";
                         });

// --- Keyed stores: ScanMatching vs filtered Scan --------------------------

// Same two-backend parameterization, but the store carries a key schema
// on (pos 0, attr 0) and (pos 1, attr 1).
class KeyedTokenStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  static std::vector<TokenKeyCol> KeyCols() {
    return {TokenKeyCol{0, 0}, TokenKeyCol{1, 1}};
  }

  void SetUp() override {
    if (GetParam()) {
      catalog_ = std::make_unique<Catalog>();
      std::unique_ptr<RelationTokenStore> rts;
      ASSERT_TRUE(RelationTokenStore::Create(catalog_.get(), "LEFT-keyed",
                                             {2, 2, 0}, StorageKind::kMemory,
                                             &rts, KeyCols())
                      .ok());
      store_ = std::move(rts);
    } else {
      store_ = std::make_unique<MemoryTokenStore>(KeyCols());
    }
    ASSERT_TRUE(store_->keyed());
  }

  // The key of a token under KeyCols (both values derivable for tokens
  // built by MakeToken with positions 0 and 1 filled).
  static std::vector<Value> KeyOf(const ReteToken& t) {
    return {t.tuples[0][0], t.tuples[1][1]};
  }

  // Multiset of token identities ScanMatching yields for `key`.
  std::vector<std::string> Probe(const std::vector<Value>& key) {
    std::vector<std::string> out;
    EXPECT_TRUE(store_
                    ->ScanMatching(key,
                                   [&](const ReteToken& t) {
                                     out.push_back(t.Key());
                                     return Status::OK();
                                   })
                    .ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  // Multiset of token identities a full scan + filter yields for `key`.
  std::vector<std::string> Reference(const std::vector<Value>& key) {
    std::vector<std::string> out;
    EXPECT_TRUE(store_
                    ->Scan([&](const ReteToken& t) {
                      if (KeyOf(t) == key) out.push_back(t.Key());
                      return Status::OK();
                    })
                    .ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<TokenStore> store_;
};

TEST_P(KeyedTokenStoreTest, ScanMatchingMatchesFilteredScan) {
  ASSERT_TRUE(store_->Add(MakeToken({{0, 1}, {1, 2}}, 3)).ok());
  ASSERT_TRUE(store_->Add(MakeToken({{0, 1}, {1, 3}}, 3)).ok());
  ASSERT_TRUE(store_->Add(MakeToken({{0, 2}, {1, 2}}, 3)).ok());
  // MakeToken(v) stores Value(v) at attr 0 and Value(10*v) at attr 1.
  std::vector<Value> key{Value(1), Value(20)};
  EXPECT_EQ(Probe(key), Reference(key));
  EXPECT_EQ(Probe(key).size(), 1u);
  // Missing key: empty, and identical to the filtered scan.
  std::vector<Value> miss{Value(7), Value(70)};
  EXPECT_EQ(Probe(miss), Reference(miss));
  EXPECT_TRUE(Probe(miss).empty());
}

TEST_P(KeyedTokenStoreTest, ProbeHonorsCrossTypeNumericEquality) {
  // Int 1 at attr 0, int 20 at attr 1 — probed with reals. The stores
  // must honor EvalCompare(kEq)'s numeric equality (3 == 3.0).
  ASSERT_TRUE(store_->Add(MakeToken({{0, 1}, {1, 2}}, 3)).ok());
  std::vector<Value> key{Value(1.0), Value(20.0)};
  EXPECT_EQ(Probe(key).size(), 1u);
}

TEST_P(KeyedTokenStoreTest, RandomizedChurnCrossCheck) {
  std::mt19937 rng(42);
  // Small value domain so keys collide and removal hits busy buckets.
  std::uniform_int_distribution<int> val(0, 4);
  std::vector<ReteToken> live;
  int next_id = 0;
  for (int step = 0; step < 400; ++step) {
    bool add = live.empty() || rng() % 3 != 0;
    if (add) {
      // Distinct ids, colliding key values: position 0 carries the key
      // value, position 1 a second key dimension.
      ReteToken t;
      t.ids.assign(3, ReteToken::kNoTuple);
      t.tuples.assign(3, Tuple());
      t.ids[0] = TupleId{static_cast<uint32_t>(next_id++), 0};
      t.ids[1] = TupleId{static_cast<uint32_t>(next_id++), 1};
      t.tuples[0] = Tuple{Value(val(rng)), Value(val(rng))};
      t.tuples[1] = Tuple{Value(val(rng)), Value(val(rng))};
      ASSERT_TRUE(store_->Add(t).ok());
      live.push_back(std::move(t));
    } else {
      size_t pick = rng() % live.size();
      bool found = false;
      ASSERT_TRUE(store_->RemoveExact(live[pick], &found).ok());
      EXPECT_TRUE(found);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    ASSERT_EQ(store_->size(), live.size());
    // Cross-check a handful of probe keys against the filtered scan.
    for (int probe = 0; probe < 3; ++probe) {
      std::vector<Value> key{Value(val(rng)), Value(val(rng))};
      EXPECT_EQ(Probe(key), Reference(key)) << "step " << step;
    }
    if (!live.empty()) {
      std::vector<Value> key = KeyOf(live[rng() % live.size()]);
      auto got = Probe(key);
      EXPECT_EQ(got, Reference(key));
      EXPECT_FALSE(got.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, KeyedTokenStoreTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Relation" : "Memory";
                         });

TEST(RelationTokenStoreTest, RelationVisibleInCatalog) {
  Catalog catalog;
  std::unique_ptr<RelationTokenStore> store;
  ASSERT_TRUE(RelationTokenStore::Create(&catalog, "RIGHT-x", {0, 3},
                                         StorageKind::kMemory, &store)
                  .ok());
  Relation* rel = catalog.Get("RIGHT-x");
  ASSERT_NE(rel, nullptr);
  // 2 positions × 2 id columns + 3 value columns for position 1.
  EXPECT_EQ(rel->schema().arity(), 7u);
  EXPECT_EQ(store->relation(), rel);
}

}  // namespace
}  // namespace prodb
