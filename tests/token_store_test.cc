#include "rete/token_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace prodb {
namespace {

using Token = std::vector<TokenSlot>;

TokenSlot Slot(uint32_t id, Tuple t) {
  return TokenSlot{TupleId{id, 0}, std::make_shared<const Tuple>(std::move(t))};
}

// A two-slot token: slot p holds the tuple with id v_p and values
// (v_p, 10*v_p).
Token MakeToken(int v0, int v1) {
  return {Slot(static_cast<uint32_t>(v0), Tuple{Value(v0), Value(v0 * 10)}),
          Slot(static_cast<uint32_t>(v1), Tuple{Value(v1), Value(v1 * 10)})};
}

std::string IdsOf(TokenView t) {
  std::string out;
  for (const TokenSlot& s : t) out += s.id.ToString();
  return out;
}

// Both stores must satisfy the same contract.
class TokenStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      catalog_ = std::make_unique<Catalog>();
      std::unique_ptr<RelationTokenStore> rts;
      ASSERT_TRUE(RelationTokenStore::Create(catalog_.get(), "LEFT-test",
                                             {2, 2}, StorageKind::kMemory,
                                             &rts)
                      .ok());
      store_ = std::move(rts);
    } else {
      store_ = std::make_unique<MemoryTokenStore>(2);
    }
  }
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<TokenStore> store_;
};

TEST_P(TokenStoreTest, AddScanRoundTrip) {
  Token t = MakeToken(1, 2);
  ASSERT_TRUE(store_->Add(t).ok());
  ASSERT_EQ(store_->size(), 1u);
  size_t seen = 0;
  ASSERT_TRUE(store_->Scan([&](TokenView got) {
                 EXPECT_EQ(got.size(), 2u);
                 EXPECT_EQ(got[0].id, t[0].id);
                 EXPECT_EQ(got[1].id, t[1].id);
                 EXPECT_EQ(*got[0].tuple, *t[0].tuple);
                 EXPECT_EQ(*got[1].tuple, *t[1].tuple);
                 ++seen;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, 1u);
}

TEST_P(TokenStoreTest, RemoveExactMatchesFullCombination) {
  ASSERT_TRUE(store_->Add(MakeToken(1, 2)).ok());
  ASSERT_TRUE(store_->Add(MakeToken(1, 3)).ok());
  bool found = false;
  ASSERT_TRUE(store_->RemoveExact(MakeToken(1, 9), &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(store_->RemoveExact(MakeToken(1, 2), &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(store_->size(), 1u);
  // Removing again: gone.
  ASSERT_TRUE(store_->RemoveExact(MakeToken(1, 2), &found).ok());
  EXPECT_FALSE(found);
}

TEST_P(TokenStoreTest, RejectsTokensOfAnotherWidth) {
  Token narrow{Slot(1, Tuple{Value(1), Value(10)})};
  Status st = store_->Add(narrow);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  bool found = true;
  st = store_->RemoveExact(narrow, &found);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(found);
  EXPECT_EQ(store_->size(), 0u);
}

TEST_P(TokenStoreTest, FootprintGrows) {
  std::unordered_set<const Tuple*> counted;
  size_t before = store_->FootprintBytes(&counted);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->Add(MakeToken(i, i + 100)).ok());
  }
  counted.clear();
  EXPECT_GT(store_->FootprintBytes(&counted), before);
}

INSTANTIATE_TEST_SUITE_P(Backends, TokenStoreTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Relation" : "Memory";
                         });

TEST(MemoryTokenStoreTest, SharedPayloadCountsOnce) {
  // Two tokens holding handles to one tuple: its payload counts once,
  // here and in any later store measured with the same `counted` set.
  MemoryTokenStore a(1), b(1);
  TokenSlot shared = Slot(7, Tuple{Value("a long enough symbol value")});
  Token t{shared};
  ASSERT_TRUE(a.Add(t).ok());
  std::unordered_set<const Tuple*> counted;
  const size_t one = a.FootprintBytes(&counted);
  ASSERT_TRUE(b.Add(t).ok());
  const size_t again = b.FootprintBytes(&counted);
  EXPECT_LT(again, one);
  EXPECT_EQ(counted.size(), 1u);
}

// Grows the bucket table through several doublings, drains it in random
// order and refills it, checking after every step that the touched key's
// probe visits that key's tokens in the order a reference model gives
// (Add appends; RemoveExact moves the key's last token into the hole).
// Removing buckets in random order exercises the backward shift of
// probe runs that wrap and that hold buckets from several homes.
TEST(MemoryTokenStoreTest, GrowDrainRefillKeepsBucketOrder) {
  constexpr int kKeys = 5000;
  constexpr int kTokens = 20000;
  // MakeToken(k, n) is the token of key k and serial n: slot 0 holds
  // tuple k, keyed on its first value; slot 1 holds tuple n, so (k, n) is
  // its id combination.
  MemoryTokenStore store(2, {TokenKeyCol{0, 0}});
  // Per key, the serials of its tokens in bucket order.
  std::vector<std::vector<int>> model(kKeys);
  std::vector<std::pair<int, int>> live;  // (key, serial)
  int next_serial = kKeys;
  std::mt19937 rng(2024);

  auto visits = [&](int key) {
    std::vector<int> got;
    EXPECT_TRUE(store
                    .ScanMatching({Value(key)},
                                  [&](TokenView t) {
                                    got.push_back(
                                        static_cast<int>(t[1].id.page_id));
                                    return Status::OK();
                                  })
                    .ok());
    return got;
  };
  auto check_all = [&](const char* phase) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(store.size(), live.size());
    size_t scanned = 0;
    ASSERT_TRUE(store
                    .Scan([&](TokenView) {
                      ++scanned;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(scanned, store.size());
    for (int key = 0; key < kKeys; ++key) {
      ASSERT_EQ(visits(key), model[static_cast<size_t>(key)]) << "key " << key;
    }
  };
  auto add = [&](int step) {
    const int key = static_cast<int>(rng() % kKeys);
    const int serial = next_serial++;
    ASSERT_TRUE(store.Add(MakeToken(key, serial)).ok());
    model[static_cast<size_t>(key)].push_back(serial);
    live.emplace_back(key, serial);
    ASSERT_EQ(visits(key), model[static_cast<size_t>(key)])
        << "add, step " << step;
  };

  for (int step = 0; step < kTokens; ++step) {
    add(step);
    if (step % 1000 == 999) check_all("growing");
  }
  check_all("grown");

  std::shuffle(live.begin(), live.end(), rng);
  for (int step = 0; !live.empty(); ++step) {
    const auto [key, serial] = live.back();
    live.pop_back();
    bool found = false;
    ASSERT_TRUE(store.RemoveExact(MakeToken(key, serial), &found).ok());
    ASSERT_TRUE(found) << "drain, step " << step;
    std::vector<int>& tokens = model[static_cast<size_t>(key)];
    auto at = std::find(tokens.begin(), tokens.end(), serial);
    *at = tokens.back();
    tokens.pop_back();
    ASSERT_EQ(visits(key), tokens) << "drain, step " << step;
    // The same combination again, and one never added, find nothing.
    ASSERT_TRUE(store.RemoveExact(MakeToken(key, serial), &found).ok());
    EXPECT_FALSE(found);
    ASSERT_TRUE(store.RemoveExact(MakeToken(key, next_serial), &found).ok());
    EXPECT_FALSE(found);
    ASSERT_EQ(store.size(), live.size());
    if (step % 1000 == 999) check_all("draining");
  }
  check_all("drained");

  for (int step = 0; step < kTokens; ++step) {
    add(step);
    if (step % 1000 == 999) check_all("refilling");
  }
  check_all("refilled");
}

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
                                             {2, 2}, StorageKind::kMemory,
                                             &rts, KeyCols())
                      .ok());
      store_ = std::move(rts);
    } else {
      store_ = std::make_unique<MemoryTokenStore>(2, KeyCols());
    }
    ASSERT_TRUE(store_->keyed());
  }

  // The key of a token under KeyCols.
  static std::vector<Value> KeyOf(TokenView t) {
    return {(*t[0].tuple)[0], (*t[1].tuple)[1]};
  }

  // Multiset of token identities ScanMatching yields for `key`.
  std::vector<std::string> Probe(const std::vector<Value>& key) {
    std::vector<std::string> out;
    EXPECT_TRUE(store_
                    ->ScanMatching(key,
                                   [&](TokenView t) {
                                     out.push_back(IdsOf(t));
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
                    ->Scan([&](TokenView t) {
                      if (KeyOf(t) == key) out.push_back(IdsOf(t));
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
  ASSERT_TRUE(store_->Add(MakeToken(1, 2)).ok());
  ASSERT_TRUE(store_->Add(MakeToken(1, 3)).ok());
  ASSERT_TRUE(store_->Add(MakeToken(2, 2)).ok());
  // MakeToken(v0, v1) stores Value(v0) at slot 0 attr 0 and Value(10*v1)
  // at slot 1 attr 1.
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
  ASSERT_TRUE(store_->Add(MakeToken(1, 2)).ok());
  std::vector<Value> key{Value(1.0), Value(20.0)};
  EXPECT_EQ(Probe(key).size(), 1u);
}

TEST_P(KeyedTokenStoreTest, RemoveExactSparesSameKeyTokens) {
  // Three tokens with one key but distinct ids share a bucket: removal
  // compares ids, so a same-key token with other ids is never taken.
  Token a{Slot(1, Tuple{Value(5), Value(0)}), Slot(2, Tuple{Value(0), Value(9)})};
  Token b{Slot(3, Tuple{Value(5), Value(0)}), Slot(4, Tuple{Value(0), Value(9)})};
  Token c{Slot(5, Tuple{Value(5), Value(0)}), Slot(6, Tuple{Value(0), Value(9)})};
  ASSERT_TRUE(store_->Add(a).ok());
  ASSERT_TRUE(store_->Add(b).ok());
  ASSERT_TRUE(store_->Add(c).ok());
  const std::vector<Value> key{Value(5), Value(9)};
  ASSERT_EQ(Probe(key).size(), 3u);
  // Same key, ids of none of them: nothing goes.
  Token stranger{Slot(1, Tuple{Value(5), Value(0)}),
                 Slot(4, Tuple{Value(0), Value(9)})};
  bool found = true;
  ASSERT_TRUE(store_->RemoveExact(stranger, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(store_->size(), 3u);
  // Taking the first moves another into its place; both others remain.
  ASSERT_TRUE(store_->RemoveExact(a, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(Probe(key),
            (std::vector<std::string>{IdsOf(b), IdsOf(c)}));
  ASSERT_TRUE(store_->RemoveExact(c, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(Probe(key), (std::vector<std::string>{IdsOf(b)}));
}

TEST_P(KeyedTokenStoreTest, RandomizedChurnCrossCheck) {
  std::mt19937 rng(42);
  // Small value domain so keys collide and removal hits busy buckets.
  std::uniform_int_distribution<int> val(0, 4);
  std::vector<Token> live;
  uint32_t next_id = 0;
  for (int step = 0; step < 400; ++step) {
    bool add = live.empty() || rng() % 3 != 0;
    if (add) {
      // Distinct ids, colliding key values.
      Token t{Slot(next_id++, Tuple{Value(val(rng)), Value(val(rng))}),
              Slot(next_id++, Tuple{Value(val(rng)), Value(val(rng))})};
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
