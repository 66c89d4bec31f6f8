// ChangeSet semantics and the WorkingMemory batch pipeline: delta
// ordering, modify pairing, Inverse round-trips (the §5 deadlock
// compensation primitive), deferred matcher notification, and the one
// writer WorkingMemory and Transaction share.

#include "common/change_set.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "engine/working_memory.h"
#include "txn/transaction.h"

namespace prodb {
namespace {

// Records every delta it is handed, in order, as "+rel:values" /
// "-rel:values" strings, and a copy of each batch; counts the batches.
class RecordingMatcher : public Matcher {
 public:
  RecordingMatcher() : Matcher(nullptr) {}
  Status AddRule(const Rule& rule) override {
    rules_.push_back(rule);
    return Status::OK();
  }
  Status OnBatch(const ChangeSet& batch) override {
    ++stats_.batches;
    for (const Delta& d : batch) {
      events.push_back((d.is_insert() ? "+" : "-") + d.relation + ":" +
                       d.tuple.ToString());
    }
    batches.push_back(batch);
    return Status::OK();
  }
  size_t AuxiliaryFootprintBytes() const override { return 0; }

  std::vector<std::string> events;
  std::vector<ChangeSet> batches;
};

std::multiset<std::string> Fingerprint(Relation* rel) {
  std::multiset<std::string> out;
  EXPECT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                   out.insert(t.ToString());
                   return Status::OK();
                 })
                  .ok());
  return out;
}

class ChangeSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("R", {{"a", ValueType::kInt},
                                                 {"b", ValueType::kInt}}),
                                    &rel_)
                    .ok());
    wm_ = std::make_unique<WorkingMemory>(&catalog_, &matcher_);
  }

  Catalog catalog_;
  Relation* rel_ = nullptr;
  RecordingMatcher matcher_;
  std::unique_ptr<WorkingMemory> wm_;
};

TEST_F(ChangeSetTest, RecordsDeltasInOrder) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(2)});
  cs.AddDelete("R", TupleId{0, 7}, Tuple{Value(3), Value(4)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs[0].is_insert());
  EXPECT_TRUE(cs[1].is_delete());
  EXPECT_EQ(cs[0].id, Delta::kUnassigned);
  EXPECT_EQ(cs.InsertCount(), 1u);
  EXPECT_EQ(cs.DeleteCount(), 1u);
  EXPECT_FALSE(cs[0].is_modify_half());
}

TEST_F(ChangeSetTest, ModifyIsDeleteThenInsertPair) {
  ChangeSet cs;
  size_t ins = cs.AddModify("R", TupleId{0, 3}, Tuple{Value(1), Value(2)},
                            Tuple{Value(1), Value(9)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(ins, 1u);
  // Delete strictly precedes insert — OPS5 modify semantics (§3.1).
  EXPECT_TRUE(cs[0].is_delete());
  EXPECT_TRUE(cs[1].is_insert());
  // The halves are cross-linked as one logical event.
  EXPECT_EQ(cs[0].modify_partner, 1);
  EXPECT_EQ(cs[1].modify_partner, 0);
}

TEST_F(ChangeSetTest, InverseFlipsKindsAndReversesOrder) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(1)}, TupleId{0, 0});
  cs.AddModify("R", TupleId{0, 1}, Tuple{Value(2), Value(2)},
               Tuple{Value(2), Value(3)}, TupleId{0, 2});
  ChangeSet inv = cs.Inverse();
  ASSERT_EQ(inv.size(), 3u);
  // Reversed: [delete new, insert old, delete first-insert].
  EXPECT_TRUE(inv[0].is_delete());
  EXPECT_EQ(inv[0].id, (TupleId{0, 2}));
  EXPECT_TRUE(inv[1].is_insert());
  EXPECT_EQ(inv[1].id, (TupleId{0, 1}));  // re-insert restores the old id
  EXPECT_TRUE(inv[2].is_delete());
  EXPECT_EQ(inv[2].id, (TupleId{0, 0}));
  // Modify pairing survives mirrored.
  EXPECT_EQ(inv[0].modify_partner, 1);
  EXPECT_EQ(inv[1].modify_partner, 0);
  EXPECT_EQ(inv[2].modify_partner, Delta::kNoPartner);
}

TEST_F(ChangeSetTest, ApplyThenInverseRestoresRelations) {
  TupleId keep, doomed;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &keep).ok());
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(2), Value(2)}, &doomed).ok());
  auto before = Fingerprint(rel_);
  size_t events_before = matcher_.events.size();

  wm_->BeginBatch();
  TupleId made;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(3), Value(3)}, &made).ok());
  ASSERT_TRUE(wm_->Delete("R", doomed).ok());
  // The batch records assigned ids and deleted tuples' values.
  const ChangeSet& cs = wm_->pending();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].id, made);
  EXPECT_EQ(cs[1].tuple, (Tuple{Value(2), Value(2)}));
  EXPECT_NE(Fingerprint(rel_), before);

  // Aborting applies the batch's inverse to the relations; the matcher
  // never hears of either.
  ASSERT_TRUE(wm_->AbortBatch().ok());
  EXPECT_FALSE(wm_->in_batch());
  EXPECT_TRUE(wm_->pending().empty());
  EXPECT_EQ(Fingerprint(rel_), before);
  EXPECT_EQ(matcher_.events.size(), events_before);
  // The undone delete restored the tuple under its original id, not a
  // fresh one — references recorded before the round-trip stay valid.
  Tuple back;
  ASSERT_TRUE(rel_->Get(doomed, &back).ok());
  EXPECT_EQ(back, (Tuple{Value(2), Value(2)}));
}

TEST_F(ChangeSetTest, RelationOnlyCompensationLeavesMatcherUntouched) {
  // The concurrent engine's deadlock path: the matcher never saw the
  // transaction's delta, so compensation applies the inverse straight to
  // the relations and the matcher's event log stays empty.
  ChangeSet delta;
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(5), Value(5)}, &id).ok());
  auto before = Fingerprint(rel_);
  size_t events_before = matcher_.events.size();

  // Forward: a make + a remove, relations only (as txn->Insert/Delete do).
  TupleId made;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(6), Value(6)}, &made).ok());
  delta.AddInsert("R", Tuple{Value(6), Value(6)}, made);
  Tuple old;
  ASSERT_TRUE(rel_->Get(id, &old).ok());
  ASSERT_TRUE(rel_->Delete(id).ok());
  delta.AddDelete("R", id, old);

  ChangeSet inv = delta.Inverse();
  for (size_t i = 0; i < inv.size(); ++i) {
    Delta& d = inv[i];
    if (d.is_insert()) {
      ASSERT_TRUE(rel_->Restore(d.id, d.tuple).ok());
    } else {
      ASSERT_TRUE(rel_->Delete(d.id).ok());
    }
  }
  EXPECT_EQ(Fingerprint(rel_), before);
  EXPECT_EQ(matcher_.events.size(), events_before);
  // Identity, not just value, is restored: the deleted tuple is live
  // again under the id the matcher knew it by before the transaction.
  Tuple back;
  EXPECT_TRUE(rel_->Get(id, &back).ok());
}

TEST_F(ChangeSetTest, ModifyWithEqualTupleStillPropagates) {
  // Regression: a modify that rewrites a tuple to its identical value is
  // still a WM event (refraction depends on it) and must reach the
  // matcher as delete-before-insert.
  TupleId id;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(2)}, &id).ok());
  matcher_.events.clear();
  TupleId nid;
  ASSERT_TRUE(wm_->Modify("R", id, Tuple{Value(1), Value(2)}, &nid).ok());
  ASSERT_EQ(matcher_.events.size(), 2u);
  EXPECT_EQ(matcher_.events[0][0], '-');
  EXPECT_EQ(matcher_.events[1][0], '+');
  EXPECT_EQ(matcher_.events[0].substr(1), matcher_.events[1].substr(1));
}

TEST_F(ChangeSetTest, BatchDefersNotificationUntilCommit) {
  uint64_t batches_before = matcher_.stats().batches.load();
  wm_->BeginBatch();
  EXPECT_TRUE(wm_->in_batch());
  TupleId a, b;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &a).ok());
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(2), Value(2)}, &b).ok());
  ASSERT_TRUE(wm_->Delete("R", a).ok());
  // Relations are mutated eagerly; the matcher has heard nothing.
  EXPECT_EQ(rel_->Count(), 1u);
  EXPECT_TRUE(matcher_.events.empty());
  EXPECT_EQ(wm_->pending().size(), 3u);

  ASSERT_TRUE(wm_->CommitBatch().ok());
  EXPECT_FALSE(wm_->in_batch());
  // One batch, all three deltas, original order preserved.
  EXPECT_EQ(matcher_.stats().batches.load(), batches_before + 1);
  ASSERT_EQ(matcher_.events.size(), 3u);
  EXPECT_EQ(matcher_.events[0][0], '+');
  EXPECT_EQ(matcher_.events[1][0], '+');
  EXPECT_EQ(matcher_.events[2][0], '-');
}

TEST_F(ChangeSetTest, BatchedModifyKeepsDeleteBeforeInsert) {
  TupleId id;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &id).ok());
  matcher_.events.clear();
  wm_->BeginBatch();
  TupleId nid;
  ASSERT_TRUE(wm_->Modify("R", id, Tuple{Value(1), Value(9)}, &nid).ok());
  const ChangeSet& pending = wm_->pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_TRUE(pending[0].is_delete());
  EXPECT_TRUE(pending[1].is_insert());
  EXPECT_TRUE(pending[0].is_modify_half());
  ASSERT_TRUE(wm_->CommitBatch().ok());
  ASSERT_EQ(matcher_.events.size(), 2u);
  EXPECT_EQ(matcher_.events[0], "-R:" + Tuple({Value(1), Value(1)}).ToString());
  EXPECT_EQ(matcher_.events[1], "+R:" + Tuple({Value(1), Value(9)}).ToString());
}

TEST_F(ChangeSetTest, ToStringShowsSignsAndModifyMarks) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(1)}, TupleId{0, 0});
  cs.AddModify("R", TupleId{0, 1}, Tuple{Value(2), Value(2)},
               Tuple{Value(2), Value(3)});
  std::string s = cs.ToString();
  EXPECT_NE(s.find("+R"), std::string::npos);
  EXPECT_NE(s.find("-R"), std::string::npos);
}

TEST_F(ChangeSetTest, FailedModifyChangesNothing) {
  TupleId id;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &id).ok());
  matcher_.events.clear();
  // The insert half fails on arity after the delete half landed: the
  // modify puts the old version back under its id and records nothing.
  TupleId nid;
  EXPECT_TRUE(wm_->Modify("R", id, Tuple{Value(1)}, &nid).IsInvalidArgument());
  EXPECT_TRUE(matcher_.events.empty());
  Tuple back;
  ASSERT_TRUE(rel_->Get(id, &back).ok());
  EXPECT_EQ(back, (Tuple{Value(1), Value(1)}));
  EXPECT_EQ(rel_->Count(), 1u);
}

// A batch's deletes keep the bytes they free for its own rollback, as a
// transaction's do. Here a batch shrinks a tuple on a full page: the new
// version lands on that page, taking a slot entry its undo never returns.
// Had it also spent the freed bytes on the entry, the page would lack
// room to restore the old version on some record sizes, and AbortBatch
// would lose the tuple.
TEST(WorkingMemoryPagedTest, AbortBatchRestoresOnAFullPage) {
  for (size_t n = 8; n < 80; ++n) {
    SCOPED_TRACE(n);
    CatalogOptions o;
    o.default_storage = StorageKind::kPaged;
    Catalog catalog(o);
    Relation* rel = nullptr;
    ASSERT_TRUE(catalog
                    .CreateRelation(Schema("R", {{"k", ValueType::kInt},
                                                 {"v", ValueType::kSymbol}}),
                                    &rel)
                    .ok());
    RecordingMatcher matcher;
    WorkingMemory wm(&catalog, &matcher);
    // Fill the first page: stop once a tuple lands on the next.
    const Tuple first{Value(0), Value(std::string(n, 'a'))};
    TupleId first_id, id;
    ASSERT_TRUE(wm.Insert("R", first, &first_id).ok());
    for (int i = 1;; ++i) {
      ASSERT_TRUE(
          wm.Insert("R", Tuple{Value(i), Value(std::string(n, 'a'))}, &id)
              .ok());
      if (id.page_id != first_id.page_id) break;
    }
    wm.BeginBatch();
    TupleId nid;
    ASSERT_TRUE(
        wm.Modify("R", first_id, Tuple{Value(0), Value(std::string(n - 6, 'b'))},
                  &nid)
            .ok());
    Status st = wm.AbortBatch();
    ASSERT_TRUE(st.ok()) << st.ToString();
    Tuple back;
    ASSERT_TRUE(rel->Get(first_id, &back).ok());
    EXPECT_EQ(back, first);
  }
}

// Property: WorkingMemory and Transaction are one writer. A seeded
// sequence of batches of inserts, deletes and modifies is applied to twin
// catalogs, through WorkingMemory batches on one and through
// transactions committed with the matcher as maintenance on the other.
// Every call returns the same status and tuple id on both; both hand
// their matchers the same ChangeSets and end with the same tuples under
// the same ids. Some modifies fail — wrong arity, and a version larger
// than a page (which a paged relation rejects) — and a failed modify
// records nothing and leaves its tuple in place.
class WriterEquivalenceTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  struct Twin {
    explicit Twin(StorageKind kind)
        : catalog([kind] {
            CatalogOptions o;
            o.default_storage = kind;
            o.buffer_pool_frames = 16;
            return o;
          }()),
          tm(&catalog, &locks) {
      EXPECT_TRUE(catalog
                      .CreateRelation(Schema("R", {{"k", ValueType::kInt},
                                                   {"v", ValueType::kSymbol}}),
                                      &rel)
                      .ok());
    }

    // Every field of every delta of every batch the matcher saw.
    std::vector<std::string> Batches() const {
      std::vector<std::string> out;
      for (const ChangeSet& cs : matcher.batches) {
        std::string s;
        for (const Delta& d : cs) {
          s += (d.is_insert() ? "+" : "-") + d.relation + "/" +
               d.id.ToString() + d.tuple.ToString() + "~" +
               std::to_string(d.modify_partner) + " ";
        }
        out.push_back(s);
      }
      return out;
    }

    std::map<TupleId, Tuple> Contents() const {
      std::map<TupleId, Tuple> out;
      EXPECT_TRUE(rel->Scan([&](TupleId id, const Tuple& t) {
                       out.emplace(id, t);
                       return Status::OK();
                     })
                      .ok());
      return out;
    }

    Catalog catalog;
    Relation* rel = nullptr;
    RecordingMatcher matcher;
    LockManager locks;
    TxnManager tm;
  };
};

TEST_P(WriterEquivalenceTest, WorkingMemoryAndTransactionWriteAlike) {
  Twin by_wm(GetParam()), by_txn(GetParam());
  WorkingMemory wm(&by_wm.catalog, &by_wm.matcher);
  Rng rng(21);
  std::vector<TupleId> live;
  size_t failed_modifies = 0;
  for (int batch = 0; batch < 150; ++batch) {
    wm.BeginBatch();
    auto txn = by_txn.tm.Begin();
    const size_t ops = 1 + rng.Uniform(6);
    for (size_t n = 0; n < ops; ++n) {
      const int64_t k = static_cast<int64_t>(rng.Uniform(1000));
      const Tuple t{Value(k), Value(std::string(rng.Uniform(120), 'v'))};
      const uint64_t pick = rng.Uniform(100);
      TupleId a, b;
      if (pick < 45 || live.empty()) {
        ASSERT_TRUE(wm.Insert("R", t, &a).ok());
        ASSERT_TRUE(txn->Insert("R", t, &b).ok());
        ASSERT_EQ(a, b) << "batch " << batch;
        live.push_back(a);
        continue;
      }
      const size_t at = rng.Uniform(live.size());
      if (pick < 65) {
        ASSERT_TRUE(wm.Delete("R", live[at]).ok());
        ASSERT_TRUE(txn->Delete("R", live[at]).ok());
        live.erase(live.begin() + static_cast<ptrdiff_t>(at));
        continue;
      }
      Tuple next = t;
      if (pick < 72) next = Tuple{Value(k)};  // wrong arity
      if (pick >= 93) next = Tuple{Value(k), Value(std::string(5000, 'x'))};
      const size_t wm_before = wm.pending().size();
      const size_t txn_before = txn->changes().size();
      Status sa = wm.Modify("R", live[at], next, &a);
      Status sb = txn->Modify("R", live[at], next, &b);
      ASSERT_EQ(sa.ToString(), sb.ToString());
      if (!sa.ok()) {
        ++failed_modifies;
        EXPECT_EQ(wm.pending().size(), wm_before);
        EXPECT_EQ(txn->changes().size(), txn_before);
        Tuple still;
        EXPECT_TRUE(by_wm.rel->Get(live[at], &still).ok());
        EXPECT_TRUE(by_txn.rel->Get(live[at], &still).ok());
        continue;
      }
      ASSERT_EQ(a, b) << "batch " << batch;
      live[at] = a;
    }
    ASSERT_TRUE(wm.CommitBatch().ok());
    ASSERT_TRUE(by_txn.tm
                    .Commit(txn.get(),
                            [&](const ChangeSet& cs) {
                              return by_txn.matcher.OnBatch(cs);
                            })
                    .ok());
  }
  EXPECT_GT(failed_modifies, 0u);
  EXPECT_EQ(by_wm.Batches(), by_txn.Batches());
  EXPECT_EQ(by_wm.Contents(), by_txn.Contents());
  EXPECT_EQ(by_txn.locks.LockedResourceCount(), 0u);
}

// A modify spelled Delete then Insert places exactly like Modify: on twin
// catalogs, transactions that spell every modify one way and the other
// give each new version the same id, through commits and aborts.
// perfbench replays a modify in the second spelling and checks the replay
// against the live run on this.
TEST_P(WriterEquivalenceTest, DeleteThenInsertPlacesLikeModify) {
  Twin by_modify(GetParam()), by_pair(GetParam());
  Rng rng(34);
  std::vector<TupleId> live;
  auto a = by_modify.tm.Begin();
  auto b = by_pair.tm.Begin();
  for (int64_t k = 0; k < 200; ++k) {
    const Tuple t{Value(k), Value(std::string(rng.Uniform(120), 'v'))};
    TupleId x, y;
    ASSERT_TRUE(a->Insert("R", t, &x).ok());
    ASSERT_TRUE(b->Insert("R", t, &y).ok());
    ASSERT_EQ(x, y);
    live.push_back(x);
  }
  ASSERT_TRUE(by_modify.tm.Commit(a.get()).ok());
  ASSERT_TRUE(by_pair.tm.Commit(b.get()).ok());
  for (int64_t round = 0; round < 100; ++round) {
    a = by_modify.tm.Begin();
    b = by_pair.tm.Begin();
    std::vector<TupleId> staged = live;
    const size_t ops = 1 + rng.Uniform(6);
    for (size_t n = 0; n < ops; ++n) {
      const size_t at = rng.Uniform(staged.size());
      const Tuple next{Value(round), Value(std::string(rng.Uniform(120), 'm'))};
      TupleId x, y;
      ASSERT_TRUE(a->Modify("R", staged[at], next, &x).ok());
      ASSERT_TRUE(b->Delete("R", staged[at]).ok());
      ASSERT_TRUE(b->Insert("R", next, &y).ok());
      ASSERT_EQ(x, y) << "round " << round;
      staged[at] = x;
    }
    if (rng.Chance(0.3)) {
      ASSERT_TRUE(by_modify.tm.Abort(a.get()).ok());
      ASSERT_TRUE(by_pair.tm.Abort(b.get()).ok());
    } else {
      ASSERT_TRUE(by_modify.tm.Commit(a.get()).ok());
      ASSERT_TRUE(by_pair.tm.Commit(b.get()).ok());
      live = staged;
    }
  }
  EXPECT_EQ(by_modify.Contents(), by_pair.Contents());
}

INSTANTIATE_TEST_SUITE_P(Storage, WriterEquivalenceTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kPaged),
                         [](const auto& info) {
                           return info.param == StorageKind::kMemory
                                      ? std::string("Memory")
                                      : std::string("Paged");
                         });

// Each paged relation's heap keeps the writer's latest delete in it: a
// transaction that deletes in A, then in B, then inserts into A puts the
// new tuple on the page of its delete in A — where a twin that never
// touches B puts it — and not on A's tail page.
TEST(WriterPlacementTest, InsertGoesToTheLatestDeletePageOfItsRelation) {
  struct Twin {
    Twin()
        : catalog([] {
            CatalogOptions o;
            o.default_storage = StorageKind::kPaged;
            o.buffer_pool_frames = 16;
            return o;
          }()),
          tm(&catalog, &locks) {}
    Catalog catalog;
    LockManager locks;
    TxnManager tm;
  };
  Twin via_b, a_only;
  std::vector<TupleId> in_a, in_b;
  for (Twin* twin : {&via_b, &a_only}) {
    Relation* rel = nullptr;
    for (const char* name : {"A", "B"}) {
      ASSERT_TRUE(twin->catalog
                      .CreateRelation(Schema(name, {{"k", ValueType::kInt},
                                                    {"v", ValueType::kSymbol}}),
                                      &rel)
                      .ok());
    }
    in_a.clear();
    in_b.clear();
    auto load = twin->tm.Begin();
    for (int64_t k = 0; k < 120; ++k) {
      TupleId id;
      ASSERT_TRUE(
          load->Insert("A", Tuple{Value(k), Value(std::string(100, 'a'))}, &id)
              .ok());
      in_a.push_back(id);
    }
    for (int64_t k = 0; k < 4; ++k) {
      TupleId id;
      ASSERT_TRUE(
          load->Insert("B", Tuple{Value(k), Value(std::string(100, 'b'))}, &id)
              .ok());
      in_b.push_back(id);
    }
    ASSERT_TRUE(twin->tm.Commit(load.get()).ok());
  }
  ASSERT_NE(in_a.front().page_id, in_a.back().page_id);  // A has a tail

  const Tuple next{Value(int64_t{-1}), Value(std::string(100, 'n'))};
  TupleId x, y;
  auto t1 = via_b.tm.Begin();
  ASSERT_TRUE(t1->Delete("A", in_a.front()).ok());
  ASSERT_TRUE(t1->Delete("B", in_b.front()).ok());
  ASSERT_TRUE(t1->Insert("A", next, &x).ok());
  auto t2 = a_only.tm.Begin();
  ASSERT_TRUE(t2->Delete("A", in_a.front()).ok());
  ASSERT_TRUE(t2->Insert("A", next, &y).ok());
  EXPECT_EQ(x.page_id, in_a.front().page_id);
  EXPECT_EQ(x, y);
  ASSERT_TRUE(via_b.tm.Commit(t1.get()).ok());
  ASSERT_TRUE(a_only.tm.Commit(t2.get()).ok());
}

}  // namespace
}  // namespace prodb
