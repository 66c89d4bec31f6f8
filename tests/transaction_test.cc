#include "txn/transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace prodb {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("T", {{"k", ValueType::kInt},
                                                 {"v", ValueType::kSymbol}}),
                                    &rel_)
                    .ok());
    txn_manager_ = std::make_unique<TxnManager>(&catalog_, &locks_);
  }
  Catalog catalog_;
  LockManager locks_;
  Relation* rel_ = nullptr;
  std::unique_ptr<TxnManager> txn_manager_;
};

TEST_F(TransactionTest, CommitKeepsChangesAndReleasesLocks) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &id).ok());
  EXPECT_TRUE(locks_.Holds(txn->id(), ResourceId::Tup("T", id), LockMode::kX));
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(rel_->Count(), 1u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, AbortUndoesInsert) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &id).ok());
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_EQ(rel_->Count(), 0u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, AbortRestoresDelete) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(7), Value("keep")}, &id).ok());
  auto txn = txn_manager_->Begin();
  ASSERT_TRUE(txn->Delete("T", id).ok());
  EXPECT_EQ(rel_->Count(), 0u);
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(rel_->Count(), 1u);
  bool found = false;
  ASSERT_TRUE(rel_->Scan([&](TupleId, const Tuple& t) {
                 found = t == Tuple{Value(7), Value("keep")};
                 return Status::OK();
               }).ok());
  EXPECT_TRUE(found);
  // Compensation keeps the tuple's identity, not just its value: matcher
  // state recorded before the transaction still references this id.
  Tuple back;
  Status got = rel_->Get(id, &back);
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(back, (Tuple{Value(7), Value("keep")}));
}

TEST_F(TransactionTest, AbortAfterFailedUpdateInsertRestoresOriginal) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(7), Value("keep")}, &id).ok());
  auto txn = txn_manager_->Begin();
  TupleId nid;
  // The delete half lands; the insert half fails on arity. The modify
  // puts the old version back itself and records nothing, and abort must
  // leave it in place.
  EXPECT_TRUE(txn->Modify("T", id, Tuple{Value(8)}, &nid).IsInvalidArgument());
  EXPECT_TRUE(txn->changes().empty());
  EXPECT_EQ(rel_->Count(), 1u);
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(rel_->Count(), 1u);
  Tuple back;
  Status got = rel_->Get(id, &back);
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(back, (Tuple{Value(7), Value("keep")}));
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, UpdateIsDeleteTheInsert) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(1), Value("old")}, &id).ok());
  auto txn = txn_manager_->Begin();
  TupleId nid;
  ASSERT_TRUE(txn->Modify("T", id, Tuple{Value(1), Value("new")}, &nid).ok());
  const ChangeSet& changes = txn->changes();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0].is_delete());
  EXPECT_TRUE(changes[0].is_modify_half());
  EXPECT_EQ(changes[0].id, id);
  EXPECT_EQ(changes[0].tuple, (Tuple{Value(1), Value("old")}));
  EXPECT_TRUE(changes[1].is_insert());
  EXPECT_TRUE(changes[1].is_modify_half());
  EXPECT_EQ(changes[1].id, nid);
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
  Tuple out;
  ASSERT_TRUE(rel_->Get(nid, &out).ok());
  EXPECT_EQ(out[1], Value("new"));
}

TEST_F(TransactionTest, ReadLocksBlockWriters) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(1), Value("x")}, &id).ok());
  auto reader = txn_manager_->Begin();
  Tuple out;
  ASSERT_TRUE(reader->Read("T", id, &out).ok());
  // A writer in another "thread" (simulated inline) cannot take X now.
  EXPECT_TRUE(locks_.Holds(reader->id(), ResourceId::Tup("T", id),
                           LockMode::kS));
  ASSERT_TRUE(txn_manager_->Commit(reader.get()).ok());
}

TEST_F(TransactionTest, RollbackOrderIsReversed) {
  auto txn = txn_manager_->Begin();
  TupleId a, b;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &a).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &b).ok());
  ASSERT_TRUE(txn->Delete("T", a).ok());
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(rel_->Count(), 0u);
}

TEST_F(TransactionTest, RollbackContinuesPastFailedUndo) {
  auto txn = txn_manager_->Begin();
  TupleId t1, t2;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &t1).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &t2).ok());
  // Sabotage the later change so its undo (a Delete) fails: rollback
  // walks in reverse, hits the failure first, and must still undo t1
  // instead of bailing out mid-loop with WM half-rolled-back.
  ASSERT_TRUE(rel_->Delete(t2).ok());
  Status st = txn_manager_->Abort(txn.get());
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(txn->changes().empty());
  EXPECT_EQ(rel_->Count(), 0u);  // t1's undo still ran
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, RollbackReportsMultipleFailedUndos) {
  auto txn = txn_manager_->Begin();
  TupleId t1, t2;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &t1).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &t2).ok());
  ASSERT_TRUE(rel_->Delete(t1).ok());
  ASSERT_TRUE(rel_->Delete(t2).ok());
  Status st = txn->Rollback();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("2 of 2"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

// The bytes a live transaction's delete frees stay its own until it
// ends. Here they would hold another transaction's row exactly; if that
// insert took them, the abort that restores the deleted row under its
// id would find the page full.
TEST(TransactionSpaceTest, AbortFindsRoomAfterAnotherTransactionInserts) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(
      catalog.CreateRelation(Schema("S", {{"v", ValueType::kSymbol}}), &rel)
          .ok());
  // 160 rows of a 38-byte symbol (47-byte records) fill two pages
  // exactly, 80 per page.
  const Tuple row{Value(std::string(38, 's'))};
  std::vector<TupleId> ids;
  for (int i = 0; i < 160; ++i) {
    TupleId id;
    ASSERT_TRUE(rel->Insert(row, &id).ok());
    ids.push_back(id);
  }
  ASSERT_EQ(rel->FootprintBytes(), 2 * kPageSize);

  LockManager locks;
  TxnManager tm(&catalog, &locks);
  auto t1 = tm.Begin();
  ASSERT_TRUE(t1->Delete("S", ids[0]).ok());
  // A 34-byte symbol plus its slot needs exactly the 47 freed bytes.
  auto t2 = tm.Begin();
  TupleId taken;
  ASSERT_TRUE(
      t2->Insert("S", Tuple{Value(std::string(34, 't'))}, &taken).ok());
  EXPECT_NE(taken.page_id, ids[0].page_id);

  Status st = tm.Abort(t1.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  Tuple back;
  ASSERT_TRUE(rel->Get(ids[0], &back).ok());
  EXPECT_EQ(back, row);
  ASSERT_TRUE(tm.Commit(t2.get()).ok());
  EXPECT_EQ(rel->Count(), 161u);
  EXPECT_EQ(locks.LockedResourceCount(), 0u);
}

// A transactional delete of a paged tuple fetches its page once: the heap
// hands back the tuple it removes, decoded from the page the delete holds,
// and the relation's index maintenance and the transaction's ∆ both use
// it. The ∆ still records the deleted value, and the index forgets it.
TEST(TransactionSpaceTest, PagedDeleteFetchesItsPageOnce) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog
                  .CreateRelation(Schema("S", {{"k", ValueType::kInt},
                                               {"v", ValueType::kSymbol}}),
                                  &rel)
                  .ok());
  ASSERT_TRUE(rel->CreateHashIndex(0).ok());
  const Tuple row{Value(7), Value("gone")};
  TupleId id;
  ASSERT_TRUE(rel->Insert(row, &id).ok());

  LockManager locks;
  TxnManager tm(&catalog, &locks);
  auto txn = tm.Begin();
  const BufferPoolStats before = catalog.buffer_pool()->stats();
  ASSERT_TRUE(txn->Delete("S", id).ok());
  const BufferPoolStats& after = catalog.buffer_pool()->stats();
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses, 1u);
  ASSERT_EQ(txn->changes().size(), 1u);
  EXPECT_EQ(txn->changes()[0].tuple, row);
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  EXPECT_EQ(rel->Count(), 0u);
  std::vector<std::pair<TupleId, Tuple>> hits;
  Selection sel;
  sel.tests.push_back(ConstantTest{0, CompareOp::kEq, Value(7)});
  ASSERT_TRUE(rel->Select(sel, &hits).ok());
  EXPECT_TRUE(hits.empty());
}

// A same-size modify on a page whose only reclaimable bytes are its own
// delete's writes the new version into them: same page, the next slot,
// no compaction. Aborting it brings the old version back under its id,
// into the bytes undoing the insert freed: still no compaction.
TEST(TransactionSpaceTest, SameSizeModifyStaysInItsOwnHole) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(
      catalog.CreateRelation(Schema("S", {{"v", ValueType::kSymbol}}), &rel)
          .ok());
  // 79 records of 47 bytes and one of 43 leave 4 contiguous bytes on the
  // page: room for one more slot entry and nothing else.
  std::vector<TupleId> ids;
  for (int i = 0; i < 80; ++i) {
    TupleId id;
    ASSERT_TRUE(
        rel->Insert(Tuple{Value(std::string(i == 79 ? 34 : 38, 's'))}, &id)
            .ok());
    ids.push_back(id);
  }
  ASSERT_EQ(rel->FootprintBytes(), kPageSize);
  const uint64_t compactions = rel->compaction_count();

  LockManager locks;
  TxnManager tm(&catalog, &locks);
  const Tuple next{Value(std::string(38, 'n'))};
  auto txn = tm.Begin();
  TupleId moved;
  ASSERT_TRUE(txn->Modify("S", ids[5], next, &moved).ok());
  EXPECT_EQ(moved.page_id, ids[5].page_id);
  EXPECT_EQ(moved.slot_id, 80u);
  EXPECT_EQ(rel->compaction_count(), compactions);
  Tuple got;
  ASSERT_TRUE(rel->Get(moved, &got).ok());
  EXPECT_EQ(got, next);

  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  EXPECT_EQ(rel->compaction_count(), compactions);
  EXPECT_TRUE(rel->Get(moved, &got).IsNotFound());
  ASSERT_TRUE(rel->Get(ids[5], &got).ok());
  EXPECT_EQ(got, (Tuple{Value(std::string(38, 's'))}));
  EXPECT_EQ(rel->Count(), 80u);
  EXPECT_EQ(locks.LockedResourceCount(), 0u);
}

// Sessions write one paged relation at once: each thread modifies its own
// rows (so no lock waits) in transactions that commit or abort at random,
// with record sizes that shift which pages have room. Every abort must
// find room for its restores while the other threads' inserts compete
// for the same pages, and each row ends as its last committed version.
TEST(TransactionSpaceTest, ConcurrentWritersAlwaysFindUndoRoom) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 16;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog
                  .CreateRelation(Schema("S", {{"k", ValueType::kInt},
                                               {"v", ValueType::kSymbol}}),
                                  &rel)
                  .ok());
  LockManager locks;
  TxnManager tm(&catalog, &locks);
  constexpr int kThreads = 4;
  constexpr int kRows = 40;
  struct Row {
    TupleId id;
    Tuple tuple;
  };
  std::vector<std::vector<Row>> rows(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRows; ++i) {
      Tuple tuple{Value(int64_t{t * 1000 + i}), Value(std::string(20, 'a'))};
      TupleId id;
      ASSERT_TRUE(rel->Insert(tuple, &id).ok());
      rows[static_cast<size_t>(t)].push_back({id, tuple});
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<Row>& mine = rows[static_cast<size_t>(t)];
      for (int n = 0; n < 150; ++n) {
        auto txn = tm.Begin();
        std::vector<Row> staged = mine;
        for (int m = 0; m < 4; ++m) {
          Row& row = staged[rng.Uniform(staged.size())];
          Tuple next{row.tuple[0], Value(std::string(rng.Uniform(60), 'b'))};
          if (!txn->Modify("S", row.id, next, &row.id).ok()) ++failures;
          row.tuple = next;
        }
        if (rng.Chance(0.4)) {
          if (!tm.Abort(txn.get()).ok()) ++failures;
        } else if (tm.Commit(txn.get()).ok()) {
          mine = std::move(staged);
        } else {
          ++failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rel->Count(), static_cast<size_t>(kThreads * kRows));
  for (const std::vector<Row>& mine : rows) {
    for (const Row& row : mine) {
      Tuple got;
      ASSERT_TRUE(rel->Get(row.id, &got).ok()) << row.id.ToString();
      EXPECT_EQ(got, row.tuple);
    }
  }
  EXPECT_EQ(locks.LockedResourceCount(), 0u);
}

// The transaction answers a relation request its held mode covers, and
// otherwise asks the manager, which upgrades in place to the join of the
// two modes; the transaction then holds that join too.
TEST_F(TransactionTest, RelationModesJoinLikeTheManager) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(1), Value("x")}, &id).ok());
  const ResourceId rel = ResourceId::Rel("T");

  auto reader = txn_manager_->Begin();
  ASSERT_TRUE(reader->ReadLockRelation("T").ok());
  ASSERT_TRUE(reader->WriteIntent("T").ok());  // S then IX: X
  EXPECT_TRUE(locks_.Holds(reader->id(), rel, LockMode::kX));
  TupleId made;
  ASSERT_TRUE(reader->Insert("T", Tuple{Value(2), Value("y")}, &made).ok());
  EXPECT_TRUE(locks_.Holds(reader->id(), rel, LockMode::kX));
  ASSERT_TRUE(txn_manager_->Commit(reader.get()).ok());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);

  auto writer = txn_manager_->Begin();
  ASSERT_TRUE(writer->ReadLock("T", id).ok());  // IS
  EXPECT_TRUE(locks_.Holds(writer->id(), rel, LockMode::kIS));
  EXPECT_FALSE(locks_.Holds(writer->id(), rel, LockMode::kIX));
  ASSERT_TRUE(writer->Delete("T", id).ok());  // IS then IX: IX
  EXPECT_TRUE(locks_.Holds(writer->id(), rel, LockMode::kIX));
  EXPECT_FALSE(locks_.Holds(writer->id(), rel, LockMode::kS));
  EXPECT_TRUE(locks_.Holds(writer->id(), ResourceId::Tup("T", id),
                           LockMode::kX));
  ASSERT_TRUE(txn_manager_->Commit(writer.get()).ok());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

// Tells when its transaction's request starts to wait.
class FlagWaiter : public TxnWaiter {
 public:
  void Waiting() override { waiting.store(true); }
  void Resumed() override {}
  std::atomic<bool> waiting{false};
};

// Two readers of a relation both upgrade it to write: the second
// upgrade closes the cycle and loses, keeping its S in the manager and
// in the transaction, so asking again reaches the manager again.
TEST_F(TransactionTest, UpgradeThatLosesADeadlockKeepsTheOldMode) {
  const ResourceId rel = ResourceId::Rel("T");
  FlagWaiter heard;
  auto first = txn_manager_->Begin(&heard);
  auto second = txn_manager_->Begin();
  ASSERT_TRUE(first->ReadLockRelation("T").ok());
  ASSERT_TRUE(second->ReadLockRelation("T").ok());
  std::thread upgrade([&] { EXPECT_TRUE(first->WriteIntent("T").ok()); });
  while (!heard.waiting.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(second->WriteIntent("T").IsDeadlock());
  EXPECT_TRUE(locks_.Holds(second->id(), rel, LockMode::kS));
  EXPECT_FALSE(locks_.Holds(second->id(), rel, LockMode::kX));
  EXPECT_TRUE(second->WriteIntent("T").IsDeadlock());
  TupleId id;
  EXPECT_TRUE(
      second->Insert("T", Tuple{Value(1), Value("a")}, &id).IsDeadlock());
  EXPECT_EQ(rel_->Count(), 0u);
  ASSERT_TRUE(txn_manager_->Abort(second.get()).ok());
  upgrade.join();
  EXPECT_TRUE(locks_.Holds(first->id(), rel, LockMode::kX));
  ASSERT_TRUE(txn_manager_->Commit(first.get()).ok());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, MissingRelationErrors) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  EXPECT_TRUE(txn->Insert("Ghost", Tuple{Value(1)}, &id).IsNotFound());
  EXPECT_TRUE(txn->Delete("Ghost", TupleId{0, 0}).IsNotFound());
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace prodb
