// Fault-injection sweep over the paged storage / transaction stack.
//
// The paper's premise is that a DBMS-resident working memory inherits the
// DBMS's reliability guarantees (§1, §3.2) — which is only true if the
// storage and transaction layers tolerate I/O failures instead of losing
// state on them. The sweep runs one canonical paged production-system
// workload (paged WM relations, paged Rete token memories, an engine run,
// a transaction that aborts) once per injectable I/O index, and after
// every injected fault asserts the invariants the error paths used to
// violate: no crash (every failure is a clean Status), buffer-pool frame
// accounting balances (no leaked or orphaned frames), dirty pages are
// never silently dropped, and aborts release their locks even when undo
// steps fail.

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>

#include "common/rng.h"
#include "engine/sequential_engine.h"
#include "rete/network.h"
#include "storage/fault_disk.h"
#include "txn/transaction.h"
#include "workload/generator.h"

namespace prodb {
namespace {

WorkloadSpec SweepSpec() {
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 3;
  spec.num_rules = 6;
  spec.ces_per_rule = 2;
  spec.domain = 4;
  spec.consuming_actions = true;
  spec.seed = 7;
  return spec;
}

// Runs the canonical workload against `catalog` (already configured for
// paged storage over a fault-injecting disk). Every failure is collected
// as a Status — the run must never crash — and the first one is
// returned. The transaction stage always runs so abort/rollback paths
// are exercised even when an earlier stage failed under a sticky fault.
Status RunCanonicalWorkload(Catalog* catalog, LockManager* locks) {
  Status first_error;
  auto note = [&](const Status& st) {
    if (first_error.ok() && !st.ok()) first_error = st;
    return st.ok();
  };

  WorkloadGenerator gen(SweepSpec());
  bool classes_ok = note(gen.CreateClasses(catalog, StorageKind::kPaged));
  Relation* txn_rel = nullptr;
  note(catalog->CreateRelation(Schema("TxnT", {{"k", ValueType::kInt},
                                               {"s", ValueType::kSymbol}}),
                               StorageKind::kPaged, &txn_rel));

  ReteNetwork matcher(catalog, MatcherSpec{.kind = MatcherKind::kReteDbms},
                      StorageKind::kPaged);
  if (classes_ok) {
    bool rules_ok = true;
    for (const Rule& r : gen.GenerateRules()) {
      if (!note(matcher.AddRule(r))) {
        rules_ok = false;
        break;
      }
    }
    if (rules_ok) {
      SequentialEngineOptions eopts;
      eopts.max_firings = 32;
      SequentialEngine engine(catalog, &matcher, eopts);
      Rng rng(13);
      // Padded tuples (a trailing wide symbol would change the schema, so
      // pad by volume instead: extra copies) force real paging traffic —
      // the point of the sweep is the I/O error surface, so there must be
      // I/O. Deletes mixed in exercise the tombstone/delete paths too.
      std::vector<std::pair<std::string, TupleId>> live;
      for (int i = 0; i < 60; ++i) {
        if (i % 5 == 4 && !live.empty()) {
          size_t pick = rng.Uniform(live.size());
          Status del = engine.working_memory().Delete(live[pick].first,
                                                      live[pick].second);
          live.erase(live.begin() + static_cast<long>(pick));
          if (!note(del)) break;
          continue;
        }
        std::string cls =
            gen.ClassName(rng.Uniform(SweepSpec().num_classes));
        TupleId id;
        if (!note(engine.Insert(cls, gen.RandomTuple(&rng), &id))) break;
        live.emplace_back(cls, id);
      }
      EngineRunResult result;
      note(engine.Run(&result));
    }
  }

  // Transactions with aborts: mutations under 2PL, then rollback. Abort
  // must release every lock even when undo steps hit injected faults.
  if (txn_rel != nullptr) {
    TxnManager tm(catalog, locks);
    auto txn = tm.Begin();
    TupleId id;
    Status st = txn->Insert("TxnT", Tuple{Value(1), Value("a")}, &id);
    note(st);
    if (st.ok()) note(txn->Delete("TxnT", id));
    note(txn->Insert("TxnT", Tuple{Value(2), Value("b")}, &id));
    note(tm.Abort(txn.get()));
  }
  return first_error;
}

// One sweep iteration: arm a fault at I/O index `index`, run the
// workload, and check the post-fault invariants.
void RunSweepCase(int64_t index, bool sticky) {
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  if (index >= 0) fault.FailAtOp(static_cast<uint64_t>(index), sticky);

  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 6;  // tiny: guarantee eviction traffic
  copts.disk = &fault;
  Catalog catalog(copts);
  LockManager locks;

  Status st = RunCanonicalWorkload(&catalog, &locks);
  if (index < 0) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  // No locks leak, even when rollback could not undo everything.
  EXPECT_EQ(locks.LockedResourceCount(), 0u);

  // Frame accounting balances: free + lru + pinned == capacity, and the
  // page-table / LRU bookkeeping agree (no leaked victim frames, no
  // orphaned dirty frames).
  BufferPool* pool = catalog.buffer_pool();
  Status acct = pool->VerifyFrameAccounting();
  EXPECT_TRUE(acct.ok()) << acct.ToString();

  // Dirty data survived the fault: once the device recovers, everything
  // flushes, and no frame claims to be clean while diverging from disk.
  fault.Disarm();
  Status flush = pool->FlushAll();
  EXPECT_TRUE(flush.ok()) << flush.ToString();
  Status clean = pool->VerifyCleanFramesMatchDisk();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

// Fault-free baseline: the workload itself must be clean, and its I/O
// trace defines the sweep's index space.
uint64_t CountWorkloadOps() {
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 6;
  copts.disk = &fault;
  Catalog catalog(copts);
  LockManager locks;
  Status st = RunCanonicalWorkload(&catalog, &locks);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::cout << "[ sweep    ] " << fault.total_ops()
            << " injectable I/O indexes (" << fault.ops(DiskOpKind::kRead)
            << " reads, " << fault.ops(DiskOpKind::kWrite) << " writes, "
            << fault.ops(DiskOpKind::kAllocate) << " allocates)\n";
  return fault.total_ops();
}

TEST(FaultSweepTest, BaselineWorkloadIsClean) { RunSweepCase(-1, false); }

TEST(FaultSweepTest, OneShotFaultAtEveryIoIndex) {
  uint64_t total = CountWorkloadOps();
  ASSERT_GT(total, 0u);
  for (uint64_t i = 0; i < total; ++i) {
    SCOPED_TRACE("one-shot fault at I/O index " + std::to_string(i));
    RunSweepCase(static_cast<int64_t>(i), /*sticky=*/false);
    if (HasFailure()) return;  // first broken index is enough signal
  }
}

TEST(FaultSweepTest, StickyFaultAtEveryIoIndex) {
  uint64_t total = CountWorkloadOps();
  ASSERT_GT(total, 0u);
  for (uint64_t i = 0; i < total; ++i) {
    SCOPED_TRACE("sticky fault from I/O index " + std::to_string(i));
    RunSweepCase(static_cast<int64_t>(i), /*sticky=*/true);
    if (HasFailure()) return;  // first broken index is enough signal
  }
}

// --- Fault-injecting disk manager unit tests ----------------------------

TEST(FaultDiskTest, FailsNthOpPerTypeOneShot) {
  FaultInjectingDiskManager dm(std::make_unique<MemoryDiskManager>());
  uint32_t p0, p1;
  ASSERT_TRUE(dm.AllocatePage(&p0).ok());
  ASSERT_TRUE(dm.AllocatePage(&p1).ok());
  char buf[kPageSize] = {};
  dm.FailNth(DiskOpKind::kRead, 1);  // second read from now
  EXPECT_TRUE(dm.ReadPage(p0, buf).ok());
  EXPECT_FALSE(dm.ReadPage(p0, buf).ok());
  EXPECT_TRUE(dm.ReadPage(p0, buf).ok());  // one-shot: recovered
  // Reads were armed; writes never affected.
  EXPECT_TRUE(dm.WritePage(p1, buf).ok());
  EXPECT_EQ(dm.injected_faults(), 1u);
}

TEST(FaultDiskTest, StickyFaultFailsForever) {
  FaultInjectingDiskManager dm(std::make_unique<MemoryDiskManager>());
  uint32_t pid;
  ASSERT_TRUE(dm.AllocatePage(&pid).ok());
  char buf[kPageSize] = {};
  dm.FailNth(DiskOpKind::kWrite, 0, /*sticky=*/true);
  EXPECT_FALSE(dm.WritePage(pid, buf).ok());
  EXPECT_FALSE(dm.WritePage(pid, buf).ok());
  EXPECT_TRUE(dm.ReadPage(pid, buf).ok());  // other op types unaffected
  dm.Disarm();
  EXPECT_TRUE(dm.WritePage(pid, buf).ok());
}

TEST(FaultDiskTest, FreezeCapturesCrashImageBeforeFailedWrite) {
  FaultInjectingDiskManager dm(std::make_unique<MemoryDiskManager>());
  uint32_t p0, p1;
  ASSERT_TRUE(dm.AllocatePage(&p0).ok());
  ASSERT_TRUE(dm.AllocatePage(&p1).ok());
  char data[kPageSize];
  std::memset(data, 'x', kPageSize);
  ASSERT_TRUE(dm.WritePage(p0, data).ok());
  dm.set_freeze_on_fault(true);
  dm.FailNth(DiskOpKind::kWrite, 0);
  std::memset(data, 'y', kPageSize);
  EXPECT_FALSE(dm.WritePage(p0, data).ok());
  ASSERT_TRUE(dm.has_snapshot());
  EXPECT_EQ(dm.snapshot_page_count(), 2u);
  // The snapshot is the pre-failure image: 'x', not the failed 'y'.
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadSnapshotPage(p0, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(out[kPageSize - 1], 'x');
  ASSERT_TRUE(dm.ReadSnapshotPage(p1, out).ok());
  EXPECT_EQ(out[0], 0);  // never written
  EXPECT_FALSE(dm.ReadSnapshotPage(9, out).ok());
}

// --- Buffer-pool regression tests (fail against the pre-fix code) -------

TEST(BufferPoolFaultTest, FetchFailureDoesNotLeakVictimFrame) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<MemoryDiskManager>());
  FaultInjectingDiskManager* fd = fault.get();
  BufferPool pool(2, std::move(fault));
  uint32_t pids[3];
  for (int i = 0; i < 3; ++i) {
    Frame* f;
    ASSERT_TRUE(pool.NewPage(&pids[i], &f).ok());
    ASSERT_TRUE(pool.UnpinPage(pids[i], true).ok());
  }
  // pids[0] was evicted; faulting its reload must hand the victim frame
  // back (the pool used to leak it, permanently losing capacity).
  fd->FailNth(DiskOpKind::kRead, 0);
  Frame* f;
  EXPECT_FALSE(pool.FetchPage(pids[0], &f).ok());
  Status acct = pool.VerifyFrameAccounting();
  EXPECT_TRUE(acct.ok()) << acct.ToString();
  // Full capacity still available: two pages pinned simultaneously.
  Frame *f0, *f1;
  ASSERT_TRUE(pool.FetchPage(pids[0], &f0).ok());
  ASSERT_TRUE(pool.FetchPage(pids[1], &f1).ok());
  ASSERT_TRUE(pool.UnpinPage(pids[0], false).ok());
  ASSERT_TRUE(pool.UnpinPage(pids[1], false).ok());
}

TEST(BufferPoolFaultTest, FailedDirtyWritebackKeepsPageResident) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<MemoryDiskManager>());
  FaultInjectingDiskManager* fd = fault.get();
  BufferPool pool(1, std::move(fault));
  uint32_t p0;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&p0, &f).ok());
  f->data[0] = 'd';
  ASSERT_TRUE(pool.UnpinPage(p0, true).ok());
  // Evicting p0 requires a writeback; fail it. The pool used to drop the
  // frame from the page table with the only copy of the dirty data.
  fd->FailNth(DiskOpKind::kWrite, 0);
  uint32_t p1;
  Status st = pool.NewPage(&p1, &f);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(pool.stats().writeback_failures, 1u);
  Status acct = pool.VerifyFrameAccounting();
  EXPECT_TRUE(acct.ok()) << acct.ToString();
  // The dirty page is still resident with its data intact...
  uint64_t hits_before = pool.stats().hits;
  ASSERT_TRUE(pool.FetchPage(p0, &f).ok());
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
  EXPECT_EQ(f->data[0], 'd');
  ASSERT_TRUE(pool.UnpinPage(p0, false).ok());
  // ...and flushes cleanly once the device recovers.
  ASSERT_TRUE(pool.FlushPage(p0).ok());
  Status clean = pool.VerifyCleanFramesMatchDisk();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST(BufferPoolFaultTest, VictimSkipsPastUnwritableDirtyPage) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<MemoryDiskManager>());
  FaultInjectingDiskManager* fd = fault.get();
  BufferPool pool(2, std::move(fault));
  uint32_t dirty_pid, clean_pid;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&dirty_pid, &f).ok());
  ASSERT_TRUE(pool.UnpinPage(dirty_pid, true).ok());
  ASSERT_TRUE(pool.NewPage(&clean_pid, &f).ok());
  ASSERT_TRUE(pool.FlushPage(clean_pid).ok());
  ASSERT_TRUE(pool.UnpinPage(clean_pid, false).ok());
  // LRU order: dirty first, clean second. With writes dead, eviction must
  // step past the unwritable dirty page and take the clean one.
  fd->FailNth(DiskOpKind::kWrite, 0, /*sticky=*/true);
  uint32_t p2;
  ASSERT_TRUE(pool.NewPage(&p2, &f).ok());
  ASSERT_TRUE(pool.UnpinPage(p2, true).ok());
  EXPECT_GE(pool.stats().writeback_failures, 1u);
  // The dirty page survived the whole episode.
  fd->Disarm();
  ASSERT_TRUE(pool.FetchPage(dirty_pid, &f).ok());
  ASSERT_TRUE(pool.UnpinPage(dirty_pid, false).ok());
  Status acct = pool.VerifyFrameAccounting();
  EXPECT_TRUE(acct.ok()) << acct.ToString();
}

// --- Transaction abort under fault --------------------------------------

TEST(TxnFaultTest, AbortUnderStickyFaultReleasesLocks) {
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 4;
  copts.disk = &fault;
  Catalog catalog(copts);
  Relation* rel = nullptr;
  ASSERT_TRUE(catalog
                  .CreateRelation(Schema("T", {{"k", ValueType::kInt},
                                               {"s", ValueType::kSymbol}}),
                                  &rel)
                  .ok());
  LockManager locks;
  TxnManager tm(&catalog, &locks);
  auto txn = tm.Begin();
  TupleId a, b;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &a).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &b).ok());
  EXPECT_GT(locks.LockedResourceCount(), 0u);
  // Evict T's pages so the undo steps must touch the (about to die)
  // disk rather than being served from resident frames.
  Relation* churn = nullptr;
  ASSERT_TRUE(catalog
                  .CreateRelation(
                      Schema("Churn", {{"s", ValueType::kSymbol}}), &churn)
                  .ok());
  for (int i = 0; i < 8; ++i) {
    TupleId id;
    ASSERT_TRUE(
        churn->Insert(Tuple{Value(std::string(2000, 'c'))}, &id).ok());
  }
  // Device dies: every undo step will fail, but the abort must finish,
  // report the failure, and still release every lock.
  fault.FailAtOp(0, /*sticky=*/true);
  Status st = tm.Abort(txn.get());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(txn->changes().empty());
  EXPECT_EQ(locks.LockedResourceCount(), 0u);
  fault.Disarm();
  Status acct = catalog.buffer_pool()->VerifyFrameAccounting();
  EXPECT_TRUE(acct.ok()) << acct.ToString();
}

}  // namespace
}  // namespace prodb
