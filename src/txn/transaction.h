#ifndef PRODB_TXN_TRANSACTION_H_
#define PRODB_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "common/tuple.h"
#include "db/catalog.h"
#include "txn/lock_manager.h"
#include "txn/write_set.h"

namespace prodb {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// A transaction: 2PL lock scope around one WriteSet over catalog
/// relations.
///
/// §5 treats every selected production (matching pattern plus the WM
/// tuples it selects) as a transaction. The RHS actions run through
/// Transaction::{Insert,Delete,Modify} so that (a) writes take X locks
/// first, (b) each write lands in changes() — the transaction's whole
/// ∆ins/∆del, which is both its undo log and the ∆ COND maintenance sees
/// at the commit point — and (c) lock release waits until that
/// maintenance has finished (strict 2PL with the paper's "commit after
/// maintenance" rule, TxnManager::Commit). Applying, recording, page
/// placement and compensation are the WriteSet's, shared with
/// WorkingMemory.
///
/// A transaction may carry a TxnWaiter that hears its waits: its lock
/// waits, the commit record's log force (TxnManager::Commit) and a
/// firing's `call` actions (ExecuteRhs). The concurrent engine gives its
/// firings one; server sessions have none.
///
/// The transaction remembers the mode it holds on each relation it has
/// locked, so the relation IS/IX that every read and write re-requests
/// is answered here when that mode covers it; only a request it does
/// not cover reaches the LockManager, and the mode then becomes the
/// LockJoin of the two, as the manager's in-place upgrade does.
class Transaction {
 public:
  Transaction(uint64_t id, Catalog* catalog, LockManager* locks,
              TxnWaiter* waiter = nullptr)
      : id_(id), locks_(locks), waiter_(waiter), writes_(catalog, id) {}

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }
  TxnWaiter* waiter() const { return waiter_; }

  /// --- Locking ---------------------------------------------------------
  /// Tuple read lock (takes relation IS first).
  Status ReadLock(const std::string& rel, TupleId id);
  /// Whole-relation read lock — negative dependence (§5.2).
  Status ReadLockRelation(const std::string& rel);
  /// Tuple write lock (takes relation IX first).
  Status WriteLock(const std::string& rel, TupleId id);
  /// Relation IX lock, needed before inserting new tuples.
  Status WriteIntent(const std::string& rel);

  /// --- Recorded mutations -----------------------------------------------
  /// Each takes the required lock, then applies and records the change
  /// through the WriteSet (see there for placement and for Modify, a
  /// delete then an insert that changes nothing when the insert fails).
  /// A tuple the transaction inserts is X-locked until it ends.
  Status Insert(const std::string& rel, const Tuple& t, TupleId* id);
  Status Delete(const std::string& rel, TupleId id);
  Status Modify(const std::string& rel, TupleId id, const Tuple& t,
                TupleId* new_id);

  /// Reads a tuple under a read lock.
  Status Read(const std::string& rel, TupleId id, Tuple* out);

  /// Marks committed; TxnManager releases the locks.
  void MarkCommitted() { state_ = TxnState::kCommitted; }

  /// The one compensation, WriteSet::Rollback; the transaction always
  /// ends kAborted with changes() cleared.
  Status Rollback();

  /// The mutations that have landed, in application order: the undo log
  /// Rollback inverts, and the ∆ TxnManager::Commit hands to maintenance.
  const ChangeSet& changes() const { return writes_.changes(); }

  /// Hands the heap space this transaction's deletes reserved (for its
  /// own undo) back to every inserter. TxnManager calls it once the
  /// transaction commits or finishes aborting; free when the
  /// transaction deleted nothing from a paged relation.
  void ReleaseReservations() { writes_.ReleaseReservations(); }

  /// Releases every lock the transaction holds (TxnManager, at its end).
  void ReleaseLocks();

 private:
  /// A relation the transaction has requested a lock on.
  struct RelationLock {
    std::string name;
    uint32_t key;       // LockManager::Intern(name)
    bool held = false;  // `mode` granted
    LockMode mode = LockMode::kIS;
  };

  /// The record of `rel`, made (and its name interned) on first use.
  RelationLock& RelationOf(const std::string& rel);
  /// Takes `mode` on the whole relation unless the held mode covers it.
  Status LockRelation(RelationLock& rel, LockMode mode);
  /// Takes relation intent `intent`, then `mode` on tuple `id`.
  Status LockTuple(const std::string& rel, LockMode intent, TupleId id,
                   LockMode mode);

  uint64_t id_;
  LockManager* locks_;
  TxnWaiter* waiter_;
  TxnState state_ = TxnState::kActive;
  WriteSet writes_;
  std::vector<RelationLock> relations_;  // a transaction touches few
};

/// Issues transaction ids and finalizes commit/abort.
class TxnManager {
 public:
  TxnManager(Catalog* catalog, LockManager* locks)
      : catalog_(catalog), locks_(locks) {}

  /// Starts a transaction; `waiter`, when given, hears its waits.
  std::unique_ptr<Transaction> Begin(TxnWaiter* waiter = nullptr);

  /// COND maintenance over a transaction's ∆ (e.g. Matcher::OnBatch).
  using MaintainFn = std::function<Status(const ChangeSet&)>;

  /// The §5.2 commit point: runs `maintain` on the whole of
  /// txn->changes() (skipped when empty), then forces the commit record.
  ///   - maintenance fails: the error is returned with the locks
  ///     dropped and no end record written (restart treats the
  ///     transaction as a loser; live relations keep the ∆);
  ///   - the commit force fails: the relations are compensated first
  ///     (Rollback), then the inverse ∆ goes through `maintain`, then the
  ///     abort record is written and the locks released — matcher and
  ///     relations return to their pre-transaction state while the locks
  ///     still hide the gap. The first compensation error, else the
  ///     commit error, is returned.
  Status Commit(Transaction* txn, const MaintainFn& maintain);

  /// Commit with no maintenance: force the WAL through a commit record
  /// (when the catalog has one; the force is a wait the transaction's
  /// waiter hears), mark committed and release locks. On a log-flush
  /// failure the transaction is left active with locks held; the caller
  /// should abort it.
  Status Commit(Transaction* txn);

  /// Abort: Rollback, write the abort record, release locks. Returns the
  /// rollback error when compensation failed, else `cause` — so a caller
  /// aborting because of a deadlock gets Status::Deadlock back only when
  /// the retry would start from a fully compensated state.
  Status Abort(Transaction* txn, Status cause = Status::OK());

  uint64_t started() const { return next_id_.load(); }

 private:
  /// Appends the abort record (when the catalog logs) and releases.
  void EndAborted(Transaction* txn);
  /// Releases the transaction's locks. A transaction that `ended`
  /// (committed, or aborted with its undo done) also returns its
  /// heap-space reservations; one that did neither keeps them, because
  /// restart undo will need the bytes.
  void Release(Transaction* txn, bool ended = true);

  Catalog* catalog_;
  LockManager* locks_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace prodb

#endif  // PRODB_TXN_TRANSACTION_H_
