#ifndef PRODB_TXN_TRANSACTION_H_
#define PRODB_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "common/tuple.h"
#include "db/catalog.h"
#include "txn/lock_manager.h"

namespace prodb {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// A transaction: lock scope + one ChangeSet over catalog relations.
///
/// §5 treats every selected production (matching pattern plus the WM
/// tuples it selects) as a transaction. The RHS actions run through
/// Transaction::{Insert,Delete,Modify} so that (a) writes take X locks
/// first, (b) each write lands in changes() — the transaction's whole
/// ∆ins/∆del, which is both its undo log and the ∆ COND maintenance sees
/// at the commit point — and (c) lock release waits until that
/// maintenance has finished (strict 2PL with the paper's "commit after
/// maintenance" rule, TxnManager::Commit).
class Transaction {
 public:
  Transaction(uint64_t id, Catalog* catalog, LockManager* locks)
      : id_(id), catalog_(catalog), locks_(locks) {}

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }

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
  /// Each takes the required lock, applies the change, and records it in
  /// changes() the moment it lands. Delete records the tuple the
  /// relation hands back as it removes it, under its X lock. Modify is
  /// Delete then Insert (§3.1): the delete half is recorded before the
  /// insert is tried, and the two are linked as a modify pair once the
  /// insert lands. An insert on a paged
  /// relation goes on the page this transaction's latest delete freed
  /// when it fits there — for a modify, the old version's page — always
  /// under a new id. The choice follows the operation sequence alone, so
  /// a modify spelled Delete then Insert places exactly like Modify.
  Status Insert(const std::string& rel, const Tuple& t, TupleId* id);
  Status Delete(const std::string& rel, TupleId id);
  Status Modify(const std::string& rel, TupleId id, const Tuple& t,
                TupleId* new_id);

  /// Reads a tuple under a read lock.
  Status Read(const std::string& rel, TupleId id, Tuple* out);

  /// Marks committed; TxnManager releases the locks.
  void MarkCommitted() { state_ = TxnState::kCommitted; }

  /// The one compensation: applies changes().Inverse() to the relations,
  /// undone deletes through Relation::Restore so tuples keep their
  /// original ids. Best-effort: every step is attempted, the first error
  /// (or "rollback incomplete: N of M") is returned, and the transaction
  /// always ends kAborted with changes() cleared.
  Status Rollback();

  /// The mutations that have landed, in application order: the undo log
  /// Rollback inverts, and the ∆ TxnManager::Commit hands to maintenance.
  const ChangeSet& changes() const { return changes_; }

  /// Hands the heap space this transaction's deletes reserved (for its
  /// own undo) back to every inserter. TxnManager calls it once the
  /// transaction commits or finishes aborting; free when the
  /// transaction deleted nothing from a paged relation.
  void ReleaseReservations();

 private:
  /// Deletes `id` from `r` (its tuple into *old, when given) and notes a
  /// paged relation as holding a reservation for this transaction.
  Status DeleteFrom(Relation* r, TupleId id, Tuple* old = nullptr);

  uint64_t id_;
  Catalog* catalog_;
  LockManager* locks_;
  TxnState state_ = TxnState::kActive;
  ChangeSet changes_;
  // The latest forward delete: later inserts prefer its page.
  std::optional<TupleId> last_delete_;
  // Paged relations whose heap holds bytes this transaction's deletes
  // freed, by name (a relation may be dropped meanwhile);
  // ReleaseReservations returns the bytes.
  std::vector<std::string> reserving_;
};

/// Issues transaction ids and finalizes commit/abort.
class TxnManager {
 public:
  TxnManager(Catalog* catalog, LockManager* locks)
      : catalog_(catalog), locks_(locks) {}

  std::unique_ptr<Transaction> Begin();

  /// COND maintenance over a transaction's ∆ (e.g. Matcher::OnBatch).
  using MaintainFn = std::function<Status(const ChangeSet&)>;

  /// The §5.2 commit point: runs `maintain` on the whole of
  /// txn->changes() (skipped when empty), then forces the commit record.
  ///   - maintenance fails: the error is returned with the page holds and
  ///     locks dropped and no end record written (restart treats the
  ///     transaction as a loser; live relations keep the ∆);
  ///   - the commit force fails: the relations are compensated first
  ///     (Rollback), then the inverse ∆ goes through `maintain`, then the
  ///     abort record is written and the locks released — matcher and
  ///     relations return to their pre-transaction state while the locks
  ///     still hide the gap. The first compensation error, else the
  ///     commit error, is returned.
  Status Commit(Transaction* txn, const MaintainFn& maintain);

  /// Commit with no maintenance: force the WAL through a commit record
  /// (when the catalog has one), mark committed and release locks. On a
  /// log-flush failure the transaction is left active with locks held;
  /// the caller should abort it.
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
  /// Drops the transaction's page holds (when the catalog logs) and
  /// releases its locks. A transaction that `ended` (committed, or
  /// aborted with its undo done) also returns its heap-space
  /// reservations; one that did neither keeps them, because restart
  /// undo will need the bytes.
  void Release(Transaction* txn, bool ended = true);

  Catalog* catalog_;
  LockManager* locks_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace prodb

#endif  // PRODB_TXN_TRANSACTION_H_
