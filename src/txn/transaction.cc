#include "txn/transaction.h"

#include <algorithm>

namespace prodb {

Status Transaction::ReadLock(const std::string& rel, TupleId id) {
  PRODB_RETURN_IF_ERROR(locks_->Acquire(id_, ResourceId::Rel(rel),
                                        LockMode::kIS));
  return locks_->Acquire(id_, ResourceId::Tup(rel, id), LockMode::kS);
}

Status Transaction::ReadLockRelation(const std::string& rel) {
  return locks_->Acquire(id_, ResourceId::Rel(rel), LockMode::kS);
}

Status Transaction::WriteLock(const std::string& rel, TupleId id) {
  PRODB_RETURN_IF_ERROR(locks_->Acquire(id_, ResourceId::Rel(rel),
                                        LockMode::kIX));
  return locks_->Acquire(id_, ResourceId::Tup(rel, id), LockMode::kX);
}

Status Transaction::WriteIntent(const std::string& rel) {
  return locks_->Acquire(id_, ResourceId::Rel(rel), LockMode::kIX);
}

Status Transaction::Insert(const std::string& rel, const Tuple& t,
                           TupleId* id) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(WriteIntent(rel));
  // Attribute the WAL records this mutation generates to us; restart
  // recovery redoes them only if our commit record made it to disk.
  WalTxnScope wal_scope(id_);
  // Same-page placement: the page our latest delete freed is hot in the
  // pool and our own reservation there covers the record (a page of
  // another relation's heap is simply not a candidate).
  PRODB_RETURN_IF_ERROR(last_delete_ ? r->InsertNear(*last_delete_, t, id)
                                     : r->Insert(t, id));
  changes_.AddInsert(rel, t, *id);
  // Lock the new tuple so no reader observes it before we commit.
  return locks_->Acquire(id_, ResourceId::Tup(rel, *id), LockMode::kX);
}

Status Transaction::DeleteFrom(Relation* r, TupleId id, Tuple* old) {
  PRODB_RETURN_IF_ERROR(r->Delete(id, old));
  // The heap keeps the freed bytes for our undo (keyed by the WAL
  // transaction scope the caller holds) until ReleaseReservations.
  if (r->storage_kind() == StorageKind::kPaged &&
      std::find(reserving_.begin(), reserving_.end(), r->name()) ==
          reserving_.end()) {
    reserving_.push_back(r->name());
  }
  return Status::OK();
}

Status Transaction::Delete(const std::string& rel, TupleId id) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(WriteLock(rel, id));
  WalTxnScope wal_scope(id_);
  Tuple old;
  PRODB_RETURN_IF_ERROR(DeleteFrom(r, id, &old));
  changes_.AddDelete(rel, id, std::move(old));
  last_delete_ = id;
  return Status::OK();
}

Status Transaction::Modify(const std::string& rel, TupleId id, const Tuple& t,
                           TupleId* new_id) {
  // §3.1 / §5: a modification is a deletion followed by an insertion, and
  // the maintenance algorithms see it exactly that way. If the insert
  // fails, the recorded delete stays unpaired and Rollback restores it.
  // The insert prefers the page the delete just freed (same-page update);
  // the new version still gets its own slot and id.
  PRODB_RETURN_IF_ERROR(Delete(rel, id));
  const size_t del = changes_.size() - 1;
  PRODB_RETURN_IF_ERROR(Insert(rel, t, new_id));
  changes_.LinkModify(del, changes_.size() - 1);
  return Status::OK();
}

Status Transaction::Read(const std::string& rel, TupleId id, Tuple* out) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(ReadLock(rel, id));
  return r->Get(id, out);
}

Status Transaction::Rollback() {
  // Undo is best-effort: a step that fails (an I/O error from a paged
  // relation, a tuple removed behind the transaction's back) must not
  // strand the remaining entries — bailing out mid-loop leaves WM
  // half-rolled-back with the undo log still claiming the changes are
  // live. Every entry is attempted; the transaction always reaches
  // kAborted; the returned Status reports what could not be undone.
  //
  // Undone deletes come back through Restore, under their original ids:
  // conflict-set entries recorded before this transaction still reference
  // those ids, and a value-only re-insert would strand them.
  //
  // Undo records stay attributed to this (loser) transaction: restart
  // recovery skips them along with the forward records. The scope also
  // lets the restores use the heap space our deletes reserved, and keeps
  // what undoing our inserts frees for the restores that follow.
  WalTxnScope wal_scope(id_);
  Status first_error;
  size_t failed = 0;
  for (const Delta& d : changes_.Inverse()) {
    Relation* r = catalog_->Get(d.relation);
    Status st = r == nullptr
                    ? Status::NotFound("relation " + d.relation)
                    : (d.is_insert() ? r->Restore(d.id, d.tuple)
                                     : DeleteFrom(r, d.id));
    if (!st.ok()) {
      ++failed;
      if (first_error.ok()) first_error = st;
    }
  }
  size_t total = changes_.size();
  changes_.clear();
  state_ = TxnState::kAborted;
  if (failed == 0) return Status::OK();
  if (failed == 1) return first_error;
  return Status::Internal("rollback incomplete: " + std::to_string(failed) +
                          " of " + std::to_string(total) +
                          " undo steps failed; first: " +
                          first_error.ToString());
}

void Transaction::ReleaseReservations() {
  for (const std::string& rel : reserving_) {
    if (Relation* r = catalog_->Get(rel)) r->ReleaseReservations(id_);
  }
  reserving_.clear();
}

std::unique_ptr<Transaction> TxnManager::Begin() {
  // Ids must stay above anything recorded in a recovered log: a reused id
  // would inherit the dead transaction's commit record at the next
  // restart and its losers would be redone as winners.
  uint64_t floor = catalog_->recovered_max_txn_id() + 1;
  uint64_t cur = next_id_.load();
  while (cur < floor && !next_id_.compare_exchange_weak(cur, floor)) {
  }
  return std::make_unique<Transaction>(next_id_.fetch_add(1), catalog_,
                                       locks_);
}

Status TxnManager::Commit(Transaction* txn, const MaintainFn& maintain) {
  if (!txn->changes().empty()) {
    Status st = maintain(txn->changes());
    if (!st.ok()) {
      // Maintenance failed mid-batch: matcher state cannot be unwound
      // cleanly, so surface the error (relations keep the ∆; with no end
      // record, restart undoes it as a loser). The page holds and locks
      // must still drop or the pool and the lock table wedge; the heap
      // space its deletes freed stays reserved for that restart undo.
      Release(txn, /*ended=*/false);
      return st;
    }
  }
  Status st = Commit(txn);
  if (st.ok()) return st;
  // The commit force failed after maintenance. Unwind in the order
  // WorkingMemory::Apply applies: relations first, since matchers
  // evaluate inserts against current WM; then the matcher, with the
  // inverse ∆; only then the abort record and the lock release, so no
  // other transaction sees the gap.
  ChangeSet inverse = txn->changes().Inverse();
  Status undone = txn->Rollback();
  if (!inverse.empty()) {
    Status unmaintained = maintain(inverse);
    if (undone.ok()) undone = unmaintained;
  }
  EndAborted(txn);
  return undone.ok() ? st : undone;
}

Status TxnManager::Commit(Transaction* txn) {
  if (LogManager* wal = catalog_->wal()) {
    // Force the log through the commit record: group commit — this one
    // flush also hardens whatever other transactions buffered since the
    // last flush. A flush failure leaves the transaction active (not
    // committed, locks held) so the caller can abort it like any other
    // failed operation.
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = txn->id();
    PRODB_RETURN_IF_ERROR(wal->FlushTo(wal->Append(rec)));
  }
  txn->MarkCommitted();
  // Durable now: the pages this transaction dirtied may be stolen.
  Release(txn);
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn, Status cause) {
  Status undone = txn->Rollback();
  EndAborted(txn);
  return undone.ok() ? cause : undone;
}

void TxnManager::EndAborted(Transaction* txn) {
  if (LogManager* wal = catalog_->wal()) {
    // The abort record is hygiene (absence of a commit already dooms the
    // transaction at restart); no flush needed. The undo restored
    // pre-transaction state, so the pages may reach disk again.
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = txn->id();
    wal->Append(rec);
  }
  Release(txn);
}

void TxnManager::Release(Transaction* txn, bool ended) {
  if (ended) txn->ReleaseReservations();
  if (catalog_->wal() != nullptr) {
    catalog_->buffer_pool()->ReleaseTxnPages(txn->id());
  }
  locks_->ReleaseAll(txn->id());
}

}  // namespace prodb
