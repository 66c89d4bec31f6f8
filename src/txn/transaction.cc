#include "txn/transaction.h"

namespace prodb {

Transaction::RelationLock& Transaction::RelationOf(const std::string& rel) {
  for (RelationLock& r : relations_) {
    if (r.name == rel) return r;
  }
  relations_.push_back(RelationLock{rel, locks_->Intern(rel)});
  return relations_.back();
}

Status Transaction::LockRelation(RelationLock& rel, LockMode mode) {
  if (rel.held && LockCovers(rel.mode, mode)) return Status::OK();
  PRODB_RETURN_IF_ERROR(
      locks_->Acquire(id_, LockKey::Rel(rel.key), mode, waiter_));
  rel.mode = rel.held ? LockJoin(rel.mode, mode) : mode;
  rel.held = true;
  return Status::OK();
}

Status Transaction::LockTuple(const std::string& rel, LockMode intent,
                              TupleId id, LockMode mode) {
  RelationLock& r = RelationOf(rel);
  PRODB_RETURN_IF_ERROR(LockRelation(r, intent));
  return locks_->Acquire(id_, LockKey::Tup(r.key, id), mode, waiter_);
}

void Transaction::ReleaseLocks() {
  locks_->ReleaseAll(id_);
  relations_.clear();
}

Status Transaction::ReadLock(const std::string& rel, TupleId id) {
  return LockTuple(rel, LockMode::kIS, id, LockMode::kS);
}

Status Transaction::ReadLockRelation(const std::string& rel) {
  return LockRelation(RelationOf(rel), LockMode::kS);
}

Status Transaction::WriteLock(const std::string& rel, TupleId id) {
  return LockTuple(rel, LockMode::kIX, id, LockMode::kX);
}

Status Transaction::WriteIntent(const std::string& rel) {
  return LockRelation(RelationOf(rel), LockMode::kIX);
}

Status Transaction::Insert(const std::string& rel, const Tuple& t,
                           TupleId* id) {
  PRODB_RETURN_IF_ERROR(WriteIntent(rel));
  PRODB_RETURN_IF_ERROR(writes_.Insert(rel, t, id));
  // Lock the new tuple so no reader observes it before we commit.
  return WriteLock(rel, *id);
}

Status Transaction::Delete(const std::string& rel, TupleId id) {
  PRODB_RETURN_IF_ERROR(WriteLock(rel, id));
  return writes_.Delete(rel, id);
}

Status Transaction::Modify(const std::string& rel, TupleId id, const Tuple& t,
                           TupleId* new_id) {
  PRODB_RETURN_IF_ERROR(WriteLock(rel, id));
  PRODB_RETURN_IF_ERROR(writes_.Modify(rel, id, t, new_id));
  return WriteLock(rel, *new_id);
}

Status Transaction::Read(const std::string& rel, TupleId id, Tuple* out) {
  Relation* r = writes_.catalog()->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(ReadLock(rel, id));
  return r->Get(id, out);
}

Status Transaction::Rollback() {
  Status st = writes_.Rollback();
  state_ = TxnState::kAborted;
  return st;
}

std::unique_ptr<Transaction> TxnManager::Begin(TxnWaiter* waiter) {
  // Ids must stay above anything recorded in a recovered log: a reused id
  // would inherit the dead transaction's commit record at the next
  // restart and its losers would be redone as winners.
  uint64_t floor = catalog_->recovered_max_txn_id() + 1;
  uint64_t cur = next_id_.load();
  while (cur < floor && !next_id_.compare_exchange_weak(cur, floor)) {
  }
  return std::make_unique<Transaction>(next_id_.fetch_add(1), catalog_,
                                       locks_, waiter);
}

Status TxnManager::Commit(Transaction* txn, const MaintainFn& maintain) {
  if (!txn->changes().empty()) {
    Status st = maintain(txn->changes());
    if (!st.ok()) {
      // Maintenance failed mid-batch: matcher state cannot be unwound
      // cleanly, so surface the error (relations keep the ∆; with no end
      // record, restart undoes it as a loser). The locks must still drop
      // or the lock table wedges; the heap space its deletes freed stays
      // reserved for that restart undo.
      Release(txn, /*ended=*/false);
      return st;
    }
  }
  Status st = Commit(txn);
  if (st.ok()) return st;
  // The commit force failed after maintenance. Unwind in the order a
  // forward batch applies: relations first, since matchers evaluate
  // inserts against current WM; then the matcher, with the inverse ∆;
  // only then the abort record and the lock release, so no other
  // transaction sees the gap.
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
    const Lsn lsn = wal->Append(rec);
    Status forced;
    {
      WaitScope wait(txn->waiter());
      forced = wal->FlushTo(lsn);
    }
    PRODB_RETURN_IF_ERROR(forced);
  }
  txn->MarkCommitted();
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
    // transaction at restart); no flush needed. It ends the transaction
    // in the log, so a later writeback of its pages is no steal.
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = txn->id();
    wal->Append(rec);
  }
  Release(txn);
}

void TxnManager::Release(Transaction* txn, bool ended) {
  if (ended) txn->ReleaseReservations();
  txn->ReleaseLocks();
}

}  // namespace prodb
