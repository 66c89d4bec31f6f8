#include "txn/write_set.h"

#include <algorithm>
#include <atomic>

#include "storage/wal.h"

namespace prodb {

namespace {
// Reservation keys of auto-commit WriteSets count down from the top of
// the id space, clear of the transaction ids TxnManager counts up.
std::atomic<uint64_t> next_private_key{UINT64_MAX};
}  // namespace

WriteSet::WriteSet(Catalog* catalog, uint64_t wal_txn)
    : catalog_(catalog),
      wal_txn_(wal_txn),
      reservation_key_(wal_txn != 0 ? wal_txn
                                    : next_private_key.fetch_sub(1)) {}

Status WriteSet::Find(const std::string& rel, Relation** out) const {
  *out = catalog_->Get(rel);
  if (*out == nullptr) return Status::NotFound("relation " + rel);
  return Status::OK();
}

Status WriteSet::DeleteFrom(Relation* r, TupleId id, Tuple* old) {
  PRODB_RETURN_IF_ERROR(r->Delete(id, old));
  // The heap keeps the freed bytes for our undo (keyed by the scope the
  // caller holds) until ReleaseReservations.
  if (r->storage_kind() == StorageKind::kPaged &&
      std::find(reserving_.begin(), reserving_.end(), r->name()) ==
          reserving_.end()) {
    reserving_.push_back(r->name());
  }
  return Status::OK();
}

Status WriteSet::Insert(const std::string& rel, const Tuple& t,
                        TupleId* id) {
  Relation* r;
  PRODB_RETURN_IF_ERROR(Find(rel, &r));
  // Attribute the WAL records this mutation generates to our transaction;
  // restart recovery redoes them only if its commit record made it to
  // disk (always, for auto-commit id 0). Under our reservation key, a
  // heap tries the page of our latest delete in it first.
  WalTxnScope wal_scope(wal_txn_, reservation_key_);
  TupleId nid;
  PRODB_RETURN_IF_ERROR(r->Insert(t, &nid));
  changes_.AddInsert(rel, t, nid);
  if (id != nullptr) *id = nid;
  return Status::OK();
}

Status WriteSet::Delete(const std::string& rel, TupleId id) {
  Relation* r;
  PRODB_RETURN_IF_ERROR(Find(rel, &r));
  WalTxnScope wal_scope(wal_txn_, reservation_key_);
  Tuple old;
  PRODB_RETURN_IF_ERROR(DeleteFrom(r, id, &old));
  changes_.AddDelete(rel, id, std::move(old));
  return Status::OK();
}

Status WriteSet::Modify(const std::string& rel, TupleId id, const Tuple& t,
                        TupleId* new_id) {
  // §3.1: a modification is a deletion followed by an insertion, and
  // maintenance sees it exactly that way. The pair propagates even when
  // the new tuple equals the old one: OPS5 refraction counts the modify
  // as fresh WM activity. The heap puts the new version on the old one's
  // page when it fits — in the old version's bytes, when it fits them —
  // under a new id.
  Relation* r;
  PRODB_RETURN_IF_ERROR(Find(rel, &r));
  WalTxnScope wal_scope(wal_txn_, reservation_key_);
  Tuple old;
  PRODB_RETURN_IF_ERROR(DeleteFrom(r, id, &old));
  TupleId nid;
  Status st = r->Insert(t, &nid);
  if (!st.ok()) {
    // Put the old version back under its id, so the failed modify changes
    // nothing. Should even that fail, the delete has landed and is
    // recorded like any other, for Rollback and maintenance to see; the
    // insert error still wins — it is what the caller can act on.
    if (!r->Restore(id, old).ok()) changes_.AddDelete(rel, id, std::move(old));
    return st;
  }
  changes_.AddModify(rel, id, old, t, nid);
  if (new_id != nullptr) *new_id = nid;
  return Status::OK();
}

Status WriteSet::Rollback() {
  // Undo is best-effort: a step that fails (an I/O error from a paged
  // relation, a tuple removed behind our back) must not strand the
  // remaining entries — bailing out mid-loop leaves WM half-rolled-back
  // with the undo log still claiming the changes are live. Every entry
  // is attempted; the returned Status reports what could not be undone.
  //
  // Undone deletes come back through Restore, under their original ids:
  // conflict-set entries recorded before these changes still reference
  // those ids, and a value-only re-insert would strand them.
  //
  // Undo records stay attributed to our WAL id: restart recovery skips a
  // loser's along with its forward records, and redoes an auto-commit's
  // after them. The scope also lets the restores use the heap space our
  // deletes reserved, and keeps what undoing our inserts frees for the
  // restores that follow.
  WalTxnScope wal_scope(wal_txn_, reservation_key_);
  Status first_error;
  size_t failed = 0;
  for (const Delta& d : changes_.Inverse()) {
    Relation* r;
    Status st = Find(d.relation, &r);
    if (st.ok()) {
      st = d.is_insert() ? r->Restore(d.id, d.tuple) : DeleteFrom(r, d.id);
    }
    if (!st.ok()) {
      ++failed;
      if (first_error.ok()) first_error = st;
    }
  }
  const size_t total = changes_.size();
  Reset();
  if (failed == 0) return Status::OK();
  if (failed == 1) return first_error;
  return Status::Internal("rollback incomplete: " + std::to_string(failed) +
                          " of " + std::to_string(total) +
                          " undo steps failed; first: " +
                          first_error.ToString());
}

void WriteSet::Reset() { changes_.clear(); }

void WriteSet::ReleaseReservations() {
  for (const std::string& rel : reserving_) {
    if (Relation* r = catalog_->Get(rel)) {
      r->ReleaseReservations(reservation_key_);
    }
  }
  reserving_.clear();
}

}  // namespace prodb
