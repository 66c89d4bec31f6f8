#include "engine/working_memory.h"

namespace prodb {

Status WorkingMemory::ForceLog() {
  // Auto-commit durability point for the sequential path: WM mutations
  // outside a Transaction carry txn id 0 and are redone at restart
  // whenever they are intact in the log, so "committed" means "flushed".
  // Called after matcher maintenance so the same flush also hardens any
  // paged matcher bookkeeping (DBMS-Rete token memories) the batch
  // touched; group commit makes this one flush per batch, not per record.
  if (LogManager* wal = catalog_->wal()) {
    return wal->Flush();
  }
  return Status::OK();
}

Status WorkingMemory::ApplyToRelation(Delta* d) {
  Relation* rel = catalog_->Get(d->relation);
  if (rel == nullptr) return Status::NotFound("class " + d->relation);
  if (d->is_insert()) {
    // An insert that already carries an id is a restore (e.g. the
    // compensating half of an Inverse()): the tuple must come back under
    // its original identity, not a fresh one.
    if (d->id == Delta::kUnassigned) return rel->Insert(d->tuple, &d->id);
    return rel->Restore(d->id, d->tuple);
  }
  // The relation hands back the deleted value so the matcher sees it;
  // callers may record deletes by id alone.
  return rel->Delete(d->id, &d->tuple);
}

Status WorkingMemory::Insert(const std::string& cls, const Tuple& t,
                             TupleId* id) {
  Delta d;
  d.kind = DeltaKind::kInsert;
  d.relation = cls;
  d.tuple = t;
  PRODB_RETURN_IF_ERROR(ApplyToRelation(&d));
  if (id != nullptr) *id = d.id;
  if (in_batch_) {
    pending_.AddInsert(cls, d.tuple, d.id);
    return Status::OK();
  }
  ChangeSet one;
  one.AddInsert(cls, d.tuple, d.id);
  PRODB_RETURN_IF_ERROR(matcher_->OnBatch(one));
  return ForceLog();
}

Status WorkingMemory::Delete(const std::string& cls, TupleId id) {
  Delta d;
  d.kind = DeltaKind::kDelete;
  d.relation = cls;
  d.id = id;
  PRODB_RETURN_IF_ERROR(ApplyToRelation(&d));
  if (in_batch_) {
    pending_.AddDelete(cls, id, d.tuple);
    return Status::OK();
  }
  ChangeSet one;
  one.AddDelete(cls, id, d.tuple);
  PRODB_RETURN_IF_ERROR(matcher_->OnBatch(one));
  return ForceLog();
}

Status WorkingMemory::Modify(const std::string& cls, TupleId id,
                             const Tuple& t, TupleId* new_id) {
  // Delete-then-insert, per §3.1 ("modifications are treated as
  // deletions followed by insertions"). The pair is tagged as one logical
  // modify, and it propagates even when the new tuple equals the old one:
  // OPS5 refraction counts the modify as fresh WM activity. The new
  // version goes on the old one's page when it fits, under a new id.
  Relation* rel = catalog_->Get(cls);
  if (rel == nullptr) return Status::NotFound("class " + cls);
  Tuple old;
  PRODB_RETURN_IF_ERROR(rel->Delete(id, &old));
  TupleId nid;
  Status st = rel->InsertNear(id, t, &nid);
  if (!st.ok()) {
    // The delete already landed but the matcher was never told about it.
    // Put the tuple back under its original id so relation and matcher
    // agree again; if even the restore fails, the insert error still
    // wins — it is what the caller can act on.
    (void)rel->Restore(id, old);
    return st;
  }
  if (new_id != nullptr) *new_id = nid;
  if (in_batch_) {
    pending_.AddModify(cls, id, old, t, nid);
    return Status::OK();
  }
  ChangeSet pair;
  pair.AddModify(cls, id, old, t, nid);
  PRODB_RETURN_IF_ERROR(matcher_->OnBatch(pair));
  return ForceLog();
}

void WorkingMemory::BeginBatch() {
  in_batch_ = true;
  pending_.clear();
}

Status WorkingMemory::CommitBatch() {
  in_batch_ = false;
  if (pending_.empty()) return Status::OK();
  ChangeSet batch;
  std::swap(batch, pending_);
  PRODB_RETURN_IF_ERROR(matcher_->OnBatch(batch));
  return ForceLog();
}

Status WorkingMemory::Apply(ChangeSet* cs) {
  // Relations first — the matcher is entitled to see the post-batch WM
  // state (§5.2: maintenance runs on the transaction's whole ∆).
  for (size_t i = 0; i < cs->size(); ++i) {
    PRODB_RETURN_IF_ERROR(ApplyToRelation(&(*cs)[i]));
  }
  PRODB_RETURN_IF_ERROR(matcher_->OnBatch(*cs));
  return ForceLog();
}

}  // namespace prodb
