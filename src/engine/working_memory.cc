#include "engine/working_memory.h"

namespace prodb {

Status WorkingMemory::Flush() {
  // Relations first, then the matcher: it is entitled to see the
  // post-batch WM state (§5.2: maintenance runs on the whole ∆).
  Status st = matcher_->OnBatch(writes_.changes());
  writes_.Reset();
  writes_.ReleaseReservations();
  PRODB_RETURN_IF_ERROR(st);
  // Auto-commit durability point: WM mutations outside a Transaction
  // carry txn id 0 and are redone at restart whenever they are intact in
  // the log, so "committed" means "flushed". Forced after matcher
  // maintenance so the same flush also hardens any paged matcher
  // bookkeeping (DBMS-Rete token memories) the batch touched; group
  // commit makes this one flush per batch, not per record.
  if (LogManager* wal = catalog()->wal()) return wal->Flush();
  return Status::OK();
}

Status WorkingMemory::AutoCommit(Status st) {
  // Outside a batch every call is a batch of its own. Whatever landed
  // goes to the matcher now — even from a failed call (a modify whose
  // old version could not be put back), so relations and matcher agree.
  if (in_batch_ || writes_.changes().empty()) return st;
  Status flushed = Flush();
  return st.ok() ? flushed : st;
}

Status WorkingMemory::Insert(const std::string& cls, const Tuple& t,
                             TupleId* id) {
  return AutoCommit(writes_.Insert(cls, t, id));
}

Status WorkingMemory::Delete(const std::string& cls, TupleId id) {
  return AutoCommit(writes_.Delete(cls, id));
}

Status WorkingMemory::Modify(const std::string& cls, TupleId id,
                             const Tuple& t, TupleId* new_id) {
  return AutoCommit(writes_.Modify(cls, id, t, new_id));
}

Status WorkingMemory::CommitBatch() {
  in_batch_ = false;
  if (!writes_.changes().empty()) return Flush();
  writes_.ReleaseReservations();
  return Status::OK();
}

Status WorkingMemory::AbortBatch(Status cause) {
  in_batch_ = false;
  Status undone = writes_.Rollback();
  writes_.ReleaseReservations();
  Status forced = Status::OK();
  if (LogManager* wal = catalog()->wal()) forced = wal->Flush();
  if (!undone.ok()) return undone;
  return forced.ok() ? cause : forced;
}

}  // namespace prodb
