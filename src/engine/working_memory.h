#ifndef PRODB_ENGINE_WORKING_MEMORY_H_
#define PRODB_ENGINE_WORKING_MEMORY_H_

#include <string>

#include "common/change_set.h"
#include "common/status.h"
#include "db/catalog.h"
#include "match/matcher.h"
#include "txn/write_set.h"

namespace prodb {

/// Facade coupling WM relations to a matcher: every mutation of working
/// memory goes through here so the matcher sees each insertion and
/// deletion exactly once ("changes will trigger the maintenance
/// process", §5). The relations are written by a WriteSet with WAL id 0
/// (auto-commit), the writer Transaction wraps in locks, so both apply,
/// record, place and compensate alike; a modify is a deletion followed by
/// an insertion, and a failed one changes nothing.
///
/// The single-tuple calls are one-element batches; BeginBatch/CommitBatch
/// let a caller (an engine executing a whole RHS, or a bulk loader)
/// accumulate deltas so the matcher receives the entire set in one
/// OnBatch — the §5.2 requirement that maintenance sees a transaction's
/// whole ∆ins/∆del before commit. Relations are mutated eagerly even
/// inside a batch (tuple ids must be assigned and reads must see the
/// writes); only the matcher notification is deferred to CommitBatch, and
/// AbortBatch undoes a batch the matcher never saw.
///
/// Not thread-safe: one thread writes working memory at a time.
class WorkingMemory {
 public:
  WorkingMemory(Catalog* catalog, Matcher* matcher)
      : matcher_(matcher), writes_(catalog, /*wal_txn=*/0) {}

  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr);
  Status Delete(const std::string& cls, TupleId id);
  Status Modify(const std::string& cls, TupleId id, const Tuple& t,
                TupleId* new_id = nullptr);

  /// Starts buffering: subsequent Insert/Delete/Modify apply to relations
  /// immediately but defer matcher notification until CommitBatch.
  /// Batches do not nest.
  void BeginBatch() { in_batch_ = true; }

  /// Flushes the buffered deltas to the matcher in one OnBatch call and
  /// leaves batch mode. No-op (still leaves batch mode) when empty.
  Status CommitBatch();

  /// Rolls the buffered deltas back (WriteSet::Rollback: undone deletes
  /// keep their ids), forces the log so a restart sees the rolled-back
  /// state, and leaves batch mode. The matcher hears nothing. Returns the
  /// rollback error when compensation failed, else the log error, else
  /// `cause` — as TxnManager::Abort does for a transaction.
  Status AbortBatch(Status cause = Status::OK());

  bool in_batch() const { return in_batch_; }
  /// Deltas buffered since BeginBatch, not yet seen by the matcher.
  const ChangeSet& pending() const { return writes_.changes(); }

  Catalog* catalog() const { return writes_.catalog(); }
  Matcher* matcher() const { return matcher_; }

 private:
  /// Outside a batch, hands what the call that returned `st` recorded to
  /// the matcher; returns `st`, else the flush error.
  Status AutoCommit(Status st);
  /// Hands the buffered deltas to the matcher, forgets them and the
  /// batch's heap reservations (and with them each heap's page hint),
  /// then forces the log.
  Status Flush();

  Matcher* matcher_;
  WriteSet writes_;
  bool in_batch_ = false;
};

}  // namespace prodb

#endif  // PRODB_ENGINE_WORKING_MEMORY_H_
