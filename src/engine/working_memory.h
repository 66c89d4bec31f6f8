#ifndef PRODB_ENGINE_WORKING_MEMORY_H_
#define PRODB_ENGINE_WORKING_MEMORY_H_

#include <string>

#include "common/change_set.h"
#include "common/status.h"
#include "db/catalog.h"
#include "match/matcher.h"

namespace prodb {

/// Facade coupling WM relations to a matcher: every mutation of working
/// memory goes through here so the matcher sees each insertion and
/// deletion exactly once ("changes will trigger the maintenance
/// process", §5). Modifications are a deletion followed by an insertion,
/// as the paper (and OPS5) prescribe.
///
/// All mutations flow through ChangeSets. The single-tuple calls are
/// one-element batches; BeginBatch/CommitBatch let a caller (an engine
/// executing a whole RHS, or a bulk loader) accumulate deltas so the
/// matcher receives the entire set in one OnBatch — the §5.2 requirement
/// that maintenance sees a transaction's whole ∆ins/∆del before commit.
/// Relations are mutated eagerly even inside a batch (tuple ids must be
/// assigned and reads must see the writes); only the matcher notification
/// is deferred to CommitBatch.
class WorkingMemory {
 public:
  WorkingMemory(Catalog* catalog, Matcher* matcher)
      : catalog_(catalog), matcher_(matcher) {}

  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr);
  Status Delete(const std::string& cls, TupleId id);
  Status Modify(const std::string& cls, TupleId id, const Tuple& t,
                TupleId* new_id = nullptr);

  /// Starts buffering: subsequent Insert/Delete/Modify apply to relations
  /// immediately but defer matcher notification until CommitBatch.
  /// Batches do not nest.
  void BeginBatch();

  /// Flushes the buffered deltas to the matcher in one OnBatch call and
  /// leaves batch mode. No-op (still leaves batch mode) when empty.
  Status CommitBatch();

  /// Applies an externally built ChangeSet: every delta is applied to its
  /// relation (inserts get their assigned ids written back into *cs,
  /// deletes get the old tuple value filled in), then the matcher is
  /// notified once via OnBatch. Used for bulk loads; applying an
  /// Inverse() restores deleted tuples under their original ids.
  Status Apply(ChangeSet* cs);

  bool in_batch() const { return in_batch_; }
  /// Deltas buffered since BeginBatch, not yet seen by the matcher.
  const ChangeSet& pending() const { return pending_; }

  Catalog* catalog() const { return catalog_; }
  Matcher* matcher() const { return matcher_; }

 private:
  /// Applies one delta to its relation, resolving insert ids and delete
  /// tuple values in place.
  Status ApplyToRelation(Delta* d);

  /// Flushes the catalog's WAL, if any — the auto-commit durability
  /// point for mutations made outside a Transaction.
  Status ForceLog();

  Catalog* catalog_;
  Matcher* matcher_;
  bool in_batch_ = false;
  ChangeSet pending_;
};

}  // namespace prodb

#endif  // PRODB_ENGINE_WORKING_MEMORY_H_
