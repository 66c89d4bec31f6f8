#ifndef PRODB_TXN_WRITE_SET_H_
#define PRODB_TXN_WRITE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "common/tuple.h"
#include "db/catalog.h"

namespace prodb {

/// The one writer of catalog relations on behalf of working memory: it
/// applies Insert / Delete / Modify and records each in changes() the
/// moment it lands, so changes() is at once the undo log Rollback
/// inverts and the ∆ maintenance sees (§5.2). Transaction wraps it in 2PL
/// locks; WorkingMemory drives one with WAL id 0 (auto-commit) and hands
/// changes() to the matcher.
///
/// A modify is a deletion followed by an insertion (§3.1), recorded as a
/// linked pair. If the insertion fails, the deletion is undone before
/// Modify returns and nothing is recorded: a failed modify changes
/// nothing (should the undo fail too, the deletion is recorded like any
/// other that landed). Where a paged relation's tuples go is its heap's
/// decision (HeapFile "page choice"): an insert goes on the page of this
/// WriteSet's latest delete in that relation when it fits there — for a
/// modify, the old version's page — always under a new id. The choice
/// follows the operation sequence alone, so a modify spelled Delete then
/// Insert places exactly like Modify.
///
/// Not thread-safe: one thread writes through a WriteSet at a time.
class WriteSet {
 public:
  /// `wal_txn` attributes the WAL records every mutation generates (0 =
  /// auto-commit: redone at restart whenever intact in the log). Deletes
  /// keep the heap bytes they free reserved for this WriteSet's own undo
  /// until ReleaseReservations — under the transaction id, or for
  /// auto-commit under a key of this WriteSet's own — so Rollback always
  /// finds room for its restores.
  WriteSet(Catalog* catalog, uint64_t wal_txn);

  /// The new tuple's id goes to *id (and Modify's to *new_id) when given.
  Status Insert(const std::string& rel, const Tuple& t, TupleId* id);
  /// Records the tuple the relation hands back as it removes it.
  Status Delete(const std::string& rel, TupleId id);
  Status Modify(const std::string& rel, TupleId id, const Tuple& t,
                TupleId* new_id);

  /// The one compensation: applies changes().Inverse() to the relations,
  /// undone deletes through Relation::Restore so tuples keep their
  /// original ids. Best-effort: every step is attempted, and the first
  /// error (or "rollback incomplete: N of M") is returned. Always ends
  /// with changes() empty.
  Status Rollback();

  /// Forgets changes() once the batch they make up has been handed on;
  /// the next mutation starts a fresh batch.
  void Reset();

  /// Hands the heap space this WriteSet's deletes reserved back to every
  /// inserter, and has each heap forget this WriteSet's latest delete (its
  /// page hint); free when nothing paged was deleted.
  void ReleaseReservations();

  /// The mutations that have landed, in application order.
  const ChangeSet& changes() const { return changes_; }
  Catalog* catalog() const { return catalog_; }

 private:
  /// The relation named `rel` into *out; NotFound when there is none.
  Status Find(const std::string& rel, Relation** out) const;
  /// Deletes `id` from `r` (its tuple into *old, when given) and notes a
  /// paged relation as holding a reservation.
  Status DeleteFrom(Relation* r, TupleId id, Tuple* old = nullptr);

  Catalog* catalog_;
  uint64_t wal_txn_;
  uint64_t reservation_key_;
  ChangeSet changes_;
  // Paged relations whose heap holds bytes this WriteSet's deletes
  // freed, by name (a relation may be dropped meanwhile).
  std::vector<std::string> reserving_;
};

}  // namespace prodb

#endif  // PRODB_TXN_WRITE_SET_H_
