#ifndef PRODB_DB_RELATION_H_
#define PRODB_DB_RELATION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "db/predicate.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "storage/heap_file.h"

namespace prodb {

/// Storage backend of a relation.
enum class StorageKind {
  kMemory,  // std::map keyed by TupleId; fastest, volatile
  kPaged,   // slotted pages behind the buffer pool ("secondary storage")
};

/// A named relation: schema + tuple store + optional secondary indexes.
///
/// Relations back both working-memory classes (WM relations, §3.2) and the
/// bookkeeping structures of the matchers (COND, RULE-DEF, LEFT/RIGHT).
/// Secondary indexes are memory-resident and maintained synchronously on
/// every mutation. All operations are thread-safe; tuple-level isolation
/// across transactions is the lock manager's job, not the relation's.
class Relation {
 public:
  /// Memory-backed relation.
  explicit Relation(Schema schema);

  /// Paged relation over `pool`.
  static Status CreatePaged(Schema schema, BufferPool* pool,
                            std::unique_ptr<Relation>* out);

  /// Paged relation over an existing heap file rooted at `head_page_id`
  /// (restart: reattach to pages that survived recovery). Indexes are
  /// memory-resident, so any needed index must be re-created after open.
  static Status OpenPaged(Schema schema, BufferPool* pool,
                          uint32_t head_page_id,
                          std::unique_ptr<Relation>* out);

  /// First page of the paged backend (kNoPage sentinel for kMemory); the
  /// durable name a relation can be reopened by after restart.
  uint32_t head_page_id() const;

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  StorageKind storage_kind() const { return kind_; }

  /// A paged relation's heap chooses the page (HeapFile "page choice"):
  /// under a reservation key, the page of the key's latest delete first,
  /// so a modify's new version goes beside the version its delete just
  /// removed. The tuple always gets a new id.
  Status Insert(const Tuple& tuple, TupleId* id);
  Status Get(TupleId id, Tuple* out) const;
  /// True when `id` is live and holds `tuple`. A memory relation compares
  /// in place, copying nothing; a paged one decodes the record once.
  bool Contains(TupleId id, const Tuple& tuple) const;
  /// Removes the tuple at `id`; *old (when given) receives it.
  Status Delete(TupleId id, Tuple* old = nullptr);
  /// Re-inserts a previously deleted tuple under its original id.
  /// Deadlock compensation needs this: maintenance is deferred to the
  /// commit point, so matcher state recorded before the aborted
  /// transaction still references the old id — restoring by value alone
  /// would leave those references permanently stale. Fails with
  /// AlreadyExists if the id is live.
  Status Restore(TupleId id, const Tuple& tuple);

  /// Ends transaction `txn`'s heap-space reservations (its deletes keep
  /// the bytes they free for its own undo until then); a no-op for memory
  /// relations.
  void ReleaseReservations(uint64_t txn);

  size_t Count() const;
  /// Live tuples (== Count; named for symmetry with dead_slot_count).
  size_t live_tuple_count() const { return Count(); }
  /// Tombstoned heap-file slots that can never be reused (0 for kMemory,
  /// whose backing map erases rows outright). Page space leaks at 4
  /// directory bytes per deleted tuple — the price of TupleId stability;
  /// surfaced by bench_space.
  size_t dead_slot_count() const;
  /// Heap-page compactions so far (0 for kMemory); see
  /// HeapFile::compaction_count.
  uint64_t compaction_count() const;

  /// Full scan. `fn` returning non-OK aborts and propagates.
  Status Scan(const std::function<Status(TupleId, const Tuple&)>& fn) const;

  /// Tuples satisfying `sel` (uses an index for a leading equality test
  /// when one exists on that attribute).
  Status Select(const Selection& sel,
                std::vector<std::pair<TupleId, Tuple>>* out) const;

  /// ids with tuple[attr] == value, via hash index if present, B+-tree if
  /// present, else scan.
  Status LookupEq(int attr, const Value& value,
                  std::vector<TupleId>* out) const;

  /// --- Index management ------------------------------------------------
  Status CreateHashIndex(int attr);
  Status CreateBTreeIndex(int attr);
  bool HasHashIndex(int attr) const;
  bool HasBTreeIndex(int attr) const;
  BPlusTree* btree_index(int attr);

  /// Approximate total memory/disk footprint of tuples (space benchmarks).
  size_t FootprintBytes() const;

 private:
  Relation(Schema schema, StorageKind kind)
      : schema_(std::move(schema)), kind_(kind) {}

  void IndexInsert(const Tuple& t, TupleId id);
  void IndexRemove(const Tuple& t, TupleId id);

  Schema schema_;
  StorageKind kind_;

  mutable std::recursive_mutex mu_;

  // kMemory backend.
  std::map<TupleId, Tuple> rows_;
  uint32_t next_row_ = 0;
  size_t mem_bytes_ = 0;

  // kPaged backend.
  std::unique_ptr<HeapFile> heap_;

  // attr -> index.
  std::map<int, std::unique_ptr<HashIndex>> hash_indexes_;
  std::map<int, std::unique_ptr<BPlusTree>> btree_indexes_;
};

}  // namespace prodb

#endif  // PRODB_DB_RELATION_H_
