#ifndef PRODB_STORAGE_HEAP_FILE_H_
#define PRODB_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "storage/buffer_pool.h"

namespace prodb {

/// Unordered collection of variable-length tuples stored in slotted pages.
///
/// The page layout (header with next pointer, slot count, free end and
/// page LSN; slot directory growing up; records growing down) lives in
/// storage/page_layout.h, shared with WAL redo. A deleted slot has length
/// kDeadSlot and its record space is reclaimed by CompactPage when an
/// insertion would otherwise not fit. Dead slots are never reused for new
/// inserts — TupleIds are stable for the lifetime of the file (matcher
/// bookkeeping and abort compensation key on them); only Restore may
/// revive a dead slot, under its original id.
///
/// When the buffer pool has a WAL attached, every mutation appends a
/// physical log record and stamps the page LSN before unpinning, so the
/// pool's WAL rule can order log and page writes.
///
/// Pages of one heap file form a singly linked list through next_page_id,
/// so a file can be reopened from its head page id after restart.
///
/// Page choice (DESIGN.md "Heap page choice"): each page's reclaimable
/// bytes are kept incrementally, minus the bytes live transactions hold
/// for their own undo, in an index ordered by (available bytes, page).
/// An insert tries the caller's hint page (a modify's old page), then the
/// tail page, then the best-fitting page, then a new page: O(log pages)
/// whatever the file size. Bytes a transaction's (or a working-memory
/// batch's) delete frees stay reserved for it (its own inserts and
/// restores may use them) until ReleaseReservations, so its rollback — at
/// runtime or in restart undo — always finds room for the before-images.
/// On the chosen page, an insert writes its record into the bytes its
/// reservation key's latest delete freed there when it fits (a modify's
/// new version into its old version's bytes), and otherwise compacts the
/// page if its free bytes are scattered.
class HeapFile {
 public:
  /// Insert's "no placement hint".
  static constexpr uint32_t kAnyPage = UINT32_MAX;

  /// Creates a new heap file: allocates the head page.
  static Status Create(BufferPool* pool, std::unique_ptr<HeapFile>* out);

  /// Reopens an existing heap file rooted at `head_page_id`.
  static Status Open(BufferPool* pool, uint32_t head_page_id,
                     std::unique_ptr<HeapFile>* out);

  uint32_t head_page_id() const { return pages_.front(); }

  /// Appends `tuple`; returns its TupleId via *id. The tuple goes on
  /// `near_page` when it fits there (see class comment), always under a
  /// new slot.
  Status Insert(const Tuple& tuple, TupleId* id,
                uint32_t near_page = kAnyPage);

  /// Reads the tuple at `id` into *out.
  Status Get(TupleId id, Tuple* out) const;

  /// Tombstones the slot at `id` and, when `old` is given, decodes the
  /// tuple it held into *old from the page the delete fetches anyway (no
  /// second fetch). Space is reclaimed lazily; under a reservation key
  /// (CurrentReservationKey() != 0: a transaction, or a working-memory
  /// batch) the freed bytes are reserved for it.
  Status Delete(TupleId id, Tuple* old = nullptr);

  /// Revives the tombstoned slot at `id` with `tuple` (abort
  /// compensation). The slot directory entry must still exist and be
  /// dead; the record is rewritten into the page's free space, compacting
  /// first if needed. Fails with AlreadyExists if the slot is live, and
  /// with IOError if the page lacks room — which cannot happen to a
  /// transaction restoring its own deletes in reverse order.
  Status Restore(TupleId id, const Tuple& tuple);

  /// Ends reservation key `txn`'s reservations in this file: the bytes
  /// its deletes freed become available to every inserter. Called when
  /// the transaction (or working-memory batch) commits or finishes
  /// aborting.
  void ReleaseReservations(uint64_t txn);

  /// Checks the free-space index against the pages: for every page, the
  /// kept free bytes equal ReclaimableFree, the reserved bytes equal the
  /// sum of the transactions' reservations, and the ordered index holds
  /// (free − reserved, page). Corruption names the first page that
  /// disagrees. Reads every page; meant for tests.
  Status VerifySpaceIndex() const;

  /// Number of live tuples.
  size_t TupleCount() const;
  /// Alias of TupleCount, paired with dead_slot_count for space reports.
  size_t live_tuple_count() const { return TupleCount(); }

  /// Number of tombstoned slot-directory entries. Dead slots are never
  /// reused (see class comment), so a churn-heavy workload accumulates
  /// 4 bytes of directory per deleted tuple even though CompactPage
  /// reclaims the record bytes — the space side of keeping TupleIds
  /// stable for matcher bookkeeping and abort compensation.
  size_t dead_slot_count() const;

  /// Number of times an insert or restore compacted a page to make its
  /// free bytes contiguous. A modify whose new version fits in the bytes
  /// its delete freed compacts nothing.
  uint64_t compaction_count() const;

  /// Number of pages owned by this file.
  size_t PageCount() const { return pages_.size(); }

  /// Invokes `fn(id, tuple)` for every live tuple; stops early and
  /// propagates if `fn` returns a non-OK status.
  Status Scan(const std::function<Status(TupleId, const Tuple&)>& fn) const;

 private:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  /// A page's space: reclaimable bytes (ReclaimableFree) and the part of
  /// them live transactions hold for their own undo, and how often the
  /// page has been compacted (records moved).
  struct PageSpace {
    uint16_t free = 0;
    uint16_t reserved = 0;
    uint32_t compactions = 0;
    uint16_t available() const {
      return static_cast<uint16_t>(free - reserved);
    }
  };

  /// The record bytes a reservation key's latest delete freed. They stay
  /// dead, and no other writer places a record in them, until the page
  /// is next compacted.
  struct Hole {
    uint32_t page_id = 0;
    uint32_t compactions = 0;  // the page's count at the delete
    uint16_t offset = 0;
    uint16_t length = 0;
  };

  Status AppendPage(uint32_t* page_id);
  /// Bytes of `txn`'s reservation on `page_id` (0 for auto-commit).
  uint16_t Held(uint64_t txn, uint32_t page_id) const;
  /// True when `txn` can place `rec` record bytes plus `dir` directory
  /// bytes on `page_id`: its own reservation covers up to `rec` bytes,
  /// the rest must be available to everyone.
  bool Fits(uint32_t page_id, size_t rec, size_t dir, uint64_t txn) const;
  /// The page an insert of `rec` bytes by `txn` goes to, or kAnyPage
  /// when none fits (append a page).
  uint32_t ChoosePage(size_t rec, uint32_t near_page, uint64_t txn) const;
  /// Accounts a placement Fits admitted: consumes `txn`'s reservation
  /// first.
  void Take(uint32_t page_id, size_t rec, size_t dir, uint64_t txn);
  /// Accounts `bytes` freed on `page_id`, reserved for `txn` unless it is
  /// auto-commit.
  void Free(uint32_t page_id, size_t bytes, uint64_t txn);
  /// Sets a page's space and keeps the ordered index in step.
  void SetSpace(uint32_t page_id, PageSpace space);
  /// Counts a compaction of `page_id`: every hole on it is forgotten.
  void NoteCompaction(uint32_t page_id);
  /// Writes `rec` into `txn`'s hole when the hole is on `page_id`, still
  /// valid and large enough, and the directory has room for a new slot.
  /// Returns the new slot, or -1 to take the compacting path.
  int InsertIntoOwnHole(char* page, uint32_t page_id, const std::string& rec,
                        uint64_t txn);

  BufferPool* pool_;
  mutable std::mutex mu_;
  std::vector<uint32_t> pages_;
  std::unordered_map<uint32_t, PageSpace> space_;
  // (available bytes, page id), for best fit.
  std::set<std::pair<uint16_t, uint32_t>> by_available_;
  // (txn, page id) -> bytes that transaction's deletes freed there and
  // its undo may need back.
  std::map<std::pair<uint64_t, uint32_t>, uint16_t> held_;
  // Reservation key -> the hole its latest delete left.
  std::unordered_map<uint64_t, Hole> holes_;
  size_t live_tuples_ = 0;
  size_t dead_slots_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace prodb

#endif  // PRODB_STORAGE_HEAP_FILE_H_
