#ifndef PRODB_STORAGE_HEAP_FILE_H_
#define PRODB_STORAGE_HEAP_FILE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/page_layout.h"

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
/// Placement (DESIGN.md "Heap page choice") is decided here alone. Each
/// page's reclaimable bytes are kept incrementally, minus the bytes live
/// reservation keys hold for their own undo, and the page is filed in
/// the bucket of that available-byte count. Per reservation key the file
/// also keeps the key's latest delete in it: the page, and the record
/// bytes it freed there (the hole). An insert under a key tries that
/// page first (a modify's old page), then the tail page, then the
/// best-fitting page (the fullest that fits, the lowest page id among
/// equals), then a new page; no choice reads a page. Key 0
/// (auto-commit outside any scope) reserves nothing and gets no page
/// hint. Bytes a key's delete frees stay reserved for it (its own
/// inserts and restores may use them) until ReleaseReservations, which
/// also forgets its latest delete, so its rollback — at runtime or in
/// restart undo — always finds room for the before-images. On the chosen
/// page, an insert or restore writes its record into the key's hole when
/// it fits there (a modify's new version into its old version's bytes,
/// a rolled-back modify's old version back into them), and otherwise
/// into the free space, compacting the page if its free bytes are
/// scattered; PlaceRecordAtSlot (page_layout.h) does both.
class HeapFile {
 public:
  /// Creates a new heap file: allocates the head page.
  static Status Create(BufferPool* pool, std::unique_ptr<HeapFile>* out);

  /// Reopens an existing heap file rooted at `head_page_id`.
  static Status Open(BufferPool* pool, uint32_t head_page_id,
                     std::unique_ptr<HeapFile>* out);

  uint32_t head_page_id() const { return pages_.front(); }

  /// Appends `tuple`; returns its TupleId via *id. The tuple goes on the
  /// page of the current reservation key's latest delete when it fits
  /// there (see class comment), always under a new slot.
  Status Insert(const Tuple& tuple, TupleId* id);

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
  /// dead; the record is placed as an insert's is, into the key's hole
  /// when it fits there, else into the free space. Fails with
  /// AlreadyExists if the slot is live, and with IOError if the page
  /// lacks room — which cannot happen to a transaction restoring its own
  /// deletes in reverse order.
  Status Restore(TupleId id, const Tuple& tuple);

  /// Ends reservation key `txn`'s reservations in this file: the bytes
  /// its deletes freed become available to every inserter, and its latest
  /// delete (page hint and hole) is forgotten. Called when the
  /// transaction (or working-memory batch) commits or finishes aborting.
  void ReleaseReservations(uint64_t txn);

  /// Checks the free-space index against the pages: for every page, the
  /// kept free bytes equal ReclaimableFree, the reserved bytes equal the
  /// sum of the transactions' reservations, and the page is filed once,
  /// in the bucket of free − reserved, whose bitmap bits are set exactly
  /// for the non-empty buckets. Corruption names the first page that
  /// disagrees. Reads every page; meant for tests.
  Status VerifySpaceIndex() const;

  /// Number of live tuples.
  size_t TupleCount() const;

  /// Number of tombstoned slot-directory entries. Dead slots are never
  /// reused (see class comment), so a churn-heavy workload accumulates
  /// 4 bytes of directory per deleted tuple even though CompactPage
  /// reclaims the record bytes — the space side of keeping TupleIds
  /// stable for matcher bookkeeping and abort compensation.
  size_t dead_slot_count() const;

  /// Number of times an insert or restore compacted a page to make its
  /// free bytes contiguous. A modify whose new version fits in the bytes
  /// its delete freed compacts nothing, and neither does its rollback.
  uint64_t compaction_count() const;

  /// Number of pages owned by this file.
  size_t PageCount() const { return pages_.size(); }

  /// Invokes `fn(id, tuple)` for every live tuple; stops early and
  /// propagates if `fn` returns a non-OK status.
  Status Scan(const std::function<Status(TupleId, const Tuple&)>& fn) const;

 private:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  static constexpr uint32_t kNone = UINT32_MAX;
  /// One free-space bucket per available-byte count a page can have.
  static constexpr size_t kBuckets = kPageSize - kPageHeaderSize + 1;
  static constexpr size_t kBucketGroups = (kBuckets + 63) / 64;
  static_assert(kBucketGroups <= 64, "one summary word covers the groups");

  /// A page's space: reclaimable bytes (ReclaimableFree) and the part of
  /// them live transactions hold for their own undo, and how often the
  /// page has been compacted (records moved). `prev`/`next` link the page
  /// into the bucket of its available bytes (positions in spaces_);
  /// `holds` heads the list of the reservations on it (indices into
  /// holds_).
  struct PageSpace {
    uint16_t free = 0;
    uint16_t reserved = 0;
    uint32_t compactions = 0;
    uint32_t prev = kNone;
    uint32_t next = kNone;
    uint32_t holds = kNone;
    uint16_t available() const {
      return static_cast<uint16_t>(free - reserved);
    }
  };

  /// The bytes one reservation key's deletes freed on one page and its
  /// undo may need back. A hold is on its page's list and on its key's
  /// list until ReleaseReservations; a released hold is on the free list
  /// (through `next_of_key`) for the next reserving delete to reuse.
  struct Hold {
    uint64_t key = 0;
    uint32_t page = 0;  // position in spaces_
    uint16_t bytes = 0;
    uint32_t next_on_page = kNone;
    uint32_t next_of_key = kNone;
  };

  /// A reservation key's latest delete in this file: its page, the key's
  /// page hint, and the record bytes it freed there. The bytes stay dead,
  /// and no other writer places a record in them, until the page is next
  /// compacted; once the key writes a record into them the hole's length
  /// drops to 0, and the page stays the hint.
  struct LatestDelete {
    uint32_t page = 0;         // position in spaces_
    uint32_t compactions = 0;  // the page's count at the delete
    PageHole hole;
  };

  /// What the file keeps per reservation key between its first delete
  /// here and its ReleaseReservations.
  struct KeyState {
    LatestDelete latest;
    uint32_t holds = kNone;  // the key's holds, most recent first
  };

  Status AppendPage(uint32_t* pos);
  /// The position of `page_id` in this file, or kNone.
  uint32_t PositionOf(uint32_t page_id) const;
  /// Adds page `page_id` with `free` reclaimable bytes at the end.
  void AddPage(uint32_t page_id, uint16_t free);
  /// Bytes of `txn`'s reservation on page `pos` (0 for auto-commit).
  uint16_t Held(uint64_t txn, uint32_t pos) const;
  /// True when `txn` can place `rec` record bytes plus `dir` directory
  /// bytes on page `pos`: its own reservation covers up to `rec` bytes,
  /// the rest must be available to everyone.
  bool Fits(uint32_t pos, size_t rec, size_t dir, uint64_t txn) const;
  /// The position of the page an insert of `rec` bytes by `txn` goes
  /// to, or kNone when none fits (append a page).
  uint32_t ChoosePage(size_t rec, uint64_t txn) const;
  /// Best fit: the page with the least available bytes that still holds
  /// `need`, the lowest page id among equals; kNone when none does.
  uint32_t BestFit(uint16_t need) const;
  /// Accounts a placement Fits admitted: consumes `txn`'s reservation
  /// first.
  void Take(uint32_t pos, size_t rec, size_t dir, uint64_t txn);
  /// Accounts `bytes` freed on page `pos`, reserved for `txn` (whose
  /// state is `key`) unless it is auto-commit.
  void Free(uint32_t pos, size_t bytes, uint64_t txn, KeyState* key);
  /// Moves page `pos` to the bucket of its available bytes, which were
  /// `before` until its space changed.
  void Refile(uint32_t pos, uint16_t before);
  /// Links page `pos` into / out of the bucket for `available` bytes.
  void File(uint32_t pos, uint16_t available);
  void Unfile(uint32_t pos, uint16_t available);
  /// The head of the bucket for `available` bytes (allocating its group
  /// of 64 heads on first use).
  uint32_t& BucketHead(uint16_t available);
  /// Places `rec` under `slot` on the pinned page at `pos`, in `txn`'s
  /// hole when it is on that page and the record fits (PlaceRecordAtSlot),
  /// and counts a compaction (which forgets every hole on the page).
  /// False when the page lacks room.
  bool Place(char* page, uint32_t pos, uint16_t slot, const std::string& rec,
             uint64_t txn);

  BufferPool* pool_;
  mutable std::mutex mu_;
  std::vector<uint32_t> pages_;
  // Per page, in pages_ order (its position): space, links and holds.
  std::vector<PageSpace> spaces_;
  std::unordered_map<uint32_t, uint32_t> position_;  // page id -> position
  // The free-space index: a list of pages per available-byte count,
  // whose heads come in groups of 64 allocated on first use (a file of
  // a few pages, such as a paged token memory, holds a few groups, not
  // all 16 KB of heads); bit i of bucket_bits_[g] is set while bucket
  // 64g+i is non-empty, and bit g of bucket_groups_ while
  // bucket_bits_[g] is non-zero. Moving a page costs O(1); the best fit
  // is the first non-empty bucket at or above the need, two word scans
  // away.
  std::array<std::unique_ptr<uint32_t[]>, kBucketGroups> bucket_heads_;
  std::array<uint64_t, kBucketGroups> bucket_bits_{};
  uint64_t bucket_groups_ = 0;
  // Every hold, live or free; free ones chain from free_holds_.
  std::vector<Hold> holds_;
  uint32_t free_holds_ = kNone;
  std::unordered_map<uint64_t, KeyState> keys_;
  size_t live_tuples_ = 0;
  size_t dead_slots_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace prodb

#endif  // PRODB_STORAGE_HEAP_FILE_H_
