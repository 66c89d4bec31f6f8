#ifndef PRODB_STORAGE_BUFFER_POOL_H_
#define PRODB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"

namespace prodb {

/// A frame in the buffer pool holding one disk page.
struct Frame {
  uint32_t page_id = UINT32_MAX;
  int pin_count = 0;
  bool dirty = false;
  /// Start LSN **plus one** of the first WAL record that dirtied this
  /// page since it was last clean on disk (0 = no logged update pending
  /// writeback; the +1 keeps a record at LSN 0 — the first append of a
  /// fresh database — distinguishable from "clean"). The minimum over
  /// all frames is the checkpoint redo point: restart redo may skip
  /// everything below it.
  uint64_t rec_lsn = 0;
  /// The latest transaction whose logged update dirtied this page since
  /// it was read in (0 = none; auto-commit and structural records leave
  /// it as it is). Its writeback is a steal while that transaction has
  /// no commit or abort record.
  uint64_t txn_id = 0;
  /// Replacement-list links, kept by the pool: an unpinned resident
  /// frame sits between its less (`lru_prev`) and more recently used
  /// neighbours; other frames are not on the list.
  Frame* lru_prev = nullptr;
  Frame* lru_next = nullptr;
  char data[kPageSize] = {};
};

class LogManager;

/// Counters exposed for the I/O benchmarks (E3, E8).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Evictions abandoned because the dirty page could not be written; the
  /// page stays resident and dirty (fault-tolerance invariant).
  uint64_t writeback_failures = 0;
  /// WAL-rule log flushes forced by a page writeback.
  uint64_t log_forces = 0;
  /// Writebacks of a page whose latest dirtying transaction
  /// (Frame::txn_id) had no commit or abort record in the log yet
  /// (steal). Safe because the WAL rule forces the log — including the
  /// record's inline before-image — before the page reaches disk, so
  /// restart undo can always roll the transaction back.
  uint64_t pages_stolen = 0;
};

/// Fixed-capacity page cache with LRU replacement and pin counting.
///
/// All access to disk pages by the heap files and disk-backed indexes goes
/// through FetchPage/UnpinPage pairs. A pinned frame is never evicted; an
/// unpinned frame enters the LRU list and may be written back and reused.
/// Thread-safe via a single pool latch — adequate at our scale, and it
/// keeps the eviction logic obviously correct.
///
/// Nothing on the pin path allocates. The frames are one array; the page
/// table is an open-addressed array of (page id, frame) entries at least
/// twice the frame count, probed linearly, and since at most `capacity`
/// pages are resident it never fills and never grows. The LRU list is
/// threaded through the frames themselves (Frame::lru_prev/lru_next).
class BufferPool {
 public:
  /// `capacity` frames over `disk` (not owned unless passed as unique_ptr
  /// via the owning constructor below).
  BufferPool(size_t capacity, DiskManager* disk);
  BufferPool(size_t capacity, std::unique_ptr<DiskManager> disk);

  /// Pins page `page_id`, faulting it in from disk if needed. On success
  /// *frame points at the pinned frame; caller must UnpinPage it.
  Status FetchPage(uint32_t page_id, Frame** frame);

  /// Allocates a fresh page on disk and returns it pinned.
  Status NewPage(uint32_t* page_id, Frame** frame);

  /// Drops a pin; `dirty` marks the frame as modified.
  Status UnpinPage(uint32_t page_id, bool dirty);

  /// Writes a page back if it is resident and dirty.
  Status FlushPage(uint32_t page_id);

  /// Writes back every dirty resident page.
  Status FlushAll();

  /// Writes back dirty pages whose first dirtying record started below
  /// `lsn` (two-checkpoint rule: called with the previous checkpoint's
  /// LSN, it guarantees the next checkpoint's redo point lands at or
  /// past that checkpoint, so the live log stays bounded even when hot
  /// pages never age out of the LRU). Pages dirtied later stay dirty.
  Status FlushPagesDirtyBefore(uint64_t lsn);

  /// Frame-accounting invariant: every frame is exactly one of free,
  /// resident-unpinned (in the LRU list) or resident-pinned, and the page
  /// table / LRU bookkeeping agree. I/O failures must never leak frames —
  /// the fault sweep calls this after every injected fault.
  Status VerifyFrameAccounting() const;

  /// Checks that every clean resident frame's bytes match the on-disk
  /// image — a frame marked clean without a successful write (a silently
  /// dropped dirty page) shows up as divergence. Call with faults
  /// disarmed and no writer concurrently pinning pages.
  Status VerifyCleanFramesMatchDisk() const;

  size_t capacity() const { return frames_.size(); }
  /// A snapshot of the counters, taken under the pool latch.
  BufferPoolStats stats() const;
  DiskManager* disk() const { return disk_; }

  /// --- Write-ahead logging hooks ---------------------------------------
  /// Attaches the WAL. From then on the pool enforces the WAL rule: every
  /// page carries its LSN at kPageLsnOff (all pooled pages are slotted
  /// heap pages), and no dirty page is written back — by eviction or an
  /// explicit flush — before the log is durable up to that LSN.
  void SetWal(LogManager* wal);
  LogManager* wal() const { return wal_; }

  /// Records that the WAL record starting at `rec_start_lsn`, written by
  /// transaction `txn_id` (0 for auto-commit), dirtied `f` (caller holds
  /// the pin), under one latch acquisition. Keeps the frame's
  /// first-dirtier LSN for MinDirtyRecLsn, cleared whenever the frame's
  /// bytes reach disk, and a nonzero `txn_id` as the frame's latest
  /// dirtying transaction. That id does not block eviction — undo
  /// logging made stealing safe, so a transaction's write set may exceed
  /// pool capacity — it only attributes writebacks to pages_stolen,
  /// which asks the log whether the transaction has ended.
  void NoteLoggedUpdate(Frame* f, uint64_t rec_start_lsn, uint64_t txn_id);

  /// Redo low-water mark: the smallest first-dirtier start LSN over
  /// frames with logged updates not yet written back, or UINT64_MAX when
  /// there are none (no constraint). Everything below it is already
  /// durable in the heap, so a checkpoint may tell recovery to start
  /// redo here.
  uint64_t MinDirtyRecLsn() const;

 private:
  /// Finds a frame to (re)use: a free frame if any, else the LRU unpinned
  /// frame (writing it back if dirty). Returns nullptr if all are pinned.
  Frame* Victim(Status* status);

  /// Flushes the WAL up to `page`'s LSN (no-op without a WAL) and then
  /// writes the page. Shared by eviction and the flush entry points.
  Status WritePageWithWalRule(const Frame* f);
  /// Writes `f` back under the WAL rule and marks it clean, counting a
  /// steal.
  Status Clean(Frame* f);
  /// Whether writing `f` back now is a steal: its latest dirtying
  /// transaction has no commit or abort record in the log yet.
  bool Stolen(const Frame* f) const;

  /// One page-table entry; `page_id == kEmptySlot` marks a free entry.
  struct Slot {
    uint32_t page_id;
    uint32_t frame;  // index into frames_
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  // The entry page `page_id`'s probe run starts at.
  size_t Home(uint32_t page_id) const;
  // The entry holding `page_id`, or the free entry ending its probe run.
  size_t Probe(uint32_t page_id) const;
  // The resident frame holding `page_id`, or nullptr.
  Frame* Lookup(uint32_t page_id) const;
  // Files `f` under its page id, which must not be resident.
  void MapPage(Frame* f);
  // Drops `f`'s page-table entry and shifts the rest of its probe run
  // back, so no tombstones accumulate.
  void UnmapPage(const Frame* f);

  // The LRU list: `lru_head_` is the least recently used frame.
  void LruPushBack(Frame* f);
  void LruUnlink(Frame* f);

  mutable std::mutex mu_;
  DiskManager* disk_;
  LogManager* wal_ = nullptr;
  std::unique_ptr<DiskManager> owned_disk_;
  std::vector<Frame> frames_;  // never resized: frames stay put
  std::vector<Slot> table_;    // a power of two, >= 2 * capacity
  int shift_ = 64;             // 64 - log2(table_.size())
  size_t resident_ = 0;        // occupied page-table entries
  Frame* lru_head_ = nullptr;
  Frame* lru_tail_ = nullptr;
  size_t lru_size_ = 0;
  std::vector<Frame*> free_frames_;
  BufferPoolStats stats_;
};

}  // namespace prodb

#endif  // PRODB_STORAGE_BUFFER_POOL_H_
