#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "storage/page_layout.h"
#include "storage/wal.h"

namespace prodb {

BufferPool::BufferPool(size_t capacity, DiskManager* disk)
    : disk_(disk), frames_(capacity) {
  const size_t entries = std::bit_ceil(std::max<size_t>(2, 2 * capacity));
  table_.assign(entries, Slot{kEmptySlot, 0});
  shift_ = 64 - std::countr_zero(entries);
  free_frames_.reserve(capacity);
  for (Frame& f : frames_) free_frames_.push_back(&f);
}

BufferPool::BufferPool(size_t capacity, std::unique_ptr<DiskManager> disk)
    : BufferPool(capacity, disk.get()) {
  owned_disk_ = std::move(disk);
}

size_t BufferPool::Home(uint32_t page_id) const {
  // Fibonacci hashing: page ids are dense, and the top bits of the
  // product spread neighbours across the table.
  return static_cast<size_t>((page_id * 0x9e3779b97f4a7c15ull) >> shift_);
}

size_t BufferPool::Probe(uint32_t page_id) const {
  const size_t mask = table_.size() - 1;
  size_t at = Home(page_id);
  while (table_[at].page_id != kEmptySlot && table_[at].page_id != page_id) {
    at = (at + 1) & mask;
  }
  return at;
}

Frame* BufferPool::Lookup(uint32_t page_id) const {
  const Slot& slot = table_[Probe(page_id)];
  if (slot.page_id == kEmptySlot) return nullptr;
  return const_cast<Frame*>(&frames_[slot.frame]);
}

void BufferPool::MapPage(Frame* f) {
  // At most capacity pages are resident in a table of at least twice as
  // many entries, so the probe always ends on a free entry.
  table_[Probe(f->page_id)] =
      Slot{f->page_id, static_cast<uint32_t>(f - frames_.data())};
  ++resident_;
}

void BufferPool::UnmapPage(const Frame* f) {
  const size_t mask = table_.size() - 1;
  size_t hole = Probe(f->page_id);
  --resident_;
  // Backward-shift deletion: move back into the hole each later entry of
  // the run whose home is not after the hole.
  for (size_t i = (hole + 1) & mask; table_[i].page_id != kEmptySlot;
       i = (i + 1) & mask) {
    if (((i - Home(table_[i].page_id)) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole].page_id = kEmptySlot;
}

void BufferPool::LruPushBack(Frame* f) {
  f->lru_prev = lru_tail_;
  f->lru_next = nullptr;
  (lru_tail_ != nullptr ? lru_tail_->lru_next : lru_head_) = f;
  lru_tail_ = f;
  ++lru_size_;
}

void BufferPool::LruUnlink(Frame* f) {
  (f->lru_prev != nullptr ? f->lru_prev->lru_next : lru_head_) = f->lru_next;
  (f->lru_next != nullptr ? f->lru_next->lru_prev : lru_tail_) = f->lru_prev;
  f->lru_prev = nullptr;
  f->lru_next = nullptr;
  --lru_size_;
}

Frame* BufferPool::Victim(Status* status) {
  *status = Status::OK();
  if (!free_frames_.empty()) {
    Frame* f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (lru_head_ == nullptr) {
    *status = Status::Internal("buffer pool exhausted: all frames pinned");
    return nullptr;
  }
  // Walk the LRU candidates oldest-first. A dirty candidate is only
  // evicted once its writeback succeeds; on failure it stays fully
  // resident (frame, page-table and LRU entries intact) so the only copy
  // of its data is preserved, and the next candidate is tried. If every
  // candidate's writeback fails, the first error is surfaced. Pages
  // dirtied by in-flight transactions are fair game (steal): the WAL
  // rule inside WritePageWithWalRule forces the log — and with it the
  // record's inline before-image — before the page hits disk, so restart
  // undo can always roll the transaction back.
  Status first_error;
  for (Frame* f = lru_head_; f != nullptr; f = f->lru_next) {
    if (f->dirty) {
      Status st = WritePageWithWalRule(f);
      if (!st.ok()) {
        ++stats_.writeback_failures;
        if (first_error.ok()) first_error = st;
        continue;
      }
      ++stats_.dirty_writebacks;
      if (Stolen(f)) ++stats_.pages_stolen;
      f->dirty = false;
      f->rec_lsn = 0;
    }
    LruUnlink(f);
    UnmapPage(f);
    ++stats_.evictions;
    return f;
  }
  if (first_error.ok()) {
    first_error = Status::Internal("buffer pool: no evictable frame");
  }
  *status = first_error;
  return nullptr;
}

Status BufferPool::WritePageWithWalRule(const Frame* f) {
  if (wal_ != nullptr) {
    Lsn lsn = PageLsn(f->data);
    if (lsn > wal_->flushed_lsn()) {
      PRODB_RETURN_IF_ERROR(wal_->FlushTo(lsn));
      ++stats_.log_forces;
    }
  }
  return disk_->WritePage(f->page_id, f->data);
}

void BufferPool::SetWal(LogManager* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
}

bool BufferPool::Stolen(const Frame* f) const {
  // The pool latch is held; the log's latch nests inside it, as in
  // WritePageWithWalRule.
  return f->txn_id != 0 && wal_ != nullptr && wal_->IsActive(f->txn_id);
}

void BufferPool::NoteLoggedUpdate(Frame* f, uint64_t rec_start_lsn,
                                  uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (f->rec_lsn == 0) f->rec_lsn = rec_start_lsn + 1;
  if (txn_id != 0) f->txn_id = txn_id;
}

uint64_t BufferPool::MinDirtyRecLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min_lsn = UINT64_MAX;
  for (const Frame& f : frames_) {
    if (f.rec_lsn != 0 && f.rec_lsn - 1 < min_lsn) {
      min_lsn = f.rec_lsn - 1;
    }
  }
  return min_lsn;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status BufferPool::FetchPage(uint32_t page_id, Frame** frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Frame* f = Lookup(page_id)) {
    // Pinned frames are not eviction candidates.
    if (f->pin_count == 0) LruUnlink(f);
    ++f->pin_count;
    ++stats_.hits;
    *frame = f;
    return Status::OK();
  }
  ++stats_.misses;
  Status st;
  Frame* f = Victim(&st);
  if (f == nullptr) return st;
  st = disk_->ReadPage(page_id, f->data);
  if (!st.ok()) {
    // The victim was already detached from the page table / LRU; hand it
    // back to the free list or the pool permanently loses a frame.
    f->page_id = UINT32_MAX;
    f->dirty = false;
    free_frames_.push_back(f);
    return st;
  }
  f->page_id = page_id;
  f->pin_count = 1;
  f->dirty = false;
  f->rec_lsn = 0;
  f->txn_id = 0;
  MapPage(f);
  *frame = f;
  return Status::OK();
}

Status BufferPool::NewPage(uint32_t* page_id, Frame** frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st;
  Frame* f = Victim(&st);
  if (f == nullptr) return st;
  st = disk_->AllocatePage(page_id);
  if (!st.ok()) {
    free_frames_.push_back(f);
    return st;
  }
  std::memset(f->data, 0, kPageSize);
  f->page_id = *page_id;
  f->pin_count = 1;
  f->dirty = true;
  f->rec_lsn = 0;
  f->txn_id = 0;
  MapPage(f);
  *frame = f;
  return Status::OK();
}

Status BufferPool::UnpinPage(uint32_t page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = Lookup(page_id);
  if (f == nullptr) {
    return Status::NotFound("unpin of non-resident page " +
                            std::to_string(page_id));
  }
  if (f->pin_count <= 0) {
    return Status::Internal("unpin of unpinned page " +
                            std::to_string(page_id));
  }
  f->dirty = f->dirty || dirty;
  if (--f->pin_count == 0) LruPushBack(f);
  return Status::OK();
}

Status BufferPool::Clean(Frame* f) {
  PRODB_RETURN_IF_ERROR(WritePageWithWalRule(f));
  if (Stolen(f)) ++stats_.pages_stolen;
  f->dirty = false;
  f->rec_lsn = 0;
  return Status::OK();
}

Status BufferPool::FlushPage(uint32_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = Lookup(page_id);
  if (f == nullptr || !f->dirty) return Status::OK();
  return Clean(f);
}

Status BufferPool::VerifyFrameAccounting() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pinned = 0;
  for (const Frame& f : frames_) {
    if (f.pin_count < 0) {
      return Status::Internal("frame accounting: negative pin count on page " +
                              std::to_string(f.page_id));
    }
    if (f.pin_count > 0) ++pinned;
  }
  if (free_frames_.size() + lru_size_ + pinned != frames_.size()) {
    return Status::Internal(
        "frame accounting: free " + std::to_string(free_frames_.size()) +
        " + lru " + std::to_string(lru_size_) + " + pinned " +
        std::to_string(pinned) + " != capacity " +
        std::to_string(frames_.size()));
  }
  if (resident_ != lru_size_ + pinned) {
    return Status::Internal(
        "frame accounting: page table " + std::to_string(resident_) +
        " != lru " + std::to_string(lru_size_) + " + pinned " +
        std::to_string(pinned));
  }
  // The page table: every entry names a frame holding its page, is
  // reachable from its home entry, and the count of entries is kept.
  const size_t mask = table_.size() - 1;
  size_t entries = 0;
  for (size_t at = 0; at < table_.size(); ++at) {
    const Slot& slot = table_[at];
    if (slot.page_id == kEmptySlot) continue;
    ++entries;
    if (slot.frame >= frames_.size() ||
        frames_[slot.frame].page_id != slot.page_id) {
      return Status::Internal("frame accounting: page table maps page " +
                              std::to_string(slot.page_id) +
                              " to a frame holding another");
    }
    for (size_t i = Home(slot.page_id); i != at; i = (i + 1) & mask) {
      if (table_[i].page_id == kEmptySlot) {
        return Status::Internal("frame accounting: page " +
                                std::to_string(slot.page_id) +
                                " unreachable in the page table");
      }
    }
  }
  if (entries != resident_) {
    return Status::Internal("frame accounting: page table holds " +
                            std::to_string(entries) + " entries, counted " +
                            std::to_string(resident_));
  }
  // The LRU list: linked both ways, lru_size_ long, unpinned resident
  // frames only.
  size_t listed = 0;
  const Frame* prev = nullptr;
  for (const Frame* f = lru_head_; f != nullptr; f = f->lru_next) {
    if (++listed > lru_size_ || f->lru_prev != prev) {
      return Status::Internal("frame accounting: LRU links broken at page " +
                              std::to_string(f->page_id));
    }
    if (f->pin_count != 0) {
      return Status::Internal("frame accounting: pinned frame in LRU, page " +
                              std::to_string(f->page_id));
    }
    if (Lookup(f->page_id) != f) {
      return Status::Internal(
          "frame accounting: LRU frame not in page table, page " +
          std::to_string(f->page_id));
    }
    prev = f;
  }
  if (listed != lru_size_ || lru_tail_ != prev) {
    return Status::Internal("frame accounting: lru list/size mismatch");
  }
  for (const Frame* f : free_frames_) {
    if (Lookup(f->page_id) == f) {
      return Status::Internal("frame accounting: free frame resident, page " +
                              std::to_string(f->page_id));
    }
  }
  return Status::OK();
}

Status BufferPool::VerifyCleanFramesMatchDisk() const {
  std::lock_guard<std::mutex> lock(mu_);
  char buf[kPageSize];
  for (const Slot& slot : table_) {
    if (slot.page_id == kEmptySlot) continue;
    const Frame& f = frames_[slot.frame];
    if (f.dirty) continue;
    PRODB_RETURN_IF_ERROR(disk_->ReadPage(slot.page_id, buf));
    if (std::memcmp(buf, f.data, kPageSize) != 0) {
      return Status::Corruption("clean frame diverges from disk, page " +
                                std::to_string(slot.page_id));
    }
  }
  return Status::OK();
}

Status BufferPool::FlushPagesDirtyBefore(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& slot : table_) {
    if (slot.page_id == kEmptySlot) continue;
    Frame* f = &frames_[slot.frame];
    if (f->dirty && f->rec_lsn != 0 && f->rec_lsn - 1 < lsn) {
      PRODB_RETURN_IF_ERROR(Clean(f));
    }
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& slot : table_) {
    if (slot.page_id == kEmptySlot) continue;
    Frame* f = &frames_[slot.frame];
    if (f->dirty) PRODB_RETURN_IF_ERROR(Clean(f));
  }
  return Status::OK();
}

}  // namespace prodb
