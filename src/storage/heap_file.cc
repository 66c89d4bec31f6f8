#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "storage/page_layout.h"
#include "storage/wal.h"

namespace prodb {

namespace {

// Appends a WAL record for a page mutation and stamps the page LSN. A
// no-op when the pool has no WAL attached. Structural records (page
// format / link) are always attributed to txn 0 — they are redone at
// restart regardless of transaction outcome (an extra formatted empty
// page is harmless). Data records carry the thread's current transaction
// id plus the slot's before-image (`undo_kind` / `undo`), which is what
// lets the pool steal the page later: the WAL rule forces this record —
// undo info included — to disk before the page, so restart undo can
// always roll a loser back. Auto-commit records (txn 0) are never undone
// and skip the before-image to keep the log lean.
void LogAndStamp(BufferPool* pool, Frame* frame, LogRecordType type,
                 uint32_t slot, std::string data,
                 UndoKind undo_kind = UndoKind::kNone, std::string undo = {},
                 bool structural = false) {
  LogManager* wal = pool->wal();
  if (wal == nullptr) return;
  LogRecord rec;
  rec.type = type;
  rec.txn_id = structural ? 0 : CurrentWalTxn();
  rec.page_id = frame->page_id;
  rec.slot = slot;
  rec.data = std::move(data);
  if (rec.txn_id != 0) {
    rec.undo_kind = undo_kind;
    rec.undo = std::move(undo);
  }
  Lsn start = 0;
  Lsn lsn = wal->Append(rec, &start);
  SetPageLsn(frame->data, lsn);
  pool->NoteLoggedUpdate(frame, start);
  if (rec.txn_id != 0) pool->MarkTxnPage(rec.txn_id, rec.page_id);
}

// True when no live record of `page` shares a byte with the `length`
// bytes at `offset`, and they lie in the record area.
bool BytesAreDead(const char* page, uint16_t offset, uint16_t length) {
  const uint16_t slots = PageSlotCount(page);
  if (offset < kPageHeaderSize + slots * kSlotSize ||
      offset + length > kPageSize) {
    return false;
  }
  for (uint16_t s = 0; s < slots; ++s) {
    const uint16_t len = SlotLength(page, s);
    if (len == kDeadSlot) continue;
    const uint16_t off = SlotOffset(page, s);
    if (off < offset + length && offset < off + len) return false;
  }
  return true;
}

}  // namespace

Status HeapFile::Create(BufferPool* pool, std::unique_ptr<HeapFile>* out) {
  auto hf = std::unique_ptr<HeapFile>(new HeapFile(pool));
  uint32_t page_id;
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool->NewPage(&page_id, &frame));
  InitHeapPage(frame->data);
  LogAndStamp(pool, frame, LogRecordType::kPageFormat, 0, {},
              UndoKind::kNone, {}, /*structural=*/true);
  PRODB_RETURN_IF_ERROR(pool->UnpinPage(page_id, /*dirty=*/true));
  hf->pages_.push_back(page_id);
  hf->SetSpace(page_id,
               PageSpace{static_cast<uint16_t>(kPageSize - kPageHeaderSize)});
  *out = std::move(hf);
  return Status::OK();
}

Status HeapFile::Open(BufferPool* pool, uint32_t head_page_id,
                      std::unique_ptr<HeapFile>* out) {
  auto hf = std::unique_ptr<HeapFile>(new HeapFile(pool));
  uint32_t pid = head_page_id;
  while (pid != kNoPage) {
    Frame* frame;
    PRODB_RETURN_IF_ERROR(pool->FetchPage(pid, &frame));
    hf->pages_.push_back(pid);
    hf->SetSpace(pid, PageSpace{static_cast<uint16_t>(
                          ReclaimableFree(frame->data))});
    uint16_t slots = PageSlotCount(frame->data);
    for (uint16_t s = 0; s < slots; ++s) {
      if (SlotLength(frame->data, s) != kDeadSlot) {
        ++hf->live_tuples_;
      } else {
        ++hf->dead_slots_;
      }
    }
    uint32_t next = PageNext(frame->data);
    PRODB_RETURN_IF_ERROR(pool->UnpinPage(pid, /*dirty=*/false));
    pid = next;
  }
  if (hf->pages_.empty()) {
    return Status::InvalidArgument("heap file has no pages");
  }
  *out = std::move(hf);
  return Status::OK();
}

Status HeapFile::AppendPage(uint32_t* page_id) {
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->NewPage(page_id, &frame));
  InitHeapPage(frame->data);
  LogAndStamp(pool_, frame, LogRecordType::kPageFormat, 0, {},
              UndoKind::kNone, {}, /*structural=*/true);
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(*page_id, /*dirty=*/true));
  // Link from the current tail.
  uint32_t tail = pages_.back();
  Frame* tail_frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(tail, &tail_frame));
  SetPageNext(tail_frame->data, *page_id);
  std::string link(4, '\0');
  std::memcpy(link.data(), page_id, 4);
  LogAndStamp(pool_, tail_frame, LogRecordType::kPageLink, 0,
              std::move(link), UndoKind::kNone, {}, /*structural=*/true);
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(tail, /*dirty=*/true));
  pages_.push_back(*page_id);
  SetSpace(*page_id,
           PageSpace{static_cast<uint16_t>(kPageSize - kPageHeaderSize)});
  return Status::OK();
}

uint16_t HeapFile::Held(uint64_t txn, uint32_t page_id) const {
  if (txn == 0) return 0;
  auto it = held_.find({txn, page_id});
  return it == held_.end() ? 0 : it->second;
}

bool HeapFile::Fits(uint32_t page_id, size_t rec, size_t dir,
                    uint64_t txn) const {
  auto it = space_.find(page_id);
  if (it == space_.end()) return false;
  size_t own = std::min<size_t>(Held(txn, page_id), rec);
  return rec + dir - own <= it->second.available();
}

uint32_t HeapFile::ChoosePage(size_t rec, uint64_t txn) const {
  // The page of the key's latest delete here — a modify's old page: it is
  // hot in the pool and the key's own reservation there covers the
  // record.
  if (txn != 0) {
    auto it = latest_deletes_.find(txn);
    if (it != latest_deletes_.end() &&
        Fits(it->second.page_id, rec, kSlotSize, txn)) {
      return it->second.page_id;
    }
  }
  if (Fits(pages_.back(), rec, kSlotSize, txn)) return pages_.back();
  // Best fit: the page with the least room that still holds the record.
  auto it = by_available_.lower_bound(
      {static_cast<uint16_t>(rec + kSlotSize), 0});
  return it == by_available_.end() ? kNoPage : it->second;
}

void HeapFile::Take(uint32_t page_id, size_t rec, size_t dir, uint64_t txn) {
  PageSpace space = space_.at(page_id);
  auto held = txn == 0 ? held_.end() : held_.find({txn, page_id});
  if (held != held_.end()) {
    uint16_t own = static_cast<uint16_t>(std::min<size_t>(held->second, rec));
    held->second = static_cast<uint16_t>(held->second - own);
    space.reserved = static_cast<uint16_t>(space.reserved - own);
    if (held->second == 0) held_.erase(held);
  }
  space.free = static_cast<uint16_t>(space.free - rec - dir);
  SetSpace(page_id, space);
}

void HeapFile::Free(uint32_t page_id, size_t bytes, uint64_t txn) {
  if (bytes == 0) return;
  PageSpace space = space_.at(page_id);
  space.free = static_cast<uint16_t>(space.free + bytes);
  if (txn != 0) {
    uint16_t& held = held_[{txn, page_id}];
    held = static_cast<uint16_t>(held + bytes);
    space.reserved = static_cast<uint16_t>(space.reserved + bytes);
  }
  SetSpace(page_id, space);
}

void HeapFile::SetSpace(uint32_t page_id, PageSpace space) {
  auto [it, fresh] = space_.try_emplace(page_id, space);
  if (fresh) {
    by_available_.emplace(space.available(), page_id);
    return;
  }
  if (it->second.available() == space.available()) {  // e.g. a reserving delete
    it->second = space;
    return;
  }
  // Re-key the page's index entry in place: no allocation per mutation.
  auto node = by_available_.extract({it->second.available(), page_id});
  it->second = space;
  node.value().first = space.available();
  by_available_.insert(std::move(node));
}

bool HeapFile::Place(char* page, uint32_t page_id, uint16_t slot,
                     const std::string& rec, uint64_t txn) {
  PageHole* hole = nullptr;
  auto it = latest_deletes_.find(txn);
  if (it != latest_deletes_.end() && it->second.page_id == page_id &&
      it->second.compactions == space_.at(page_id).compactions) {
    hole = &it->second.hole;
  }
  switch (PlaceRecordAtSlot(page, slot, rec, hole)) {
    case Placed::kNoRoom:
      return false;
    case Placed::kInHole:
      // A smaller record leaves the rest of the hole dead until the page
      // is next compacted.
      hole->length = 0;
      break;
    case Placed::kAfterCompaction:
      ++space_.at(page_id).compactions;
      ++compactions_;
      break;
    case Placed::kInFreeSpace:
      break;
  }
  return true;
}

void HeapFile::ReleaseReservations(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  latest_deletes_.erase(txn);
  auto it = held_.lower_bound({txn, 0});
  while (it != held_.end() && it->first.first == txn) {
    PageSpace space = space_.at(it->first.second);
    space.reserved = static_cast<uint16_t>(space.reserved - it->second);
    SetSpace(it->first.second, space);
    it = held_.erase(it);
  }
}

Status HeapFile::VerifySpaceIndex() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint32_t, size_t> held_on;
  for (const auto& [key, bytes] : held_) held_on[key.second] += bytes;
  if (space_.size() != pages_.size() ||
      by_available_.size() != pages_.size()) {
    return Status::Corruption("free-space index tracks " +
                              std::to_string(by_available_.size()) + " of " +
                              std::to_string(pages_.size()) + " pages");
  }
  for (uint32_t pid : pages_) {
    auto it = space_.find(pid);
    if (it == space_.end()) {
      return Status::Corruption("free-space index lacks page " +
                                std::to_string(pid));
    }
    Frame* frame;
    PRODB_RETURN_IF_ERROR(pool_->FetchPage(pid, &frame));
    size_t reclaimable = ReclaimableFree(frame->data);
    // A hole the page's compactions have not invalidated must still be
    // dead bytes: its key writes a record there without looking.
    bool holes_dead = true;
    for (const auto& [key, latest] : latest_deletes_) {
      if (latest.page_id == pid &&
          latest.compactions == it->second.compactions &&
          !BytesAreDead(frame->data, latest.hole.offset,
                        latest.hole.length)) {
        holes_dead = false;
      }
    }
    PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
    if (it->second.free != reclaimable ||
        it->second.reserved > it->second.free ||
        it->second.reserved != held_on[pid] ||
        by_available_.count({it->second.available(), pid}) == 0) {
      return Status::Corruption("free-space index disagrees with page " +
                                std::to_string(pid));
    }
    if (!holes_dead) {
      return Status::Corruption("a remembered hole overlaps a live record "
                                "on page " + std::to_string(pid));
    }
  }
  return Status::OK();
}

Status HeapFile::Insert(const Tuple& tuple, TupleId* id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string rec;
  tuple.SerializeTo(&rec);
  if (rec.size() > kPageSize - kPageHeaderSize - kSlotSize) {
    return Status::InvalidArgument("tuple larger than a page");
  }
  const uint64_t txn = CurrentReservationKey();
  uint32_t pid = ChoosePage(rec.size(), txn);
  if (pid == kNoPage) PRODB_RETURN_IF_ERROR(AppendPage(&pid));
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(pid, &frame));
  // The index admitted the page, so the record fits, under a new slot at
  // the end of the directory.
  const uint16_t slot = PageSlotCount(frame->data);
  if (!Place(frame->data, pid, slot, rec, txn)) {
    PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
    return Status::Internal("free-space index out of step with page " +
                            std::to_string(pid));
  }
  // Dead slots are never reused, so the slot was absent before: undo is
  // "clear it".
  LogAndStamp(pool_, frame, LogRecordType::kSlotPut, slot, rec,
              UndoKind::kClearSlot);
  Take(pid, rec.size(), kSlotSize, txn);
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/true));
  id->page_id = pid;
  id->slot_id = slot;
  ++live_tuples_;
  return Status::OK();
}

Status HeapFile::Get(TupleId id, Tuple* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(id.page_id, &frame));
  Status st = Status::OK();
  uint16_t slots = PageSlotCount(frame->data);
  if (id.slot_id >= slots || SlotLength(frame->data, id.slot_id) == kDeadSlot) {
    st = Status::NotFound("tuple " + id.ToString());
  } else {
    size_t off = SlotOffset(frame->data, id.slot_id);
    size_t len = SlotLength(frame->data, id.slot_id);
    size_t pos = 0;
    if (!Tuple::DeserializeFrom(frame->data + off, len, &pos, out)) {
      st = Status::Corruption("bad tuple encoding at " + id.ToString());
    }
  }
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(id.page_id, /*dirty=*/false));
  return st;
}

Status HeapFile::Delete(TupleId id, Tuple* old) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(id.page_id, &frame));
  Status st = Status::OK();
  bool dirty = false;
  uint16_t slots = PageSlotCount(frame->data);
  size_t pos = 0;
  if (id.slot_id >= slots || SlotLength(frame->data, id.slot_id) == kDeadSlot) {
    st = Status::NotFound("tuple " + id.ToString());
  } else if (old != nullptr &&
             !Tuple::DeserializeFrom(
                 frame->data + SlotOffset(frame->data, id.slot_id),
                 SlotLength(frame->data, id.slot_id), &pos, old)) {
    st = Status::Corruption("bad tuple encoding at " + id.ToString());
  } else {
    // Before-image first: once the slot is tombstoned the bytes are
    // unreachable, and undo must be able to put them back.
    uint16_t off = SlotOffset(frame->data, id.slot_id);
    uint16_t len = SlotLength(frame->data, id.slot_id);
    std::string before(frame->data + off, len);
    SetSlot(frame->data, static_cast<uint16_t>(id.slot_id), 0, kDeadSlot);
    LogAndStamp(pool_, frame, LogRecordType::kSlotDelete, id.slot_id, {},
                UndoKind::kRestore, std::move(before));
    const uint64_t key = CurrentReservationKey();
    Free(id.page_id, len, key);
    latest_deletes_.insert_or_assign(
        key, LatestDelete{id.page_id, space_.at(id.page_id).compactions,
                          PageHole{off, len}});
    --live_tuples_;
    ++dead_slots_;
    dirty = true;
  }
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(id.page_id, dirty));
  return st;
}

Status HeapFile::Restore(TupleId id, const Tuple& tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string rec;
  tuple.SerializeTo(&rec);
  const uint64_t txn = CurrentReservationKey();
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(id.page_id, &frame));
  Status st = Status::OK();
  bool dirty = false;
  uint16_t slots = PageSlotCount(frame->data);
  if (id.slot_id >= slots) {
    st = Status::InvalidArgument("no slot " + id.ToString());
  } else if (SlotLength(frame->data, id.slot_id) != kDeadSlot) {
    st = Status::AlreadyExists("slot live " + id.ToString());
  } else if (!Fits(id.page_id, rec.size(), 0, txn) ||
             !Place(frame->data, id.page_id,
                    static_cast<uint16_t>(id.slot_id), rec, txn)) {
    st = Status::IOError("page full restoring " + id.ToString());
  } else {
    LogAndStamp(pool_, frame, LogRecordType::kSlotPut, id.slot_id, rec,
                UndoKind::kClearSlot);
    Take(id.page_id, rec.size(), 0, txn);
    ++live_tuples_;
    if (dead_slots_ > 0) --dead_slots_;
    dirty = true;
  }
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(id.page_id, dirty));
  return st;
}

size_t HeapFile::TupleCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_tuples_;
}

size_t HeapFile::dead_slot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_slots_;
}

uint64_t HeapFile::compaction_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

Status HeapFile::Scan(
    const std::function<Status(TupleId, const Tuple&)>& fn) const {
  std::vector<uint32_t> pages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pages = pages_;
  }
  for (uint32_t pid : pages) {
    Frame* frame;
    PRODB_RETURN_IF_ERROR(pool_->FetchPage(pid, &frame));
    // Copy out the live tuples, then unpin before invoking callbacks so a
    // callback that re-enters the heap file cannot deadlock on the pin.
    std::vector<std::pair<TupleId, Tuple>> batch;
    Status st = Status::OK();
    uint16_t slots = PageSlotCount(frame->data);
    for (uint16_t s = 0; s < slots && st.ok(); ++s) {
      uint16_t len = SlotLength(frame->data, s);
      if (len == kDeadSlot) continue;
      uint16_t off = SlotOffset(frame->data, s);
      Tuple t;
      size_t pos = 0;
      if (!Tuple::DeserializeFrom(frame->data + off, len, &pos, &t)) {
        st = Status::Corruption("bad tuple encoding in page " +
                                std::to_string(pid));
        break;
      }
      batch.emplace_back(TupleId{pid, s}, std::move(t));
    }
    PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
    PRODB_RETURN_IF_ERROR(st);
    for (auto& [id, t] : batch) {
      PRODB_RETURN_IF_ERROR(fn(id, t));
    }
  }
  return Status::OK();
}

}  // namespace prodb
