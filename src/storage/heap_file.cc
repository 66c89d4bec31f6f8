#include "storage/heap_file.h"

#include <algorithm>
#include <bit>
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
  pool->NoteLoggedUpdate(frame, start, rec.txn_id);
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
  hf->AddPage(page_id, static_cast<uint16_t>(kPageSize - kPageHeaderSize));
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
    hf->AddPage(pid, static_cast<uint16_t>(ReclaimableFree(frame->data)));
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

Status HeapFile::AppendPage(uint32_t* pos) {
  uint32_t page_id;
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->NewPage(&page_id, &frame));
  InitHeapPage(frame->data);
  LogAndStamp(pool_, frame, LogRecordType::kPageFormat, 0, {},
              UndoKind::kNone, {}, /*structural=*/true);
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(page_id, /*dirty=*/true));
  // Link from the current tail.
  uint32_t tail = pages_.back();
  Frame* tail_frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(tail, &tail_frame));
  SetPageNext(tail_frame->data, page_id);
  std::string link(4, '\0');
  std::memcpy(link.data(), &page_id, 4);
  LogAndStamp(pool_, tail_frame, LogRecordType::kPageLink, 0,
              std::move(link), UndoKind::kNone, {}, /*structural=*/true);
  PRODB_RETURN_IF_ERROR(pool_->UnpinPage(tail, /*dirty=*/true));
  *pos = static_cast<uint32_t>(pages_.size());
  AddPage(page_id, static_cast<uint16_t>(kPageSize - kPageHeaderSize));
  return Status::OK();
}

uint32_t HeapFile::PositionOf(uint32_t page_id) const {
  auto it = position_.find(page_id);
  return it == position_.end() ? kNone : it->second;
}

void HeapFile::AddPage(uint32_t page_id, uint16_t free) {
  const uint32_t pos = static_cast<uint32_t>(pages_.size());
  pages_.push_back(page_id);
  position_.emplace(page_id, pos);
  spaces_.push_back(PageSpace{free});
  File(pos, free);
}

uint16_t HeapFile::Held(uint64_t txn, uint32_t pos) const {
  if (txn == 0) return 0;
  for (uint32_t h = spaces_[pos].holds; h != kNone;
       h = holds_[h].next_on_page) {
    if (holds_[h].key == txn) return holds_[h].bytes;
  }
  return 0;
}

bool HeapFile::Fits(uint32_t pos, size_t rec, size_t dir,
                    uint64_t txn) const {
  size_t own = std::min<size_t>(Held(txn, pos), rec);
  return rec + dir - own <= spaces_[pos].available();
}

uint32_t HeapFile::ChoosePage(size_t rec, uint64_t txn) const {
  // The page of the key's latest delete here — a modify's old page: it is
  // hot in the pool and the key's own reservation there covers the
  // record.
  if (txn != 0) {
    auto it = keys_.find(txn);
    if (it != keys_.end() &&
        Fits(it->second.latest.page, rec, kSlotSize, txn)) {
      return it->second.latest.page;
    }
  }
  const uint32_t tail = static_cast<uint32_t>(pages_.size() - 1);
  if (Fits(tail, rec, kSlotSize, txn)) return tail;
  return BestFit(static_cast<uint16_t>(rec + kSlotSize));
}

uint32_t HeapFile::BestFit(uint16_t need) const {
  // The first non-empty bucket at or above `need`: within need's group,
  // then the first group after it with a non-empty bucket.
  size_t group = need / 64;
  uint64_t bits = bucket_bits_[group] & (~uint64_t{0} << (need % 64));
  if (bits == 0) {
    const uint64_t later =
        group + 1 < kBucketGroups
            ? bucket_groups_ & (~uint64_t{0} << (group + 1))
            : 0;
    if (later == 0) return kNone;
    group = static_cast<size_t>(std::countr_zero(later));
    bits = bucket_bits_[group];
  }
  const size_t bucket = group * 64 + std::countr_zero(bits);
  // The lowest page id among the bucket's pages.
  uint32_t best = bucket_heads_[group][bucket % 64];
  for (uint32_t pos = spaces_[best].next; pos != kNone;
       pos = spaces_[pos].next) {
    if (pages_[pos] < pages_[best]) best = pos;
  }
  return best;
}

void HeapFile::Take(uint32_t pos, size_t rec, size_t dir, uint64_t txn) {
  PageSpace& space = spaces_[pos];
  const uint16_t before = space.available();
  for (uint32_t h = txn == 0 ? kNone : space.holds; h != kNone;
       h = holds_[h].next_on_page) {
    Hold& held = holds_[h];
    if (held.key != txn) continue;
    // A hold drained to 0 stays listed until the key's release.
    const uint16_t own =
        static_cast<uint16_t>(std::min<size_t>(held.bytes, rec));
    held.bytes = static_cast<uint16_t>(held.bytes - own);
    space.reserved = static_cast<uint16_t>(space.reserved - own);
    break;
  }
  space.free = static_cast<uint16_t>(space.free - rec - dir);
  Refile(pos, before);
}

void HeapFile::Free(uint32_t pos, size_t bytes, uint64_t txn, KeyState* key) {
  if (bytes == 0) return;
  PageSpace& space = spaces_[pos];
  const uint16_t before = space.available();
  space.free = static_cast<uint16_t>(space.free + bytes);
  if (txn != 0) {
    uint32_t h = space.holds;
    while (h != kNone && holds_[h].key != txn) h = holds_[h].next_on_page;
    if (h == kNone) {
      if (free_holds_ != kNone) {
        h = free_holds_;
        free_holds_ = holds_[h].next_of_key;
      } else {
        h = static_cast<uint32_t>(holds_.size());
        holds_.emplace_back();
      }
      holds_[h] = Hold{txn, pos, 0, space.holds, key->holds};
      space.holds = h;
      key->holds = h;
    }
    holds_[h].bytes = static_cast<uint16_t>(holds_[h].bytes + bytes);
    space.reserved = static_cast<uint16_t>(space.reserved + bytes);
  }
  Refile(pos, before);  // a reserving delete leaves it where it is
}

void HeapFile::Refile(uint32_t pos, uint16_t before) {
  const uint16_t now = spaces_[pos].available();
  if (now == before) return;
  Unfile(pos, before);
  File(pos, now);
}

uint32_t& HeapFile::BucketHead(uint16_t available) {
  std::unique_ptr<uint32_t[]>& group = bucket_heads_[available / 64];
  if (group == nullptr) {
    group = std::make_unique<uint32_t[]>(64);
    std::fill_n(group.get(), 64, kNone);
  }
  return group[available % 64];
}

void HeapFile::File(uint32_t pos, uint16_t available) {
  uint32_t& head = BucketHead(available);
  PageSpace& space = spaces_[pos];
  space.prev = kNone;
  space.next = head;
  if (head != kNone) spaces_[head].prev = pos;
  head = pos;
  bucket_bits_[available / 64] |= uint64_t{1} << (available % 64);
  bucket_groups_ |= uint64_t{1} << (available / 64);
}

void HeapFile::Unfile(uint32_t pos, uint16_t available) {
  uint32_t& head = BucketHead(available);
  PageSpace& space = spaces_[pos];
  (space.prev != kNone ? spaces_[space.prev].next : head) = space.next;
  if (space.next != kNone) spaces_[space.next].prev = space.prev;
  if (head != kNone) return;
  uint64_t& bits = bucket_bits_[available / 64];
  bits &= ~(uint64_t{1} << (available % 64));
  if (bits == 0) bucket_groups_ &= ~(uint64_t{1} << (available / 64));
}

bool HeapFile::Place(char* page, uint32_t pos, uint16_t slot,
                     const std::string& rec, uint64_t txn) {
  PageHole* hole = nullptr;
  auto it = keys_.find(txn);
  if (it != keys_.end() && it->second.latest.page == pos &&
      it->second.latest.compactions == spaces_[pos].compactions) {
    hole = &it->second.latest.hole;
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
      ++spaces_[pos].compactions;
      ++compactions_;
      break;
    case Placed::kInFreeSpace:
      break;
  }
  return true;
}

void HeapFile::ReleaseReservations(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(txn);
  if (it == keys_.end()) return;
  for (uint32_t h = it->second.holds; h != kNone;) {
    Hold& held = holds_[h];
    PageSpace& space = spaces_[held.page];
    const uint16_t before = space.available();
    space.reserved = static_cast<uint16_t>(space.reserved - held.bytes);
    uint32_t* link = &space.holds;
    while (*link != h) link = &holds_[*link].next_on_page;
    *link = held.next_on_page;
    Refile(held.page, before);
    const uint32_t next = held.next_of_key;
    held.next_of_key = free_holds_;
    free_holds_ = h;
    h = next;
  }
  keys_.erase(it);
}

Status HeapFile::VerifySpaceIndex() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (spaces_.size() != pages_.size() || position_.size() != pages_.size()) {
    return Status::Corruption("free-space index tracks " +
                              std::to_string(spaces_.size()) + " of " +
                              std::to_string(pages_.size()) + " pages");
  }
  // The reservations, summed per page over the keys' lists; each hold is
  // also on its page's list, and the page lists hold nothing else.
  std::vector<size_t> held_on(pages_.size(), 0);
  size_t live_holds = 0;
  for (const auto& [key, state] : keys_) {
    for (uint32_t h = state.holds; h != kNone; h = holds_[h].next_of_key) {
      const Hold& held = holds_[h];
      bool listed = false;
      if (held.key == key && held.page < pages_.size()) {
        for (uint32_t o = spaces_[held.page].holds; o != kNone && !listed;
             o = holds_[o].next_on_page) {
          listed = o == h;
        }
      }
      if (!listed || ++live_holds > holds_.size()) {
        return Status::Corruption("a reservation of key " +
                                  std::to_string(key) +
                                  " is not on its page's list");
      }
      held_on[held.page] += held.bytes;
    }
  }
  // The buckets: every page filed once, under its available bytes, and
  // the bitmaps mark exactly the non-empty buckets.
  constexpr size_t kUnfiled = SIZE_MAX;
  std::vector<size_t> filed_under(pages_.size(), kUnfiled);
  for (size_t b = 0; b < kBuckets; ++b) {
    const auto& group = bucket_heads_[b / 64];
    const uint32_t head = group == nullptr ? kNone : group[b % 64];
    if (((bucket_bits_[b / 64] >> (b % 64)) & 1) != (head != kNone)) {
      return Status::Corruption("free-space bitmap disagrees with bucket " +
                                std::to_string(b));
    }
    uint32_t prev = kNone;
    for (uint32_t pos = head; pos != kNone; pos = spaces_[pos].next) {
      if (pos >= pages_.size() || filed_under[pos] != kUnfiled ||
          spaces_[pos].prev != prev) {
        return Status::Corruption("free-space bucket " + std::to_string(b) +
                                  " is not a list of distinct pages");
      }
      filed_under[pos] = b;
      prev = pos;
    }
  }
  for (size_t g = 0; g < kBucketGroups; ++g) {
    if (((bucket_groups_ >> g) & 1) != (bucket_bits_[g] != 0)) {
      return Status::Corruption("free-space summary disagrees with group " +
                                std::to_string(g));
    }
  }
  size_t page_holds = 0;
  for (uint32_t pos = 0; pos < pages_.size(); ++pos) {
    const uint32_t pid = pages_[pos];
    const PageSpace& space = spaces_[pos];
    if (PositionOf(pid) != pos) {
      return Status::Corruption("free-space index lacks page " +
                                std::to_string(pid));
    }
    for (uint32_t h = space.holds; h != kNone; h = holds_[h].next_on_page) {
      if (holds_[h].page != pos || ++page_holds > live_holds) {
        return Status::Corruption("page " + std::to_string(pid) +
                                  " lists a reservation not its own");
      }
    }
    Frame* frame;
    PRODB_RETURN_IF_ERROR(pool_->FetchPage(pid, &frame));
    size_t reclaimable = ReclaimableFree(frame->data);
    // A hole the page's compactions have not invalidated must still be
    // dead bytes: its key writes a record there without looking.
    bool holes_dead = true;
    for (const auto& [key, state] : keys_) {
      const LatestDelete& latest = state.latest;
      if (latest.page == pos && latest.compactions == space.compactions &&
          !BytesAreDead(frame->data, latest.hole.offset,
                        latest.hole.length)) {
        holes_dead = false;
      }
    }
    PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
    if (space.free != reclaimable || space.reserved > space.free ||
        space.reserved != held_on[pos] ||
        filed_under[pos] != space.available()) {
      return Status::Corruption("free-space index disagrees with page " +
                                std::to_string(pid));
    }
    if (!holes_dead) {
      return Status::Corruption("a remembered hole overlaps a live record "
                                "on page " + std::to_string(pid));
    }
  }
  if (page_holds != live_holds) {
    return Status::Corruption("page lists hold " +
                              std::to_string(page_holds) + " of " +
                              std::to_string(live_holds) + " reservations");
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
  uint32_t pos = ChoosePage(rec.size(), txn);
  if (pos == kNone) PRODB_RETURN_IF_ERROR(AppendPage(&pos));
  const uint32_t pid = pages_[pos];
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(pid, &frame));
  // The index admitted the page, so the record fits, under a new slot at
  // the end of the directory.
  const uint16_t slot = PageSlotCount(frame->data);
  if (!Place(frame->data, pos, slot, rec, txn)) {
    PRODB_RETURN_IF_ERROR(pool_->UnpinPage(pid, /*dirty=*/false));
    return Status::Internal("free-space index out of step with page " +
                            std::to_string(pid));
  }
  // Dead slots are never reused, so the slot was absent before: undo is
  // "clear it".
  LogAndStamp(pool_, frame, LogRecordType::kSlotPut, slot, rec,
              UndoKind::kClearSlot);
  Take(pos, rec.size(), kSlotSize, txn);
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
  const uint32_t pos = PositionOf(id.page_id);
  if (pos == kNone) return Status::NotFound("tuple " + id.ToString());
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(id.page_id, &frame));
  Status st = Status::OK();
  bool dirty = false;
  uint16_t slots = PageSlotCount(frame->data);
  size_t decoded = 0;
  if (id.slot_id >= slots || SlotLength(frame->data, id.slot_id) == kDeadSlot) {
    st = Status::NotFound("tuple " + id.ToString());
  } else if (old != nullptr &&
             !Tuple::DeserializeFrom(
                 frame->data + SlotOffset(frame->data, id.slot_id),
                 SlotLength(frame->data, id.slot_id), &decoded, old)) {
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
    KeyState& state = keys_[key];
    Free(pos, len, key, &state);
    state.latest =
        LatestDelete{pos, spaces_[pos].compactions, PageHole{off, len}};
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
  const uint32_t pos = PositionOf(id.page_id);
  if (pos == kNone) return Status::InvalidArgument("no slot " + id.ToString());
  Frame* frame;
  PRODB_RETURN_IF_ERROR(pool_->FetchPage(id.page_id, &frame));
  Status st = Status::OK();
  bool dirty = false;
  uint16_t slots = PageSlotCount(frame->data);
  if (id.slot_id >= slots) {
    st = Status::InvalidArgument("no slot " + id.ToString());
  } else if (SlotLength(frame->data, id.slot_id) != kDeadSlot) {
    st = Status::AlreadyExists("slot live " + id.ToString());
  } else if (!Fits(pos, rec.size(), 0, txn) ||
             !Place(frame->data, pos, static_cast<uint16_t>(id.slot_id), rec,
                    txn)) {
    st = Status::IOError("page full restoring " + id.ToString());
  } else {
    LogAndStamp(pool_, frame, LogRecordType::kSlotPut, id.slot_id, rec,
                UndoKind::kClearSlot);
    Take(pos, rec.size(), 0, txn);
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
