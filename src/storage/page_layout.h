#ifndef PRODB_STORAGE_PAGE_LAYOUT_H_
#define PRODB_STORAGE_PAGE_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "storage/disk_manager.h"

namespace prodb {

/// Shared slotted-page layout, used by HeapFile for normal operation and
/// by WAL redo (storage/recovery.cc), which must re-apply slot-level log
/// records onto raw pages without a HeapFile in hand.
///
/// Page layout:
///   [u32 next_page_id][u16 slot_count][u16 free_end][u64 page_lsn]
///   [slot 0][slot 1]... free ...            [record k]...[record 0]
/// where each slot is (u16 offset, u16 length). Records grow downward
/// from the end of the page; the slot directory grows upward. The page
/// LSN is the log sequence number of the last WAL record applied to the
/// page (0 = never logged); BufferPool enforces the WAL rule against it
/// before any writeback.

inline constexpr size_t kPageNextOff = 0;      // u32
inline constexpr size_t kPageSlotCountOff = 4; // u16
inline constexpr size_t kPageFreeEndOff = 6;   // u16
inline constexpr size_t kPageLsnOff = 8;       // u64
inline constexpr size_t kPageHeaderSize = 16;
inline constexpr size_t kSlotSize = 4;  // u16 offset + u16 length
inline constexpr uint16_t kDeadSlot = 0xFFFF;
inline constexpr uint32_t kNoPage = UINT32_MAX;

inline uint16_t GetU16(const char* p, size_t off) {
  uint16_t v;
  std::memcpy(&v, p + off, 2);
  return v;
}
inline void PutU16(char* p, size_t off, uint16_t v) {
  std::memcpy(p + off, &v, 2);
}
inline uint32_t GetU32(const char* p, size_t off) {
  uint32_t v;
  std::memcpy(&v, p + off, 4);
  return v;
}
inline void PutU32(char* p, size_t off, uint32_t v) {
  std::memcpy(p + off, &v, 4);
}
inline uint64_t GetU64(const char* p, size_t off) {
  uint64_t v;
  std::memcpy(&v, p + off, 8);
  return v;
}
inline void PutU64(char* p, size_t off, uint64_t v) {
  std::memcpy(p + off, &v, 8);
}

inline uint32_t PageNext(const char* page) { return GetU32(page, kPageNextOff); }
inline void SetPageNext(char* page, uint32_t next) {
  PutU32(page, kPageNextOff, next);
}
inline uint16_t PageSlotCount(const char* page) {
  return GetU16(page, kPageSlotCountOff);
}
inline uint64_t PageLsn(const char* page) { return GetU64(page, kPageLsnOff); }
inline void SetPageLsn(char* page, uint64_t lsn) {
  PutU64(page, kPageLsnOff, lsn);
}

inline uint16_t SlotOffset(const char* page, uint16_t slot) {
  return GetU16(page, kPageHeaderSize + slot * kSlotSize);
}
inline uint16_t SlotLength(const char* page, uint16_t slot) {
  return GetU16(page, kPageHeaderSize + slot * kSlotSize + 2);
}
inline void SetSlot(char* page, uint16_t slot, uint16_t offset,
                    uint16_t length) {
  PutU16(page, kPageHeaderSize + slot * kSlotSize, offset);
  PutU16(page, kPageHeaderSize + slot * kSlotSize + 2, length);
}

inline void InitHeapPage(char* page) {
  SetPageNext(page, kNoPage);
  PutU16(page, kPageSlotCountOff, 0);
  PutU16(page, kPageFreeEndOff, static_cast<uint16_t>(kPageSize));
  SetPageLsn(page, 0);
}

/// True when the header fields are internally consistent — a zero-filled
/// (never formatted) page fails this, which is how crash recovery and
/// restart code distinguish a durable heap page from one whose format
/// record never reached the log.
inline bool HeapPageLooksFormatted(const char* page) {
  uint16_t free_end = GetU16(page, kPageFreeEndOff);
  uint16_t slots = PageSlotCount(page);
  return free_end >= kPageHeaderSize + slots * kSlotSize &&
         free_end <= kPageSize;
}

/// Contiguous free bytes between the slot directory and the record area.
inline size_t ContiguousFree(const char* page) {
  uint16_t slots = PageSlotCount(page);
  uint16_t free_end = GetU16(page, kPageFreeEndOff);
  size_t dir_end = kPageHeaderSize + slots * kSlotSize;
  return free_end > dir_end ? free_end - dir_end : 0;
}

/// Free bytes counting dead-record space that compaction can recover.
inline size_t ReclaimableFree(const char* page) {
  uint16_t slots = PageSlotCount(page);
  size_t used = 0;
  for (uint16_t s = 0; s < slots; ++s) {
    if (SlotLength(page, s) != kDeadSlot) used += SlotLength(page, s);
  }
  size_t dir_end = kPageHeaderSize + slots * kSlotSize;
  return kPageSize - dir_end - used;
}

/// Moves all live records to the end of the page, squeezing out holes left
/// by deletions. Slot ids are preserved.
inline void CompactPage(char* page) {
  uint16_t slots = PageSlotCount(page);
  char buf[kPageSize];
  size_t write_end = kPageSize;
  // First copy records out to avoid overlapping-move hazards.
  std::memcpy(buf, page, kPageSize);
  for (uint16_t s = 0; s < slots; ++s) {
    uint16_t len = SlotLength(buf, s);
    if (len == kDeadSlot || len == 0) continue;
    uint16_t off = SlotOffset(buf, s);
    write_end -= len;
    std::memcpy(page + write_end, buf + off, len);
    SetSlot(page, s, static_cast<uint16_t>(write_end), len);
  }
  PutU16(page, kPageFreeEndOff, static_cast<uint16_t>(write_end));
}

/// Record bytes on a page that the caller knows no live record overlaps:
/// the bytes a delete freed, until the page is next compacted.
struct PageHole {
  uint16_t offset = 0;
  uint16_t length = 0;
};

/// Where PlaceRecordAtSlot put a record.
enum class Placed {
  kNoRoom,           // too big for the page even after compaction
  kInHole,           // into the caller's hole; no record moved
  kInFreeSpace,      // into the contiguous free space
  kAfterCompaction,  // into the free space, after compacting the page
};

/// The one placement routine: puts `rec` under directory entry `slot`
/// for an insert (slot = the slot count, a new entry), a restore (the
/// dead slot it revives), WAL redo and CLR undo (the slot the log record
/// names). A directory shorter than `slot` grows, the entries in between
/// dead. A live slot is tombstoned first. The record goes into `hole`
/// when one is given and the record fits it (the rest of the hole stays
/// dead), else into the free space, compacting the page first when the
/// free bytes are scattered. Slot ids survive compaction. Dead slots are
/// never reused by allocation (TupleId stability; see HeapFile); redo
/// takes the slot id from the log record, so replay stays correct even
/// when records of uncommitted transactions are skipped.
inline Placed PlaceRecordAtSlot(char* page, uint16_t slot,
                                const std::string& rec,
                                const PageHole* hole = nullptr) {
  uint16_t slots = PageSlotCount(page);
  if (slot < slots && SlotLength(page, slot) != kDeadSlot) {
    SetSlot(page, slot, 0, kDeadSlot);  // old version dies; space reclaimed
  }
  size_t dir_need = slot >= slots
                        ? static_cast<size_t>(slot - slots + 1) * kSlotSize
                        : 0;
  Placed placed = Placed::kInFreeSpace;
  uint16_t offset = 0;
  if (hole != nullptr && rec.size() <= hole->length &&
      ContiguousFree(page) >= dir_need) {
    placed = Placed::kInHole;
    offset = hole->offset;
  } else {
    if (ContiguousFree(page) < dir_need + rec.size()) {
      if (ReclaimableFree(page) < dir_need + rec.size()) {
        return Placed::kNoRoom;
      }
      CompactPage(page);
      placed = Placed::kAfterCompaction;
    }
    offset = static_cast<uint16_t>(GetU16(page, kPageFreeEndOff) -
                                   rec.size());
    PutU16(page, kPageFreeEndOff, offset);
  }
  for (uint16_t s = slots; s < slot; ++s) SetSlot(page, s, 0, kDeadSlot);
  if (slot >= slots) {
    PutU16(page, kPageSlotCountOff, static_cast<uint16_t>(slot + 1));
  }
  std::memcpy(page + offset, rec.data(), rec.size());
  SetSlot(page, slot, offset, static_cast<uint16_t>(rec.size()));
  return placed;
}

}  // namespace prodb

#endif  // PRODB_STORAGE_PAGE_LAYOUT_H_
