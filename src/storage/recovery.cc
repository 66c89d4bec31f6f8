#include "storage/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "storage/page_layout.h"

namespace prodb {

Status ScanLog(DiskManager* disk, LogScanResult* out) {
  *out = LogScanResult{};
  if (disk->PageCount() == 0) return Status::OK();  // nothing ever written

  // The anchor locates the head of the chain. An invalid anchor is only
  // legitimate when a crash pre-empted LogManager::Create — the caller
  // decides whether to repair or reject.
  char page[kPageSize];
  PRODB_RETURN_IF_ERROR(disk->ReadPage(kWalAnchorPageId, page));
  if (GetU32(page, kAnchorMagicOff) != kWalAnchorMagic) return Status::OK();
  out->anchor_valid = true;
  uint32_t first_page = GetU32(page, kAnchorFirstPageOff);
  out->base = GetU64(page, kAnchorBaseOff);
  out->scan_start = GetU64(page, kAnchorScanStartOff);
  out->anchor_checkpoint_lsn = GetU64(page, kAnchorCheckpointOff);
  uint32_t free_count = GetU32(page, kAnchorFreeCountOff);
  if (free_count > kAnchorMaxFreePages) {
    return Status::Corruption("log anchor free-list count out of range");
  }
  for (uint32_t i = 0; i < free_count; ++i) {
    out->anchor_free.push_back(GetU32(page, kAnchorFreeListOff + i * 4));
  }

  // Walk the chain, concatenating payloads into the stream. A zeroed
  // page (used == 0) or a dangling next pointer ends the stream — both
  // are legitimate crash states (page allocated but its first write, or
  // the link's target write, never happened).
  std::string stream;
  uint32_t pid = first_page;
  std::set<uint32_t> visited;  // corrupt next pointers must not cycle
  while (true) {
    if (pid >= disk->PageCount() || !visited.insert(pid).second) break;
    PRODB_RETURN_IF_ERROR(disk->ReadPage(pid, page));
    uint16_t used = GetU16(page, kLogPageUsedOff);
    if (used == 0) {
      // An allocated-but-never-written successor; the chain ends before
      // it. Still part of the chain for truncation purposes.
      out->pages.push_back(pid);
      break;
    }
    out->pages.push_back(pid);
    size_t take = std::min<size_t>(used, kLogPagePayload);
    stream.append(page + kLogPageHeaderSize, take);
    if (take < kLogPagePayload) break;  // partial page: stream ends here
    uint32_t next = PageNext(page);
    if (next == kNoPage || next == kWalAnchorPageId) break;
    pid = next;
  }

  out->stream_end = out->base + stream.size();
  if (out->scan_start < out->base || out->scan_start > out->stream_end) {
    return Status::Corruption("log anchor scan start outside the chain");
  }
  // scan_start is a record boundary at or past base — truncation is
  // page-granular, so the head page may open with the tail of a record
  // that is already dead.
  size_t pos = static_cast<size_t>(out->scan_start - out->base);
  while (pos < stream.size()) {
    ScannedRecord sr;
    size_t next_pos = pos;
    if (!DecodeLogRecord(stream.data(), stream.size(), &next_pos, &sr.rec)) {
      out->torn_tail = true;
      break;
    }
    sr.start = out->base + pos;
    pos = next_pos;
    sr.lsn = out->base + pos;
    out->records.push_back(std::move(sr));
  }
  out->valid_end = out->base + pos;
  return Status::OK();
}

namespace {

// Applies the physical undo operation shared by CLR replay (redo pass)
// and fresh undo: tombstone the slot, or put the before-image bytes
// back.
Status ApplyUndoOp(UndoKind op, uint32_t page_id, uint32_t slot,
                   const std::string& bytes, char* data) {
  switch (op) {
    case UndoKind::kClearSlot: {
      uint16_t slots = PageSlotCount(data);
      if (slot >= slots) {
        return Status::Corruption("undo: clear of missing slot " +
                                  std::to_string(slot) + " in page " +
                                  std::to_string(page_id));
      }
      SetSlot(data, static_cast<uint16_t>(slot), 0, kDeadSlot);
      return Status::OK();
    }
    case UndoKind::kRestore:
      if (PlaceRecordAtSlot(data, static_cast<uint16_t>(slot), bytes) ==
          Placed::kNoRoom) {
        return Status::Corruption("undo: before-image does not fit in page " +
                                  std::to_string(page_id) + " slot " +
                                  std::to_string(slot));
      }
      return Status::OK();
    case UndoKind::kNone:
      break;
  }
  return Status::Internal("undo of a record without undo info");
}

// Applies one physical record to the pinned page. The page is in exactly
// the state it had when the record was originally generated (earlier
// records were applied in order, gated by the page LSN), so the physical
// operations below recreate the original effects bit-for-bit at the
// logical level; byte layout may differ across compaction histories,
// which is why verification compares tuples, not raw pages — but replay
// of the *same* image is fully deterministic, giving byte-identical
// double recovery.
Status RedoOnPage(const ScannedRecord& sr, char* data) {
  const LogRecord& rec = sr.rec;
  switch (rec.type) {
    case LogRecordType::kPageFormat:
      InitHeapPage(data);
      break;
    case LogRecordType::kPageLink: {
      if (rec.data.size() != 4) {
        return Status::Corruption("bad page-link record size");
      }
      uint32_t next;
      std::memcpy(&next, rec.data.data(), 4);
      SetPageNext(data, next);
      break;
    }
    case LogRecordType::kSlotPut:
      if (PlaceRecordAtSlot(data, static_cast<uint16_t>(rec.slot),
                            rec.data) == Placed::kNoRoom) {
        return Status::Corruption(
            "redo: record does not fit in page " +
            std::to_string(rec.page_id) + " slot " +
            std::to_string(rec.slot));
      }
      break;
    case LogRecordType::kSlotDelete: {
      uint16_t slots = PageSlotCount(data);
      if (rec.slot >= slots) {
        return Status::Corruption("redo: delete of missing slot " +
                                  std::to_string(rec.slot) + " in page " +
                                  std::to_string(rec.page_id));
      }
      SetSlot(data, static_cast<uint16_t>(rec.slot), 0, kDeadSlot);
      break;
    }
    case LogRecordType::kClr: {
      // Repeating history replays completed undo work: the CLR's redo
      // action is the undo it recorded.
      ClrData clr;
      if (!DecodeClrData(rec.data, &clr)) {
        return Status::Corruption("bad CLR record payload");
      }
      PRODB_RETURN_IF_ERROR(
          ApplyUndoOp(clr.op, rec.page_id, rec.slot, clr.bytes, data));
      break;
    }
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpoint:
      return Status::Internal("redo of a non-physical record");
  }
  SetPageLsn(data, sr.lsn);
  return Status::OK();
}

// Zeroes the log stream past `scan.valid_end` and normalizes the tail
// page (used count, next = kNoPage), so the next scan — and the resumed
// LogManager — see a clean end. Pages wholly past the tail are rewritten
// as empty. Idempotent: re-truncating an already-clean tail writes the
// same bytes.
Status TruncateLogTail(DiskManager* disk, const LogScanResult& scan) {
  Lsn rel_end = scan.valid_end - scan.base;
  size_t tail_index = static_cast<size_t>(rel_end / kLogPagePayload);
  char page[kPageSize];
  for (size_t i = tail_index; i < scan.pages.size(); ++i) {
    uint32_t pid = scan.pages[i];
    std::memset(page, 0, kPageSize);
    size_t used = 0;
    if (i == tail_index && rel_end > i * kLogPagePayload) {
      used = static_cast<size_t>(rel_end - i * kLogPagePayload);
      char src[kPageSize];
      PRODB_RETURN_IF_ERROR(disk->ReadPage(pid, src));
      std::memcpy(page + kLogPageHeaderSize, src + kLogPageHeaderSize, used);
    }
    SetPageNext(page, kNoPage);
    PutU16(page, kLogPageUsedOff, static_cast<uint16_t>(used));
    PRODB_RETURN_IF_ERROR(disk->WritePage(pid, page));
  }
  return Status::OK();
}

// Rebuilds the empty log in place after a crash pre-empted
// LogManager::Create: at most the anchor and head page allocations (and
// possibly their first writes) had happened, so nothing was ever logged.
Status RepairFreshLog(DiskManager* disk, LogScanResult* scan) {
  if (disk->PageCount() > 2) {
    return Status::Corruption("log anchor missing on a non-empty store");
  }
  while (disk->PageCount() < 2) {
    uint32_t pid;
    PRODB_RETURN_IF_ERROR(disk->AllocatePage(&pid));
  }
  char page[kPageSize] = {};
  SetPageNext(page, kNoPage);
  PutU16(page, kLogPageUsedOff, 0);
  uint32_t head = kWalAnchorPageId + 1;
  PRODB_RETURN_IF_ERROR(disk->WritePage(head, page));
  PRODB_RETURN_IF_ERROR(WriteWalAnchor(disk, head, 0, 0, 0, {}));
  *scan = LogScanResult{};
  scan->anchor_valid = true;
  scan->pages.push_back(head);
  return Status::OK();
}

}  // namespace

Status RecoverLog(BufferPool* pool, RecoveryResult* out) {
  *out = RecoveryResult{};
  DiskManager* disk = pool->disk();

  LogScanResult scan;
  PRODB_RETURN_IF_ERROR(ScanLog(disk, &scan));
  if (!scan.anchor_valid) {
    if (disk->PageCount() == 0) return Status::OK();  // genuinely fresh
    PRODB_RETURN_IF_ERROR(RepairFreshLog(disk, &scan));
  }
  out->records_scanned = scan.records.size();
  out->torn_tail = scan.torn_tail;
  out->truncated_bytes = scan.stream_end - scan.valid_end;
  out->log_base = scan.base;
  out->log_end = scan.valid_end;
  out->log_pages = scan.pages;

  // Re-seed the allocator's free list from the anchor, minus every page
  // the surviving log references (chain membership or a record's target
  // page — such a page was re-allocated after the anchor was written and
  // is live again; the WAL rule guarantees its format record reached the
  // log before the page itself could be written). Seeding happens before
  // any recovery append so CLR flushing can itself recycle pages.
  {
    std::set<uint32_t> referenced;
    referenced.insert(kWalAnchorPageId);
    referenced.insert(scan.pages.begin(), scan.pages.end());
    for (const ScannedRecord& sr : scan.records) {
      referenced.insert(sr.rec.page_id);
    }
    std::vector<uint32_t> seed;
    for (uint32_t pid : scan.anchor_free) {
      if (referenced.count(pid) == 0) seed.push_back(pid);
    }
    disk->SeedFreePages(seed);
  }

  // Pass 1: commit cutoffs, the newest intact checkpoint, and the
  // compensation map (which loser records an interrupted earlier
  // recovery already undid).
  std::set<uint64_t> committed;
  std::set<uint64_t> aborted;
  const ScannedRecord* last_ckpt = nullptr;
  std::map<uint64_t, std::set<Lsn>> compensated;
  for (const ScannedRecord& sr : scan.records) {
    if (sr.rec.type == LogRecordType::kCommit) committed.insert(sr.rec.txn_id);
    if (sr.rec.type == LogRecordType::kAbort) aborted.insert(sr.rec.txn_id);
    if (sr.rec.type == LogRecordType::kCheckpoint) last_ckpt = &sr;
    if (sr.rec.type == LogRecordType::kClr) {
      ClrData clr;
      if (!DecodeClrData(sr.rec.data, &clr)) {
        return Status::Corruption("bad CLR record payload");
      }
      compensated[sr.rec.txn_id].insert(clr.compensated_lsn);
    }
    if (sr.rec.txn_id > out->max_txn_id) out->max_txn_id = sr.rec.txn_id;
  }
  out->committed.assign(committed.begin(), committed.end());
  out->committed_txns = committed.size();

  Lsn redo_lsn = scan.scan_start;
  if (last_ckpt != nullptr) {
    CheckpointData ckpt;
    if (!DecodeCheckpointData(last_ckpt->rec.data, &ckpt)) {
      return Status::Corruption("bad checkpoint record payload");
    }
    redo_lsn = std::max(redo_lsn, ckpt.redo_lsn);
    for (const auto& [txn, first_lsn] : ckpt.active_txns) {
      if (txn > out->max_txn_id) out->max_txn_id = txn;
    }
  }
  out->redo_lsn = redo_lsn;

  // Pass 2: repeat history. Redo EVERY intact physical record — winners,
  // losers and prior CLRs alike — in log order, wherever the record's
  // LSN exceeds the on-disk page LSN. Records at or below the redo point
  // are skipped outright: the checkpoint guarantees their effects are
  // already in the heap (redo_lsn is the minimum rec_lsn over pages that
  // were dirty, and it is always a record boundary).
  for (const ScannedRecord& sr : scan.records) {
    const LogRecord& rec = sr.rec;
    if (!IsDataRecord(rec.type) && rec.type != LogRecordType::kClr) continue;
    if (sr.lsn <= redo_lsn) continue;
    if (rec.page_id >= disk->PageCount()) {
      // A record can only be flushed after its page's allocation reached
      // the disk, so this is genuine corruption, not a crash artifact.
      return Status::Corruption("redo: record for unallocated page " +
                                std::to_string(rec.page_id));
    }
    Frame* frame;
    PRODB_RETURN_IF_ERROR(pool->FetchPage(rec.page_id, &frame));
    Status st = Status::OK();
    bool applied = false;
    if (sr.lsn > PageLsn(frame->data)) {
      st = RedoOnPage(sr, frame->data);
      applied = st.ok();
    }
    PRODB_RETURN_IF_ERROR(pool->UnpinPage(rec.page_id, applied));
    PRODB_RETURN_IF_ERROR(st);
    if (applied) ++out->records_redone;
  }

  // Truncate the torn tail now so the undo pass appends its CLRs onto a
  // clean boundary (and a second recovery starts from one).
  PRODB_RETURN_IF_ERROR(TruncateLogTail(disk, scan));

  // Pass 3: undo losers — transactions with data records and no end
  // record — newest record first, skipping records a surviving CLR
  // already compensated. A durable kAbort is an end record too: it means
  // the runtime rollback finished and every compensation record precedes
  // it in the log, so redo alone reproduces the rolled-back state
  // (re-undoing such a transaction would double-compensate, and its
  // freed space may since have been reused by committed work). Every
  // undo is logged as a CLR and the CLRs are forced *before* any undo
  // touches a page: a crash mid-undo leaves either the CLR and the page
  // effect, the CLR alone (redone next time), or neither — all of which
  // the next recovery converges from.
  std::set<uint64_t> losers;
  std::vector<const ScannedRecord*> to_undo;
  for (auto it = scan.records.rbegin(); it != scan.records.rend(); ++it) {
    const ScannedRecord& sr = *it;
    if (!IsDataRecord(sr.rec.type) || sr.rec.txn_id == 0) continue;
    if (committed.count(sr.rec.txn_id) != 0) continue;
    if (aborted.count(sr.rec.txn_id) != 0) continue;
    losers.insert(sr.rec.txn_id);
    if (sr.rec.undo_kind == UndoKind::kNone) continue;
    auto comp = compensated.find(sr.rec.txn_id);
    if (comp != compensated.end() && comp->second.count(sr.lsn) != 0) {
      continue;
    }
    to_undo.push_back(&sr);
  }
  out->loser_txns = losers.size();

  if (!to_undo.empty()) {
    std::unique_ptr<LogManager> log;
    LogManagerOptions lopts;
    lopts.auto_flush = false;
    PRODB_RETURN_IF_ERROR(LogManager::Resume(disk, lopts, scan.pages,
                                             scan.base, scan.valid_end, &log));
    std::vector<Lsn> clr_lsns;
    clr_lsns.reserve(to_undo.size());
    for (const ScannedRecord* sr : to_undo) {
      LogRecord clr_rec;
      clr_rec.type = LogRecordType::kClr;
      clr_rec.txn_id = sr->rec.txn_id;
      clr_rec.page_id = sr->rec.page_id;
      clr_rec.slot = sr->rec.slot;
      ClrData clr;
      clr.compensated_lsn = sr->lsn;
      clr.op = sr->rec.undo_kind;
      clr.bytes = sr->rec.undo;
      EncodeClrData(clr, &clr_rec.data);
      clr_lsns.push_back(log->Append(clr_rec));
    }
    PRODB_RETURN_IF_ERROR(log->Flush());
    for (size_t i = 0; i < to_undo.size(); ++i) {
      const ScannedRecord* sr = to_undo[i];
      Frame* frame;
      PRODB_RETURN_IF_ERROR(pool->FetchPage(sr->rec.page_id, &frame));
      Status st = ApplyUndoOp(sr->rec.undo_kind, sr->rec.page_id,
                              sr->rec.slot, sr->rec.undo, frame->data);
      if (st.ok()) SetPageLsn(frame->data, clr_lsns[i]);
      PRODB_RETURN_IF_ERROR(pool->UnpinPage(sr->rec.page_id, st.ok()));
      PRODB_RETURN_IF_ERROR(st);
      ++out->records_undone;
    }
    out->log_end = log->next_lsn();
    out->log_pages = log->PageChain();
  }

  // Everything redone and undone goes to disk now; the log — CLRs
  // included — is already there, so the WAL rule holds trivially (no
  // LogManager is attached to the pool yet).
  PRODB_RETURN_IF_ERROR(pool->FlushAll());
  return Status::OK();
}

}  // namespace prodb
