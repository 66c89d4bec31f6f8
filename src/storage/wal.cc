#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "storage/page_layout.h"

namespace prodb {

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: t[0] is
// the classic byte table, and t[k][b] is what byte b leaves in the CRC
// register after k more zero bytes, so eight lookups fold eight input
// bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

// Four bytes as a little-endian word, whatever the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

thread_local uint64_t g_wal_txn = 0;
thread_local uint64_t g_reservation_key = 0;

void AppendU32(std::string* out, uint32_t v) {
  char scratch[4];
  std::memcpy(scratch, &v, 4);
  out->append(scratch, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char scratch[8];
  std::memcpy(scratch, &v, 8);
  out->append(scratch, 8);
}

}  // namespace

bool IsDataRecord(LogRecordType type) {
  switch (type) {
    case LogRecordType::kSlotPut:
    case LogRecordType::kSlotDelete:
    case LogRecordType::kPageFormat:
    case LogRecordType::kPageLink:
      return true;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpoint:
    case LogRecordType::kClr:
      return false;
  }
  return false;
}

uint32_t Crc32(const void* data, size_t n) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void EncodeLogRecord(const LogRecord& rec, std::string* out) {
  std::string body;
  body.reserve(kLogRecordBodyFixed + rec.data.size() + rec.undo.size());
  body.push_back(static_cast<char>(rec.type));
  AppendU64(&body, rec.txn_id);
  AppendU32(&body, rec.page_id);
  AppendU32(&body, rec.slot);
  AppendU32(&body, static_cast<uint32_t>(rec.data.size()));
  body.push_back(static_cast<char>(rec.undo_kind));
  AppendU32(&body, static_cast<uint32_t>(rec.undo.size()));
  body.append(rec.data);
  body.append(rec.undo);

  uint32_t len = static_cast<uint32_t>(body.size());
  uint32_t crc = Crc32(body.data(), body.size());
  char hdr[kLogRecordHeader];
  std::memcpy(hdr, &len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  out->append(hdr, kLogRecordHeader);
  out->append(body);
}

size_t EncodedLogRecordSize(const LogRecord& rec) {
  return kLogRecordHeader + kLogRecordBodyFixed + rec.data.size() +
         rec.undo.size();
}

bool DecodeLogRecord(const char* buf, size_t len, size_t* pos,
                     LogRecord* out) {
  if (*pos + kLogRecordHeader > len) return false;
  uint32_t blen, crc;
  std::memcpy(&blen, buf + *pos, 4);
  std::memcpy(&crc, buf + *pos + 4, 4);
  if (blen < kLogRecordBodyFixed || blen > kMaxLogRecordBody) return false;
  if (*pos + kLogRecordHeader + blen > len) return false;
  const char* body = buf + *pos + kLogRecordHeader;
  if (Crc32(body, blen) != crc) return false;
  uint8_t type = static_cast<uint8_t>(body[0]);
  if (type < static_cast<uint8_t>(LogRecordType::kSlotPut) ||
      type > static_cast<uint8_t>(LogRecordType::kClr)) {
    return false;
  }
  out->type = static_cast<LogRecordType>(type);
  std::memcpy(&out->txn_id, body + 1, 8);
  std::memcpy(&out->page_id, body + 9, 4);
  std::memcpy(&out->slot, body + 13, 4);
  uint32_t dlen;
  std::memcpy(&dlen, body + 17, 4);
  uint8_t undo_kind = static_cast<uint8_t>(body[21]);
  if (undo_kind > static_cast<uint8_t>(UndoKind::kRestore)) return false;
  out->undo_kind = static_cast<UndoKind>(undo_kind);
  uint32_t ulen;
  std::memcpy(&ulen, body + 22, 4);
  if (static_cast<uint64_t>(dlen) + ulen != blen - kLogRecordBodyFixed) {
    return false;
  }
  out->data.assign(body + kLogRecordBodyFixed, dlen);
  out->undo.assign(body + kLogRecordBodyFixed + dlen, ulen);
  *pos += kLogRecordHeader + blen;
  return true;
}

void EncodeCheckpointData(const CheckpointData& ckpt, std::string* out) {
  out->clear();
  AppendU64(out, ckpt.redo_lsn);
  AppendU32(out, static_cast<uint32_t>(ckpt.active_txns.size()));
  for (const auto& [txn, first_lsn] : ckpt.active_txns) {
    AppendU64(out, txn);
    AppendU64(out, first_lsn);
  }
}

bool DecodeCheckpointData(const std::string& buf, CheckpointData* out) {
  *out = CheckpointData{};
  if (buf.size() < 12) return false;
  std::memcpy(&out->redo_lsn, buf.data(), 8);
  uint32_t n;
  std::memcpy(&n, buf.data() + 8, 4);
  if (buf.size() != 12 + static_cast<size_t>(n) * 16) return false;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t txn, first;
    std::memcpy(&txn, buf.data() + 12 + i * 16, 8);
    std::memcpy(&first, buf.data() + 12 + i * 16 + 8, 8);
    out->active_txns[txn] = first;
  }
  return true;
}

void EncodeClrData(const ClrData& clr, std::string* out) {
  out->clear();
  AppendU64(out, clr.compensated_lsn);
  out->push_back(static_cast<char>(clr.op));
  out->append(clr.bytes);
}

bool DecodeClrData(const std::string& buf, ClrData* out) {
  *out = ClrData{};
  if (buf.size() < 9) return false;
  std::memcpy(&out->compensated_lsn, buf.data(), 8);
  uint8_t op = static_cast<uint8_t>(buf[8]);
  if (op > static_cast<uint8_t>(UndoKind::kRestore)) return false;
  out->op = static_cast<UndoKind>(op);
  out->bytes.assign(buf, 9, buf.size() - 9);
  return true;
}

Status LogManager::Create(DiskManager* disk, LogManagerOptions options,
                          std::unique_ptr<LogManager>* out) {
  auto log = std::unique_ptr<LogManager>(new LogManager(disk, options));
  uint32_t anchor, head;
  PRODB_RETURN_IF_ERROR(disk->AllocatePage(&anchor));
  if (anchor != kWalAnchorPageId) {
    return Status::Internal(
        "WAL anchor landed on page " + std::to_string(anchor) +
        "; the log must be created before any other allocation");
  }
  PRODB_RETURN_IF_ERROR(disk->AllocatePage(&head));
  // Write the empty head first, then the anchor that points at it: the
  // anchor must never reference a page whose log-page header write could
  // still be pending. A crash anywhere in here leaves either no valid
  // anchor (recovery re-creates the empty log) or a valid anchor over a
  // valid empty head.
  char page[kPageSize] = {};
  SetPageNext(page, kNoPage);
  PutU16(page, kLogPageUsedOff, 0);
  PRODB_RETURN_IF_ERROR(disk->WritePage(head, page));
  log->pages_.push_back(head);
  PRODB_RETURN_IF_ERROR(log->WriteAnchorLocked(head, 0, 0, {}));
  *out = std::move(log);
  return Status::OK();
}

Status LogManager::Resume(DiskManager* disk, LogManagerOptions options,
                          std::vector<uint32_t> pages, Lsn base, Lsn end,
                          std::unique_ptr<LogManager>* out) {
  if (pages.empty()) {
    return Status::InvalidArgument("WAL resume needs at least the head page");
  }
  if (end < base || base % kLogPagePayload != 0) {
    return Status::InvalidArgument("WAL resume: end/base mismatch");
  }
  auto log = std::unique_ptr<LogManager>(new LogManager(disk, options));
  log->pages_ = std::move(pages);
  log->base_ = base;
  log->end_ = end;
  log->flushed_ = end;
  // pending_ must hold the whole incomplete tail page (its durable bytes
  // are rewritten alongside new ones on every tail-growth flush).
  Lsn tail_start =
      base + ((end - base) / kLogPagePayload) * kLogPagePayload;
  log->buf_start_ = tail_start;
  if (end > tail_start) {
    size_t tail_index =
        static_cast<size_t>((tail_start - base) / kLogPagePayload);
    if (tail_index >= log->pages_.size()) {
      return Status::InvalidArgument("WAL resume: end past the page chain");
    }
    char page[kPageSize];
    PRODB_RETURN_IF_ERROR(disk->ReadPage(log->pages_[tail_index], page));
    log->pending_.assign(page + kLogPageHeaderSize,
                         static_cast<size_t>(end - tail_start));
  }
  *out = std::move(log);
  return Status::OK();
}

Lsn LogManager::Append(const LogRecord& rec, Lsn* start) {
  Lsn lsn;
  bool flush;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lsn rec_start = end_;
    EncodeLogRecord(rec, &pending_);
    end_ = buf_start_ + pending_.size();
    lsn = end_;
    if (start != nullptr) *start = rec_start;
    ++stats_.records_appended;
    stats_.bytes_appended += lsn - rec_start;
    if (rec.txn_id != 0 && IsDataRecord(rec.type)) {
      active_txns_.emplace(rec.txn_id, rec_start);  // keep first start LSN
    } else if (rec.type == LogRecordType::kCommit ||
               rec.type == LogRecordType::kAbort) {
      active_txns_.erase(rec.txn_id);
    }
    flush = options_.auto_flush;
  }
  if (flush) {
    // Best-effort: a failed auto-flush leaves the record buffered; the
    // WAL rule re-checks durability before any dependent page writeback.
    Status st = FlushTo(lsn);
    (void)st;
  }
  return lsn;
}

Status LogManager::FlushTo(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked(lsn);
}

Status LogManager::FlushLocked(Lsn lsn) {
  if (lsn <= flushed_) return Status::OK();
  if (lsn > end_) lsn = end_;
  bool wrote = false;
  // pending_ holds stream bytes [buf_start_, end_), where buf_start_ is
  // always the start of the first not-completely-written log page. A tail
  // page is rewritten (atomically, in the fault model) every time it
  // grows; its bytes leave pending_ only once the page fills and can
  // never change again. A crash between two rewrites leaves the older
  // version — a clean record-boundary prefix. All chain math is relative
  // to base_: truncation recycles head pages without renumbering LSNs.
  while (flushed_ < lsn) {
    size_t page_index =
        static_cast<size_t>((flushed_ - base_) / kLogPagePayload);
    Lsn page_start = base_ + page_index * kLogPagePayload;
    size_t in_page = static_cast<size_t>(flushed_ - page_start);
    while (page_index >= pages_.size()) {
      uint32_t pid;
      PRODB_RETURN_IF_ERROR(disk_->AllocatePage(&pid));
      pages_.push_back(pid);
    }
    size_t take = std::min(static_cast<size_t>(end_ - flushed_),
                           kLogPagePayload - in_page);
    bool fills_page = in_page + take == kLogPagePayload;
    // Extend the chain before (re)writing the filled page so its next
    // pointer is final; a crash in between leaves a zeroed (used = 0)
    // successor that scans as end-of-log.
    if (fills_page && page_index + 1 >= pages_.size()) {
      uint32_t pid;
      PRODB_RETURN_IF_ERROR(disk_->AllocatePage(&pid));
      pages_.push_back(pid);
    }
    char page[kPageSize] = {};
    SetPageNext(page, fills_page ? pages_[page_index + 1] : kNoPage);
    PutU16(page, kLogPageUsedOff, static_cast<uint16_t>(in_page + take));
    std::memcpy(page + kLogPageHeaderSize,
                pending_.data() + (page_start - buf_start_), in_page + take);
    PRODB_RETURN_IF_ERROR(disk_->WritePage(pages_[page_index], page));
    ++stats_.pages_written;
    wrote = true;
    flushed_ += take;
    if (fills_page) {
      // Pages fill strictly in order, so buf_start_ == page_start here.
      pending_.erase(0, kLogPagePayload);
      buf_start_ = page_start + kLogPagePayload;
    }
  }
  if (wrote) ++stats_.flushes;
  return Status::OK();
}

Status LogManager::Checkpoint(Lsn dirty_low_water) {
  std::lock_guard<std::mutex> lock(mu_);
  // Redo point: every page effect below it is already on disk in the
  // heap. UINT64_MAX from the caller means "no dirty logged page" —
  // redo can start at the current end. Appends racing in after the
  // caller sampled its pool are fine either way: their effects carry
  // LSNs above both candidates (the checkpoint is fuzzy, not a barrier).
  Lsn redo = std::min(dirty_low_water, end_);

  CheckpointData ckpt;
  ckpt.redo_lsn = redo;
  ckpt.active_txns = active_txns_;
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  EncodeCheckpointData(ckpt, &rec.data);
  Lsn rec_start = end_;
  EncodeLogRecord(rec, &pending_);
  end_ = buf_start_ + pending_.size();
  ++stats_.records_appended;
  stats_.bytes_appended += end_ - rec_start;
  // The checkpoint only exists once it is durable; recovery finds the
  // newest intact one by scanning, so a crash mid-flush simply falls
  // back to the previous checkpoint (or log genesis).
  PRODB_RETURN_IF_ERROR(FlushLocked(end_));
  checkpoint_lsn_ = end_;
  ++stats_.checkpoints_taken;

  // Truncation floor: recovery redoes from `redo` and must also be able
  // to undo any still-active transaction from its first record.
  Lsn keep = redo;
  for (const auto& [txn, first_lsn] : ckpt.active_txns) {
    keep = std::min(keep, first_lsn);
  }

  // Chain pages wholly below the floor are dead. The tail page is never
  // freed (the chain must stay non-empty), and `keep <= flushed_` here,
  // so a freed page can never hold unflushed bytes.
  size_t n_free = 0;
  while (n_free + 1 < pages_.size() &&
         base_ + (n_free + 1) * kLogPagePayload <= keep) {
    ++n_free;
  }
  std::vector<uint32_t> freed(pages_.begin(), pages_.begin() + n_free);
  // Rewrite the anchor before releasing any page: once a freed page can
  // be re-allocated (and overwritten), no crash image may exist in which
  // the anchor still routes the scan through it. If the anchor write
  // fails, the chain is simply not advanced — nothing was freed.
  PRODB_RETURN_IF_ERROR(WriteAnchorLocked(
      pages_[n_free], base_ + n_free * kLogPagePayload, keep, freed));
  pages_.erase(pages_.begin(), pages_.begin() + n_free);
  base_ += n_free * kLogPagePayload;
  for (uint32_t pid : freed) {
    disk_->FreePage(pid);
  }
  stats_.pages_recycled += n_free;
  return Status::OK();
}

Status LogManager::WriteAnchorLocked(uint32_t first_page, Lsn base,
                                     Lsn scan_start,
                                     const std::vector<uint32_t>& extra_free) {
  std::vector<uint32_t> free_pages = disk_->FreePages();
  free_pages.insert(free_pages.end(), extra_free.begin(), extra_free.end());
  return WriteWalAnchor(disk_, first_page, base, scan_start, checkpoint_lsn_,
                        free_pages);
}

Status WriteWalAnchor(DiskManager* disk, uint32_t first_page, Lsn base,
                      Lsn scan_start, Lsn checkpoint_lsn,
                      const std::vector<uint32_t>& free_pages) {
  char page[kPageSize] = {};
  PutU32(page, kAnchorMagicOff, kWalAnchorMagic);
  PutU32(page, kAnchorFirstPageOff, first_page);
  PutU64(page, kAnchorBaseOff, base);
  PutU64(page, kAnchorScanStartOff, scan_start);
  PutU64(page, kAnchorCheckpointOff, checkpoint_lsn);
  size_t n = free_pages.size();
  if (n > kAnchorMaxFreePages) {
    // Overflowing entries stay reusable this run but leak at the next
    // restart (recovery only re-seeds what the anchor names). Harmless:
    // ~1000 free pages queued is already a pathological backlog.
    n = kAnchorMaxFreePages;
  }
  PutU32(page, kAnchorFreeCountOff, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    PutU32(page, kAnchorFreeListOff + i * 4, free_pages[i]);
  }
  return disk->WritePage(kWalAnchorPageId, page);
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_;
}

Lsn LogManager::flushed_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_;
}

Lsn LogManager::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

Lsn LogManager::checkpoint_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_lsn_;
}

size_t LogManager::live_log_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

std::vector<uint32_t> LogManager::PageChain() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_;
}

std::map<uint64_t, Lsn> LogManager::ActiveTxns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_txns_;
}

bool LogManager::IsActive(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_txns_.count(txn_id) != 0;
}

LogManagerStats LogManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t CurrentWalTxn() { return g_wal_txn; }

uint64_t CurrentReservationKey() { return g_reservation_key; }

WalTxnScope::WalTxnScope(uint64_t txn_id, uint64_t reservation_key)
    : saved_txn_(g_wal_txn), saved_key_(g_reservation_key) {
  g_wal_txn = txn_id;
  g_reservation_key = reservation_key;
}

WalTxnScope::~WalTxnScope() {
  g_wal_txn = saved_txn_;
  g_reservation_key = saved_key_;
}

}  // namespace prodb
