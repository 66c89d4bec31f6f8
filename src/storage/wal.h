#ifndef PRODB_STORAGE_WAL_H_
#define PRODB_STORAGE_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"

namespace prodb {

/// Log sequence number: the byte offset just past a record in the log
/// stream. 0 means "before any record" — a page LSN of 0 marks a page no
/// WAL record has ever touched. LSNs are offsets from log *genesis* and
/// stay monotone forever: truncation recycles old log pages but never
/// renumbers the stream, so page LSNs stamped before a truncation remain
/// comparable after it.
using Lsn = uint64_t;

/// By convention the log anchor occupies the first page a WAL-enabled
/// catalog allocates, so restart recovery knows where to start without
/// any separate metadata store. The anchor is a one-page superblock
/// (rewritten atomically) that locates the head of the live log-page
/// chain; the chain itself begins on the next allocated page.
inline constexpr uint32_t kWalAnchorPageId = 0;

/// Anchor layout:
///   [u32 magic][u32 first_page][u64 base_offset][u64 scan_start_lsn]
///   [u64 checkpoint_lsn][u32 free_count][u32 free_page_id]...
/// `base_offset` is the stream offset of the first byte of `first_page`
/// (always a multiple of kLogPagePayload); `scan_start_lsn` is the first
/// record boundary at or past it — truncation is page-granular, so the
/// head page may begin with the tail of an already-dead record that the
/// scanner must skip. `checkpoint_lsn` is informational (recovery finds
/// the last checkpoint by scanning; a failed anchor rewrite must not
/// lose it). The free list persists pages recycled out of the log chain;
/// recovery re-seeds the allocator with every listed page that no
/// surviving log record references (a referenced page was re-allocated
/// after the anchor was written and is live again).
inline constexpr uint32_t kWalAnchorMagic = 0x50574C41;  // "PWLA"
inline constexpr size_t kAnchorMagicOff = 0;        // u32
inline constexpr size_t kAnchorFirstPageOff = 4;    // u32
inline constexpr size_t kAnchorBaseOff = 8;         // u64
inline constexpr size_t kAnchorScanStartOff = 16;   // u64
inline constexpr size_t kAnchorCheckpointOff = 24;  // u64
inline constexpr size_t kAnchorFreeCountOff = 32;   // u32
inline constexpr size_t kAnchorFreeListOff = 36;    // u32 each
inline constexpr size_t kAnchorMaxFreePages =
    (kPageSize - kAnchorFreeListOff) / 4;

/// Log page layout: [u32 next_page_id][u16 used_bytes][u16 reserved]
/// followed by `used_bytes` of record-stream payload. Records are a byte
/// stream chunked across the page chain: chain position i holds stream
/// bytes [base + i * kLogPagePayload, base + i * kLogPagePayload + used).
inline constexpr size_t kLogPageNextOff = 0;  // u32
inline constexpr size_t kLogPageUsedOff = 4;  // u16
inline constexpr size_t kLogPageHeaderSize = 8;
inline constexpr size_t kLogPagePayload = kPageSize - kLogPageHeaderSize;

/// Typed physical log records. Slot-level records carry the slot id the
/// original operation used, so redo places bytes at the recorded slot
/// instead of re-deriving it. Restart recovery repeats history — every
/// intact physical record is redone in log order regardless of its
/// transaction's fate — then rolls back losers using the before-image
/// (`undo`) payload each data record carries, writing kClr compensation
/// records so a crash during recovery itself still converges. The values
/// are the on-disk format; 5 is unassigned.
enum class LogRecordType : uint8_t {
  kSlotPut = 1,     // slot now holds `data` (insert / restore / update)
  kSlotDelete = 2,  // slot tombstoned
  kPageFormat = 3,  // fresh heap page formatted (always txn 0: structural)
  kPageLink = 4,    // next-page pointer set to u32 in `data` (structural)
  kCommit = 6,      // transaction commit — the winner/loser cutoff
  kAbort = 7,       // transaction abort (hygiene; absence of commit suffices)
  kCheckpoint = 8,  // fuzzy checkpoint: redo LSN + active-txn table
  kClr = 9,         // compensation: physical undo applied during recovery
};

/// Data records: the physical page changes a transaction's work writes
/// (slot put / delete, page format / link). Only they register their
/// transaction in the active-transaction table, are redone as history,
/// and are undone for a loser. Commit/abort settle a transaction,
/// checkpoints are not transaction work, and CLRs belong to recovery — a
/// loser must not re-enter the table because restart undo wrote
/// compensation on its behalf.
bool IsDataRecord(LogRecordType type);

/// How to roll a data record back. kNone marks records that are never
/// undone (structural records, commit/abort/checkpoint, and CLRs — undo
/// of an undo would defeat convergence).
enum class UndoKind : uint8_t {
  kNone = 0,
  kClearSlot = 1,   // slot was dead or absent before: tombstone it
  kRestore = 2,     // slot held `undo` bytes before: put them back
};

struct LogRecord {
  LogRecordType type = LogRecordType::kCommit;
  uint64_t txn_id = 0;  // 0 = auto-commit (never undone; redone when intact)
  uint32_t page_id = 0;
  uint32_t slot = 0;
  std::string data;
  UndoKind undo_kind = UndoKind::kNone;
  std::string undo;  // before-image bytes (kRestore only)
};

/// On-stream encoding: [u32 body_len][u32 crc32(body)][body], body =
/// [u8 type][u64 txn][u32 page][u32 slot][u32 data_len][u8 undo_kind]
/// [u32 undo_len][data][undo]. Exposed for the torn-tail tests, which
/// surgically damage encoded records on disk.
inline constexpr size_t kLogRecordHeader = 8;  // len + crc
inline constexpr size_t kLogRecordBodyFixed = 26;
/// Body length ceiling used as a corruption sanity check when scanning:
/// data and undo can each approach a page in size.
inline constexpr uint32_t kMaxLogRecordBody =
    kLogRecordBodyFixed + 2 * static_cast<uint32_t>(kPageSize);

/// CRC32 (reflected, poly 0xEDB88320) over `n` bytes.
uint32_t Crc32(const void* data, size_t n);

void EncodeLogRecord(const LogRecord& rec, std::string* out);
/// Total encoded size of `rec` on the stream (header + body).
size_t EncodedLogRecordSize(const LogRecord& rec);
/// Decodes one record at `buf[pos]`; false on truncation or CRC mismatch.
bool DecodeLogRecord(const char* buf, size_t len, size_t* pos,
                     LogRecord* out);

/// --- Checkpoint / CLR payload codecs ------------------------------------

/// Body of a kCheckpoint record: the redo low-water mark (minimum rec_lsn
/// over dirty buffer-pool pages — restart redo may start here) and the
/// active-transaction table (txn id -> start LSN of its first data
/// record — truncation must preserve everything an eventual undo of a
/// still-running transaction could need).
struct CheckpointData {
  Lsn redo_lsn = 0;
  std::map<uint64_t, Lsn> active_txns;
};

void EncodeCheckpointData(const CheckpointData& ckpt, std::string* out);
bool DecodeCheckpointData(const std::string& buf, CheckpointData* out);

/// Body of a kClr record: which record it compensates (by LSN), the undo
/// operation, and the bytes to restore (kRestore only). The CLR's redo
/// action *is* the undo it recorded, so repeating history replays
/// completed undo work for free.
struct ClrData {
  Lsn compensated_lsn = 0;
  UndoKind op = UndoKind::kNone;
  std::string bytes;
};

void EncodeClrData(const ClrData& clr, std::string* out);
bool DecodeClrData(const std::string& buf, ClrData* out);

/// Composes and writes the anchor page. Shared by LogManager (create /
/// checkpoint-truncate) and restart recovery (re-creating an empty log
/// when a crash pre-empted LogManager::Create). `free_pages` beyond
/// kAnchorMaxFreePages are dropped (they leak at the next restart).
Status WriteWalAnchor(DiskManager* disk, uint32_t first_page, Lsn base,
                      Lsn scan_start, Lsn checkpoint_lsn,
                      const std::vector<uint32_t>& free_pages);

struct LogManagerOptions {
  /// Flush after every append (the crash sweep's knob: every record
  /// boundary becomes a disk-write boundary). Group commit otherwise:
  /// records buffer in memory until an explicit Flush — typically a
  /// transaction commit, whose single flush carries every record buffered
  /// by whoever appended since the last one.
  bool auto_flush = false;
};

struct LogManagerStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;  // encoded stream bytes, before any flush
  uint64_t flushes = 0;         // Flush calls that wrote at least one page
  uint64_t pages_written = 0;   // physical log-page writes
  uint64_t checkpoints_taken = 0;
  uint64_t pages_recycled = 0;  // log pages returned to the free list
};

/// Append-only write-ahead log over a DiskManager.
///
/// The log shares the data DiskManager: log pages are ordinary allocated
/// pages chained through their headers, located by the anchor superblock
/// at kWalAnchorPageId. That is what makes FaultInjectingDiskManager's
/// freeze-on-fault snapshot a complete crash image — one snapshot
/// captures data pages, log and anchor in a single consistent cut.
/// Appends go to an in-memory buffer and never touch disk; Flush writes
/// buffered bytes through (allocating log pages as needed) and is the
/// only failure point. Thread-safe.
///
/// The log also owns the durability metadata the rest of the stack
/// needs: the active-transaction table (first data-record LSN per
/// in-flight transaction, maintained from the append stream itself) and
/// the checkpoint/truncation machinery. `Checkpoint` appends a fuzzy
/// checkpoint record, forces it, then recycles every log page wholly
/// below min(redo LSN, oldest active transaction) into the disk
/// manager's free-page list, where heap-file growth reallocates it —
/// bounding log size under sustained churn without quiescing anything.
class LogManager {
 public:
  /// Fresh log: claims the anchor page (must end up at kWalAnchorPageId —
  /// callers create the log before any other allocation) plus the first
  /// chain page.
  static Status Create(DiskManager* disk, LogManagerOptions options,
                       std::unique_ptr<LogManager>* out);

  /// Resumes an existing log after recovery: appends continue at stream
  /// offset `end` on the already-truncated page chain `pages`, whose
  /// first page begins at stream offset `base`.
  static Status Resume(DiskManager* disk, LogManagerOptions options,
                       std::vector<uint32_t> pages, Lsn base, Lsn end,
                       std::unique_ptr<LogManager>* out);

  /// Appends `rec` to the buffer and returns its LSN (stream offset just
  /// past the record); `*start` (optional) receives the record's start
  /// offset — the buffer pool tracks the first dirtying record per page
  /// by start offset so checkpoints can compute a safe redo point. Pure
  /// memory operation — cannot fail. Under auto_flush a flush is
  /// attempted immediately, best-effort: a flush error leaves the record
  /// buffered for the next Flush to retry (the WAL rule re-checks
  /// durability before any page writeback anyway).
  Lsn Append(const LogRecord& rec, Lsn* start = nullptr);

  /// Writes every buffered byte through to disk.
  Status Flush() { return FlushTo(next_lsn()); }
  /// Writes buffered bytes through until at least `lsn` is durable.
  Status FlushTo(Lsn lsn);

  /// Fuzzy checkpoint + log truncation. `dirty_low_water` is the
  /// caller's redo low-water mark (BufferPool::MinDirtyRecLsn;
  /// UINT64_MAX = no dirty logged page, i.e. everything flushed, no
  /// constraint on the redo point). Appends a kCheckpoint
  /// record carrying the redo point and the active-transaction table,
  /// forces the log through it, rewrites the anchor, and recycles every
  /// chain page wholly below the keep point into the disk free list.
  /// Concurrent appends are safe — the checkpoint is fuzzy: anything
  /// racing in lands after the recorded redo point.
  Status Checkpoint(Lsn dirty_low_water);

  Lsn next_lsn() const;
  Lsn flushed_lsn() const;
  /// Stream offset of the first byte still on the chain (truncation
  /// floor). LSNs below this have been recycled.
  Lsn base_lsn() const;
  /// LSN of the last checkpoint record appended or recovered (0 = none).
  Lsn checkpoint_lsn() const;
  /// Live chain length in pages — the on-disk log footprint.
  size_t live_log_pages() const;
  /// Copy of the live page chain, in stream order (recovery hands the
  /// post-CLR chain back to the catalog for the final Resume).
  std::vector<uint32_t> PageChain() const;
  /// Active-transaction table: id -> start LSN of first data record.
  std::map<uint64_t, Lsn> ActiveTxns() const;
  /// Whether `txn_id` is in that table: it appended a data record and no
  /// commit or abort record since.
  bool IsActive(uint64_t txn_id) const;
  /// A snapshot of the counters, taken under the log latch.
  LogManagerStats stats() const;

 private:
  LogManager(DiskManager* disk, LogManagerOptions options)
      : disk_(disk), options_(options) {}

  Status FlushLocked(Lsn lsn);
  Status WriteAnchorLocked(uint32_t first_page, Lsn base, Lsn scan_start,
                           const std::vector<uint32_t>& extra_free);

  DiskManager* disk_;
  LogManagerOptions options_;

  mutable std::mutex mu_;
  std::vector<uint32_t> pages_;  // log page chain, in stream order
  Lsn base_ = 0;                 // stream offset of pages_[0]'s first byte
  Lsn end_ = 0;                  // stream offset past the last appended byte
  Lsn flushed_ = 0;              // stream offset past the last durable byte
  Lsn buf_start_ = 0;            // stream offset of pending_[0]: the start
                                 // of the first not-fully-written log page
  std::string pending_;          // bytes [buf_start_, end_)
  Lsn checkpoint_lsn_ = 0;
  std::map<uint64_t, Lsn> active_txns_;  // txn -> first data-record start
  LogManagerStats stats_;
};

/// --- Transaction attribution --------------------------------------------
/// HeapFile sits several layers below the Transaction object, so the
/// current transaction id travels in a thread-local set by this RAII
/// scope. 0 (no scope) = auto-commit: the record is redone whenever it is
/// intact in the log and never undone. Transaction mutations — forward
/// ops, rollback undo and concurrent-engine compensation alike — run
/// inside a scope carrying the transaction id, so every record of a loser
/// stays attributed to it and restart undo rolls all of it back.
uint64_t CurrentWalTxn();

/// The key the heap holds the bytes a delete frees under, for the
/// deleter's own undo (HeapFile "Page choice"); 0 reserves nothing. It is
/// the transaction id unless the scope names another: an auto-commit
/// writer that may still roll its batch back (WorkingMemory::AbortBatch)
/// logs as txn 0 but reserves under a key of its own.
uint64_t CurrentReservationKey();

class WalTxnScope {
 public:
  explicit WalTxnScope(uint64_t txn_id) : WalTxnScope(txn_id, txn_id) {}
  WalTxnScope(uint64_t txn_id, uint64_t reservation_key);
  ~WalTxnScope();
  WalTxnScope(const WalTxnScope&) = delete;
  WalTxnScope& operator=(const WalTxnScope&) = delete;

 private:
  uint64_t saved_txn_;
  uint64_t saved_key_;
};

}  // namespace prodb

#endif  // PRODB_STORAGE_WAL_H_
