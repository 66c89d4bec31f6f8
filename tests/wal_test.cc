// Unit tests for the write-ahead log: record encoding (including inline
// undo payloads), the group-commit buffer, page-spanning streams,
// resume-after-restart, the buffer pool's WAL rule (log before page) and
// steal (in-flight transactions' pages may reach disk once their undo
// records are durable), and physical redo onto raw pages.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page_layout.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace prodb {
namespace {

TEST(WalRecordTest, Crc32MatchesCheckValue) {
  // The standard CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// Crc32 folds eight bytes per step and the rest one at a time; a plain
// bit-at-a-time CRC over the same polynomial must agree at every length
// and at every alignment of the first byte.
TEST(WalRecordTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  auto reference = [](const unsigned char* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  alignas(8) unsigned char buf[64 + 8];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 167 + 13);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf + align, len), reference(buf + align, len))
          << "length " << len << " alignment " << align;
    }
  }
}

TEST(WalRecordTest, EncodeDecodeRoundtrip) {
  LogRecord rec;
  rec.type = LogRecordType::kSlotPut;
  rec.txn_id = 42;
  rec.page_id = 7;
  rec.slot = 3;
  rec.data = "hello tuple bytes";
  std::string buf;
  EncodeLogRecord(rec, &buf);
  EXPECT_EQ(buf.size(), kLogRecordHeader + kLogRecordBodyFixed +
                            rec.data.size());

  LogRecord out;
  size_t pos = 0;
  ASSERT_TRUE(DecodeLogRecord(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(out.type, rec.type);
  EXPECT_EQ(out.txn_id, rec.txn_id);
  EXPECT_EQ(out.page_id, rec.page_id);
  EXPECT_EQ(out.slot, rec.slot);
  EXPECT_EQ(out.data, rec.data);
  EXPECT_EQ(out.undo_kind, UndoKind::kNone);
  EXPECT_TRUE(out.undo.empty());
}

TEST(WalRecordTest, EncodeDecodeCarriesUndoPayload) {
  LogRecord rec;
  rec.type = LogRecordType::kSlotPut;
  rec.txn_id = 11;
  rec.page_id = 4;
  rec.slot = 2;
  rec.data = "after-image";
  rec.undo_kind = UndoKind::kRestore;
  rec.undo = "before-image-bytes";
  std::string buf;
  EncodeLogRecord(rec, &buf);
  EXPECT_EQ(buf.size(), kLogRecordHeader + kLogRecordBodyFixed +
                            rec.data.size() + rec.undo.size());
  EXPECT_EQ(EncodedLogRecordSize(rec), buf.size());

  LogRecord out;
  size_t pos = 0;
  ASSERT_TRUE(DecodeLogRecord(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out.undo_kind, UndoKind::kRestore);
  EXPECT_EQ(out.undo, rec.undo);
  EXPECT_EQ(out.data, rec.data);

  // A garbage undo-kind byte is rejected by the decoder's validation.
  std::string bad = buf;
  bad[kLogRecordHeader + 21] = 0x7F;  // undo_kind byte in the fixed body
  pos = 0;
  EXPECT_FALSE(DecodeLogRecord(bad.data(), bad.size(), &pos, &out));
}

TEST(WalRecordTest, DecodeRejectsCorruptionAndTruncation) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 9;
  std::string buf;
  EncodeLogRecord(rec, &buf);

  // Truncated mid-body.
  LogRecord out;
  size_t pos = 0;
  EXPECT_FALSE(DecodeLogRecord(buf.data(), buf.size() - 1, &pos, &out));
  EXPECT_EQ(pos, 0u);

  // Truncated mid-header.
  pos = 0;
  EXPECT_FALSE(DecodeLogRecord(buf.data(), kLogRecordHeader - 2, &pos, &out));

  // A flipped body byte fails the CRC.
  std::string bad = buf;
  bad[kLogRecordHeader + 3] ^= 0x40;
  pos = 0;
  EXPECT_FALSE(DecodeLogRecord(bad.data(), bad.size(), &pos, &out));

  // A garbage type byte is rejected even if CRC were recomputed.
  pos = 0;
  ASSERT_TRUE(DecodeLogRecord(buf.data(), buf.size(), &pos, &out));
}

TEST(WalLogManagerTest, GroupCommitBuffersUntilFlush) {
  MemoryDiskManager disk;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, {}, &wal).ok());

  LogRecord rec;
  rec.type = LogRecordType::kSlotPut;
  rec.page_id = 1;
  rec.data = "abc";
  Lsn l1 = wal->Append(rec);
  rec.data = "defg";
  Lsn l2 = wal->Append(rec);
  EXPECT_GT(l2, l1);
  EXPECT_EQ(wal->flushed_lsn(), 0u);

  // Nothing durable yet: the scan sees an empty log.
  LogScanResult scan;
  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_FALSE(scan.torn_tail);

  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->flushed_lsn(), l2);
  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].rec.data, "abc");
  EXPECT_EQ(scan.records[1].rec.data, "defg");
  EXPECT_EQ(scan.records[1].lsn, l2);
  EXPECT_EQ(scan.valid_end, l2);
}

TEST(WalLogManagerTest, AutoFlushMakesEveryAppendDurable) {
  MemoryDiskManager disk;
  LogManagerOptions opts;
  opts.auto_flush = true;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, opts, &wal).ok());

  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 5;
  Lsn lsn = wal->Append(rec);
  EXPECT_EQ(wal->flushed_lsn(), lsn);
  LogScanResult scan;
  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].rec.txn_id, 5u);
}

TEST(WalLogManagerTest, StreamSpansPages) {
  MemoryDiskManager disk;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, {}, &wal).ok());

  // A page-sized record cannot fit in one log page; plus enough small
  // records to cross another boundary.
  LogRecord big;
  big.type = LogRecordType::kSlotPut;
  big.page_id = 9;
  big.data.assign(kPageSize, 'z');
  wal->Append(big);
  LogRecord small;
  small.type = LogRecordType::kSlotPut;
  small.page_id = 2;
  for (int i = 0; i < 40; ++i) {
    small.data = "record-" + std::to_string(i) + std::string(100, 'a');
    small.slot = static_cast<uint32_t>(i);
    wal->Append(small);
  }
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_GT(disk.PageCount(), 2u);

  LogScanResult scan;
  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  ASSERT_EQ(scan.records.size(), 41u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records[0].rec.data.size(), kPageSize);
  EXPECT_EQ(scan.records[0].rec.data[100], 'z');
  EXPECT_EQ(scan.records[40].rec.slot, 39u);
  EXPECT_GT(scan.pages.size(), 1u);
}

TEST(WalLogManagerTest, ResumeContinuesMidPage) {
  MemoryDiskManager disk;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, {}, &wal).ok());
  LogRecord rec;
  rec.type = LogRecordType::kSlotPut;
  rec.page_id = 1;
  rec.data = "before-restart";
  wal->Append(rec);
  ASSERT_TRUE(wal->Flush().ok());

  LogScanResult scan;
  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);

  // Restart: resume at the intact end and keep appending.
  std::unique_ptr<LogManager> resumed;
  ASSERT_TRUE(LogManager::Resume(&disk, {}, scan.pages, scan.base,
                                 scan.valid_end, &resumed)
                  .ok());
  EXPECT_EQ(resumed->next_lsn(), scan.valid_end);
  rec.data = "after-restart";
  Lsn l2 = resumed->Append(rec);
  ASSERT_TRUE(resumed->Flush().ok());

  ASSERT_TRUE(ScanLog(&disk, &scan).ok());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].rec.data, "before-restart");
  EXPECT_EQ(scan.records[1].rec.data, "after-restart");
  EXPECT_EQ(scan.records[1].lsn, l2);
}

// One thread appends and flushes while another reads the counters and
// the log's extent, as a kStats request does beside a committing
// session. Every reader takes the log latch, so each counter snapshot is
// consistent (all records are the same size) and nothing runs backwards.
TEST(WalLogManagerTest, StatsReadWhileAppendingAndFlushing) {
  MemoryDiskManager disk;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, {}, &wal).ok());
  LogRecord rec;
  rec.type = LogRecordType::kSlotPut;
  rec.page_id = 1;
  rec.data.assign(100, 'w');
  const size_t record_bytes = EncodedLogRecordSize(rec);
  constexpr uint64_t kRecords = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> flush_failures{0};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= kRecords; ++i) {
      wal->Append(rec);
      if (i % 8 == 0 && !wal->Flush().ok()) ++flush_failures;
    }
    if (!wal->Flush().ok()) ++flush_failures;
    done = true;
  });
  LogManagerStats last;
  Lsn last_flushed = 0;
  size_t last_pages = 0;
  bool last_read = false;
  while (!last_read) {
    last_read = done.load();
    const LogManagerStats st = wal->stats();
    const Lsn flushed = wal->flushed_lsn();
    const size_t pages = wal->live_log_pages();
    EXPECT_EQ(st.bytes_appended, st.records_appended * record_bytes);
    EXPECT_GE(st.records_appended, last.records_appended);
    EXPECT_GE(st.flushes, last.flushes);
    EXPECT_GE(st.pages_written, last.pages_written);
    EXPECT_GE(flushed, last_flushed);
    EXPECT_GE(pages, last_pages);
    last = st;
    last_flushed = flushed;
    last_pages = pages;
    if (HasFailure()) break;  // the writer is still joined below
  }
  writer.join();
  if (HasFailure()) return;
  EXPECT_EQ(flush_failures.load(), 0);
  EXPECT_EQ(last.records_appended, kRecords);
  EXPECT_EQ(last_flushed, wal->next_lsn());
  EXPECT_GT(last_pages, 1u);
}

TEST(WalBufferPoolTest, WalRuleForcesLogBeforeWriteback) {
  auto owned = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* disk = owned.get();
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(disk, {}, &wal).ok());
  BufferPool pool(1, std::move(owned));
  pool.SetWal(wal.get());

  uint32_t p1;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&p1, &f).ok());
  InitHeapPage(f->data);
  LogRecord rec;
  rec.type = LogRecordType::kPageFormat;
  rec.page_id = p1;
  Lsn lsn = wal->Append(rec);
  SetPageLsn(f->data, lsn);
  ASSERT_TRUE(pool.UnpinPage(p1, /*dirty=*/true).ok());
  EXPECT_EQ(wal->flushed_lsn(), 0u);

  // Evicting the dirty page must force the log through its LSN first.
  uint32_t p2;
  ASSERT_TRUE(pool.NewPage(&p2, &f).ok());
  EXPECT_GE(wal->flushed_lsn(), lsn);
  EXPECT_GE(pool.stats().log_forces, 1u);
  ASSERT_TRUE(pool.UnpinPage(p2, /*dirty=*/false).ok());
}

TEST(WalBufferPoolTest, StealWritesTxnDirtyPagesAfterLogForce) {
  auto owned = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* disk = owned.get();
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(disk, {}, &wal).ok());
  BufferPool pool(1, std::move(owned));
  pool.SetWal(wal.get());

  // An in-flight transaction dirties a page; its undo information rides
  // inline in the same logged record.
  uint32_t pa;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&pa, &f).ok());
  InitHeapPage(f->data);
  f->data[100] = 't';
  LogRecord rec;
  rec.type = LogRecordType::kPageFormat;
  rec.txn_id = 7;
  rec.page_id = pa;
  Lsn start = 0;
  Lsn lsn = wal->Append(rec, &start);
  SetPageLsn(f->data, lsn);
  pool.NoteLoggedUpdate(f, start, 7);
  ASSERT_TRUE(pool.UnpinPage(pa, /*dirty=*/true).ok());
  // The first append of a fresh log starts at LSN 0 and must still count
  // as a redo constraint (not read as "clean").
  EXPECT_EQ(pool.MinDirtyRecLsn(), start);

  // Eviction pressure steals the page: with one frame and the log not
  // yet flushed, NewPage must force the log and write the page txn 7
  // dirtied before its commit record.
  EXPECT_EQ(wal->flushed_lsn(), 0u);
  uint32_t pb;
  ASSERT_TRUE(pool.NewPage(&pb, &f).ok());
  EXPECT_GE(wal->flushed_lsn(), lsn);
  EXPECT_EQ(pool.stats().pages_stolen, 1u);
  EXPECT_EQ(pool.MinDirtyRecLsn(), UINT64_MAX);  // stolen page is clean now
  char buf[kPageSize];
  ASSERT_TRUE(pool.disk()->ReadPage(pa, buf).ok());
  EXPECT_EQ(buf[100], 't');  // the uncommitted bytes reached disk

  // Txn 7 dirties the new page too, then its commit record is appended:
  // evicting that page afterwards writes it back but steals nothing.
  InitHeapPage(f->data);
  rec.page_id = pb;
  lsn = wal->Append(rec, &start);
  SetPageLsn(f->data, lsn);
  pool.NoteLoggedUpdate(f, start, 7);
  ASSERT_TRUE(pool.UnpinPage(pb, /*dirty=*/true).ok());
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = 7;
  wal->Append(commit);
  ASSERT_TRUE(pool.FetchPage(pa, &f).ok());
  EXPECT_EQ(pool.stats().dirty_writebacks, 2u);
  EXPECT_EQ(pool.stats().pages_stolen, 1u);
  ASSERT_TRUE(pool.UnpinPage(pa, /*dirty=*/false).ok());
}

TEST(WalRedoTest, PlaceRecordAtSlotGrowsDirectoryWithDeadSlots) {
  char page[kPageSize] = {};
  InitHeapPage(page);
  ASSERT_EQ(PlaceRecordAtSlot(page, 3, "cccc"), Placed::kInFreeSpace);
  EXPECT_EQ(PageSlotCount(page), 4u);
  EXPECT_EQ(SlotLength(page, 0), kDeadSlot);
  EXPECT_EQ(SlotLength(page, 2), kDeadSlot);
  EXPECT_EQ(SlotLength(page, 3), 4u);
  EXPECT_EQ(std::memcmp(page + SlotOffset(page, 3), "cccc", 4), 0);

  // Replacing a live slot keeps the directory size.
  ASSERT_EQ(PlaceRecordAtSlot(page, 3, "dd"), Placed::kInFreeSpace);
  EXPECT_EQ(PageSlotCount(page), 4u);
  EXPECT_EQ(SlotLength(page, 3), 2u);
  EXPECT_EQ(std::memcmp(page + SlotOffset(page, 3), "dd", 2), 0);
}

// A record that fits the caller's hole goes there, moving nothing and
// leaving the free space alone; one that does not takes the free space.
TEST(WalRedoTest, PlaceRecordAtSlotUsesAHoleTheRecordFits) {
  char page[kPageSize] = {};
  InitHeapPage(page);
  ASSERT_EQ(PlaceRecordAtSlot(page, 0, "aaaaaa"), Placed::kInFreeSpace);
  const PageHole hole{SlotOffset(page, 0), SlotLength(page, 0)};
  SetSlot(page, 0, 0, kDeadSlot);
  const uint16_t free_end = GetU16(page, kPageFreeEndOff);

  ASSERT_EQ(PlaceRecordAtSlot(page, 1, "bbbbbbb", &hole),
            Placed::kInFreeSpace);
  EXPECT_EQ(GetU16(page, kPageFreeEndOff), free_end - 7);
  ASSERT_EQ(PlaceRecordAtSlot(page, 2, "cccc", &hole), Placed::kInHole);
  EXPECT_EQ(GetU16(page, kPageFreeEndOff), free_end - 7);
  EXPECT_EQ(PageSlotCount(page), 3u);
  EXPECT_EQ(SlotOffset(page, 2), hole.offset);
  EXPECT_EQ(std::memcmp(page + hole.offset, "cccc", 4), 0);
  EXPECT_EQ(std::memcmp(page + SlotOffset(page, 1), "bbbbbbb", 7), 0);
}

TEST(WalRedoTest, RecoverLogFormatsAndFillsANeverWrittenPage) {
  MemoryDiskManager disk;
  std::unique_ptr<LogManager> wal;
  ASSERT_TRUE(LogManager::Create(&disk, {}, &wal).ok());
  uint32_t data_pid;
  ASSERT_TRUE(disk.AllocatePage(&data_pid).ok());

  // Log a page format (never written to the page itself — redo must
  // materialize it) followed by a slot put on top of it.
  LogRecord rec;
  rec.type = LogRecordType::kPageFormat;
  rec.page_id = data_pid;
  wal->Append(rec);
  rec.type = LogRecordType::kSlotPut;
  rec.slot = 0;
  rec.data = "payload";
  Lsn last = wal->Append(rec);
  ASSERT_TRUE(wal->Flush().ok());

  BufferPool pool(4, &disk);
  RecoveryResult rr;
  ASSERT_TRUE(RecoverLog(&pool, &rr).ok());
  EXPECT_EQ(rr.records_scanned, 2u);
  EXPECT_EQ(rr.records_redone, 2u);
  char page[kPageSize];
  ASSERT_TRUE(disk.ReadPage(data_pid, page).ok());
  ASSERT_TRUE(HeapPageLooksFormatted(page));
  ASSERT_EQ(PageSlotCount(page), 1u);
  EXPECT_EQ(std::memcmp(page + SlotOffset(page, 0), "payload", 7), 0);
  EXPECT_EQ(PageLsn(page), last);
}

}  // namespace
}  // namespace prodb
