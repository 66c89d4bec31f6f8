#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <list>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace prodb {
namespace {

// Frame-accounting invariant, checked after every buffer-pool-touching
// test: no test may leave the pool with leaked frames or inconsistent
// page-table/LRU bookkeeping.
void ExpectPoolBalanced(const BufferPool& pool) {
  Status st = pool.VerifyFrameAccounting();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(MemoryDiskManagerTest, AllocateReadWrite) {
  MemoryDiskManager dm;
  uint32_t p0, p1;
  ASSERT_TRUE(dm.AllocatePage(&p0).ok());
  ASSERT_TRUE(dm.AllocatePage(&p1).ok());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  char buf[kPageSize];
  std::fill(buf, buf + kPageSize, 'x');
  ASSERT_TRUE(dm.WritePage(p1, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(p1, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(out[kPageSize - 1], 'x');
  // Fresh pages are zeroed.
  ASSERT_TRUE(dm.ReadPage(p0, out).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(MemoryDiskManagerTest, OutOfRangeRejected) {
  MemoryDiskManager dm;
  char buf[kPageSize];
  EXPECT_FALSE(dm.ReadPage(5, buf).ok());
  EXPECT_FALSE(dm.WritePage(5, buf).ok());
}

TEST(FileDiskManagerTest, PersistsAcrossReopen) {
  std::string path = testing::TempDir() + "/prodb_dm_test.db";
  auto pattern = [](uint32_t page, size_t i) {
    return static_cast<char>((page * 131 + i * 7) & 0xFF);
  };
  {
    std::unique_ptr<FileDiskManager> dm;
    ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
    for (uint32_t p = 0; p < 3; ++p) {
      uint32_t pid;
      ASSERT_TRUE(dm->AllocatePage(&pid).ok());
      ASSERT_EQ(pid, p);
      char buf[kPageSize];
      for (size_t i = 0; i < kPageSize; ++i) buf[i] = pattern(p, i);
      ASSERT_TRUE(dm->WritePage(pid, buf).ok());
    }
  }
  {
    std::unique_ptr<FileDiskManager> dm;
    ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/false, &dm).ok());
    EXPECT_EQ(dm->PageCount(), 3u);
    for (uint32_t p = 0; p < 3; ++p) {
      char out[kPageSize];
      ASSERT_TRUE(dm->ReadPage(p, out).ok());
      size_t differing = 0;
      for (size_t i = 0; i < kPageSize; ++i) {
        if (out[i] != pattern(p, i)) ++differing;
      }
      EXPECT_EQ(differing, 0u) << "page " << p;
    }
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, StreamFailureIsNotSticky) {
  std::string path = testing::TempDir() + "/prodb_dm_failbit.db";
  std::unique_ptr<FileDiskManager> dm;
  ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
  uint32_t pid;
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  char buf[kPageSize] = {};
  ASSERT_TRUE(dm->WritePage(pid, buf).ok());
  // One failed operation must not make every later operation fail: a
  // failed system call leaves the descriptor and the page count as they
  // were.
  dm->InjectIoFaultForTesting();
  EXPECT_FALSE(dm->ReadPage(pid, buf).ok());
  EXPECT_TRUE(dm->ReadPage(pid, buf).ok());
  dm->InjectIoFaultForTesting();
  EXPECT_FALSE(dm->WritePage(pid, buf).ok());
  EXPECT_TRUE(dm->WritePage(pid, buf).ok());
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, FailedAllocateDoesNotBurnPageId) {
  std::string path = testing::TempDir() + "/prodb_dm_alloc.db";
  std::unique_ptr<FileDiskManager> dm;
  ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
  uint32_t pid;
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(pid, 0u);
  // A failed allocate must not consume a page id: the id would be
  // in-range for ReadPage but its page was never zero-filled.
  dm->InjectIoFaultForTesting();
  EXPECT_FALSE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(dm->PageCount(), 1u);
  char buf[kPageSize];
  EXPECT_EQ(dm->ReadPage(1, buf).code(), Status::Code::kOutOfRange);
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(pid, 1u);  // the failed attempt's id is reissued
  EXPECT_TRUE(dm->ReadPage(1, buf).ok());
  std::remove(path.c_str());
}

TEST(BufferPoolTest, FetchHitsCache) {
  auto disk = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* raw = disk.get();
  BufferPool pool(4, std::move(disk));
  uint32_t pid;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&pid, &f).ok());
  f->data[0] = 'a';
  ASSERT_TRUE(pool.UnpinPage(pid, true).ok());
  uint64_t reads_before = raw->reads();
  ASSERT_TRUE(pool.FetchPage(pid, &f).ok());
  EXPECT_EQ(f->data[0], 'a');
  EXPECT_EQ(raw->reads(), reads_before);  // served from cache
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  auto disk = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* raw = disk.get();
  BufferPool pool(2, std::move(disk));
  uint32_t pids[3];
  for (int i = 0; i < 3; ++i) {
    Frame* f;
    ASSERT_TRUE(pool.NewPage(&pids[i], &f).ok());
    f->data[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(pool.UnpinPage(pids[i], true).ok());
  }
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  // The evicted first page must reload with its data intact.
  Frame* f;
  ASSERT_TRUE(pool.FetchPage(pids[0], &f).ok());
  EXPECT_EQ(f->data[0], 'a');
  ASSERT_TRUE(pool.UnpinPage(pids[0], false).ok());
  EXPECT_GT(raw->writes(), 0u);
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(2, std::make_unique<MemoryDiskManager>());
  uint32_t p0, p1, p2;
  Frame *f0, *f1, *f2;
  ASSERT_TRUE(pool.NewPage(&p0, &f0).ok());
  ASSERT_TRUE(pool.NewPage(&p1, &f1).ok());
  // Both frames pinned: a third page cannot be materialized.
  EXPECT_FALSE(pool.NewPage(&p2, &f2).ok());
  ASSERT_TRUE(pool.UnpinPage(p0, false).ok());
  EXPECT_TRUE(pool.NewPage(&p2, &f2).ok());
  ASSERT_TRUE(pool.UnpinPage(p1, false).ok());
  ASSERT_TRUE(pool.UnpinPage(p2, false).ok());
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, UnpinErrorsOnBadCalls) {
  BufferPool pool(2, std::make_unique<MemoryDiskManager>());
  EXPECT_FALSE(pool.UnpinPage(99, false).ok());
  uint32_t pid;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&pid, &f).ok());
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  EXPECT_FALSE(pool.UnpinPage(pid, false).ok());  // already unpinned
  ExpectPoolBalanced(pool);
}

// The replacement order the pool keeps, as the std::list LRU it
// replaced kept it: a reference model of residency, pins, dirty bits
// and the counters, for a disk whose writes never fail.
class ReferencePool {
 public:
  explicit ReferencePool(size_t capacity) : free_(capacity) {}

  // False when every frame is pinned (the pool's fetch fails too).
  bool Fetch(uint32_t pid) {
    auto it = pages_.find(pid);
    if (it != pages_.end()) {
      if (it->second.pins++ == 0) lru_.remove(pid);
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    if (!Victim()) return false;
    pages_[pid] = Page{1, false, 0};
    return true;
  }
  bool New(uint32_t pid) {
    if (!Victim()) return false;
    pages_[pid] = Page{1, true, 0};
    return true;
  }
  void Unpin(uint32_t pid, bool dirty) {
    Page& p = pages_.at(pid);
    p.dirty = p.dirty || dirty;
    if (--p.pins == 0) lru_.push_back(pid);
  }
  void NoteLogged(uint32_t pid, uint64_t start) {
    Page& p = pages_.at(pid);
    if (p.rec_lsn == 0) p.rec_lsn = start + 1;
  }
  void Flush(uint32_t pid) {
    auto it = pages_.find(pid);
    if (it != pages_.end()) Clean(&it->second);
  }
  void FlushAll() {
    for (auto& [pid, p] : pages_) Clean(&p);
  }
  void FlushDirtyBefore(uint64_t lsn) {
    for (auto& [pid, p] : pages_) {
      if (p.dirty && p.rec_lsn != 0 && p.rec_lsn - 1 < lsn) Clean(&p);
    }
  }
  const BufferPoolStats& stats() const { return stats_; }

 private:
  struct Page {
    int pins = 0;
    bool dirty = false;
    uint64_t rec_lsn = 0;
  };
  static void Clean(Page* p) {
    p->dirty = false;
    p->rec_lsn = 0;
  }
  bool Victim() {
    if (free_ > 0) {
      --free_;
      return true;
    }
    if (lru_.empty()) return false;
    const uint32_t pid = lru_.front();
    lru_.pop_front();
    if (pages_.at(pid).dirty) ++stats_.dirty_writebacks;
    pages_.erase(pid);
    ++stats_.evictions;
    return true;
  }

  size_t free_;
  std::map<uint32_t, Page> pages_;
  std::list<uint32_t> lru_;  // front = least recently used
  BufferPoolStats stats_;
};

// A small pool over more pages than frames, driven by a random mix of
// every entry point, keeps the reference model's counters after every
// step: the same hits, misses, evictions and dirty writebacks mean the
// same page was the victim at every miss. Every page also reads back
// the last bytes written to it.
TEST(BufferPoolTest, RandomOpsMatchListLru) {
  BufferPool pool(6, std::make_unique<MemoryDiskManager>());
  ReferencePool model(6);
  Rng rng(17);
  std::vector<uint32_t> pages;           // every page allocated
  std::map<uint32_t, uint32_t> written;  // page -> last stamp written
  std::multiset<uint32_t> pinned;
  std::map<uint32_t, Frame*> frames;     // pinned page -> its frame
  uint32_t stamp = 0;
  uint64_t lsn = 0;
  auto stamp_of = [](const Frame* f) {
    uint32_t v;
    std::memcpy(&v, f->data, sizeof(v));
    return v;
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 6 || pages.size() < 3) {
      uint32_t pid;
      Frame* f;
      const bool ok = pool.NewPage(&pid, &f).ok();
      if (ok) {
        ASSERT_TRUE(model.New(pid)) << "step " << step;
        pages.push_back(pid);
        written[pid] = 0;
        pinned.insert(pid);
        frames[pid] = f;
      } else {
        ASSERT_FALSE(model.New(UINT32_MAX)) << "step " << step;
      }
    } else if (op < 50) {
      const uint32_t pid = pages[rng.Uniform(pages.size())];
      Frame* f;
      const bool ok = pool.FetchPage(pid, &f).ok();
      ASSERT_EQ(ok, model.Fetch(pid)) << "step " << step;
      if (ok) {
        ASSERT_EQ(stamp_of(f), written[pid]) << "page " << pid;
        pinned.insert(pid);
        frames[pid] = f;
      }
    } else if (op < 85) {
      if (pinned.empty()) continue;
      auto it = pinned.begin();
      std::advance(it, rng.Uniform(pinned.size()));
      const uint32_t pid = *it;
      const bool dirty = rng.Chance(0.5);
      if (dirty) {
        std::memcpy(frames[pid]->data, &++stamp, sizeof(stamp));
        written[pid] = stamp;
        if (rng.Chance(0.5)) {
          lsn += 1 + rng.Uniform(50);
          pool.NoteLoggedUpdate(frames[pid], lsn, /*txn_id=*/0);
          model.NoteLogged(pid, lsn);
        }
      }
      ASSERT_TRUE(pool.UnpinPage(pid, dirty).ok());
      model.Unpin(pid, dirty);
      pinned.erase(it);
    } else if (op < 93) {
      const uint32_t pid = pages[rng.Uniform(pages.size())];
      ASSERT_TRUE(pool.FlushPage(pid).ok());
      model.Flush(pid);
    } else if (op < 96) {
      ASSERT_TRUE(pool.FlushAll().ok());
      model.FlushAll();
    } else {
      const uint64_t before = rng.Uniform(lsn + 1);
      ASSERT_TRUE(pool.FlushPagesDirtyBefore(before).ok());
      model.FlushDirtyBefore(before);
    }
    const BufferPoolStats got = pool.stats();
    const BufferPoolStats& want = model.stats();
    ASSERT_EQ(got.hits, want.hits) << "step " << step;
    ASSERT_EQ(got.misses, want.misses) << "step " << step;
    ASSERT_EQ(got.evictions, want.evictions) << "step " << step;
    ASSERT_EQ(got.dirty_writebacks, want.dirty_writebacks) << "step " << step;
    Status st = pool.VerifyFrameAccounting();
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
  }
  EXPECT_GT(pool.stats().evictions, 1000u);
  EXPECT_GT(pool.stats().dirty_writebacks, 100u);
  for (uint32_t pid : pinned) ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  for (uint32_t pid : pages) {
    Frame* f;
    ASSERT_TRUE(pool.FetchPage(pid, &f).ok());
    EXPECT_EQ(stamp_of(f), written[pid]) << "page " << pid;
    ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  }
  ExpectPoolBalanced(pool);
}

// Four threads pin, write and unpin pages of a 16-frame pool over 64
// pages, each thread holding up to two pins and writing only its own
// bytes of a page while it holds it pinned. Every thread reads back what
// it last wrote however often the page was evicted in between, and the
// pool's accounting balances at the end.
TEST(BufferPoolTest, ConcurrentPinUnpinDirtyStress) {
  BufferPool pool(16, std::make_unique<MemoryDiskManager>());
  constexpr int kThreads = 4;
  constexpr uint32_t kPages = 64;
  std::vector<uint32_t> pages;
  for (uint32_t i = 0; i < kPages; ++i) {
    uint32_t pid;
    Frame* f;
    ASSERT_TRUE(pool.NewPage(&pid, &f).ok());
    ASSERT_TRUE(pool.UnpinPage(pid, true).ok());
    pages.push_back(pid);
  }
  std::atomic<int> failures{0};
  std::atomic<uint64_t> fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 41);
      std::vector<uint64_t> mine(kPages, 0);  // last value written per page
      const size_t at = static_cast<size_t>(t) * sizeof(uint64_t);
      for (int i = 0; i < 4000; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kPages));
        const uint32_t b = static_cast<uint32_t>(rng.Uniform(kPages));
        Frame* fa;
        Frame* fb;
        if (!pool.FetchPage(pages[a], &fa).ok()) {
          ++failures;
          continue;
        }
        ++fetches;
        const bool two = a != b && rng.Chance(0.5);
        if (two) {
          if (!pool.FetchPage(pages[b], &fb).ok()) {
            ++failures;
            break;
          }
          ++fetches;
        }
        uint64_t seen;
        std::memcpy(&seen, fa->data + at, sizeof(seen));
        if (seen != mine[a]) ++failures;
        const bool dirty = rng.Chance(0.5);
        if (dirty) {
          ++mine[a];
          std::memcpy(fa->data + at, &mine[a], sizeof(mine[a]));
        }
        if (two && !pool.UnpinPage(pages[b], false).ok()) ++failures;
        if (!pool.UnpinPage(pages[a], dirty).ok()) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats st = pool.stats();
  EXPECT_EQ(st.hits + st.misses, fetches.load());
  EXPECT_GT(st.evictions, 0u);
  ExpectPoolBalanced(pool);
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<BufferPool>(
        16, std::make_unique<MemoryDiskManager>());
    ASSERT_TRUE(HeapFile::Create(pool_.get(), &hf_).ok());
  }
  void TearDown() override { ExpectPoolBalanced(*pool_); }
  Tuple MakeTuple(int i) {
    return Tuple{Value(i), Value("name" + std::to_string(i)), Value(i * 1.5)};
  }
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> hf_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  TupleId id;
  ASSERT_TRUE(hf_->Insert(MakeTuple(1), &id).ok());
  Tuple out;
  ASSERT_TRUE(hf_->Get(id, &out).ok());
  EXPECT_EQ(out, MakeTuple(1));
  EXPECT_EQ(hf_->TupleCount(), 1u);
}

TEST_F(HeapFileTest, GetMissingFails) {
  Tuple out;
  EXPECT_TRUE(hf_->Get(TupleId{0, 5}, &out).IsNotFound());
}

TEST_F(HeapFileTest, DeleteRemovesTuple) {
  TupleId id;
  ASSERT_TRUE(hf_->Insert(MakeTuple(1), &id).ok());
  ASSERT_TRUE(hf_->Delete(id).ok());
  Tuple out;
  EXPECT_TRUE(hf_->Get(id, &out).IsNotFound());
  EXPECT_TRUE(hf_->Delete(id).IsNotFound());  // double delete
  EXPECT_EQ(hf_->TupleCount(), 0u);
}

TEST_F(HeapFileTest, ScanVisitsAllLiveTuples) {
  std::vector<TupleId> ids(10);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(hf_->Insert(MakeTuple(i), &ids[static_cast<size_t>(i)]).ok());
  }
  ASSERT_TRUE(hf_->Delete(ids[3]).ok());
  ASSERT_TRUE(hf_->Delete(ids[7]).ok());
  int count = 0;
  ASSERT_TRUE(hf_->Scan([&](TupleId id, const Tuple&) {
                 EXPECT_NE(id, ids[3]);
                 EXPECT_NE(id, ids[7]);
                 ++count;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(count, 8);
}

TEST_F(HeapFileTest, SpillsAcrossPagesAndScans) {
  // Each tuple ~120 bytes; hundreds force multiple pages.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    TupleId id;
    ASSERT_TRUE(
        hf_->Insert(Tuple{Value(i), Value(std::string(100, 'a'))}, &id).ok());
  }
  EXPECT_GT(hf_->PageCount(), 3u);
  size_t count = 0;
  ASSERT_TRUE(hf_->Scan([&](TupleId, const Tuple&) {
                 ++count;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(count, static_cast<size_t>(n));
}

TEST_F(HeapFileTest, CompactionReclaimsDeletedSpace) {
  // Fill one page, delete everything, re-fill: should not grow by much.
  std::vector<TupleId> ids;
  for (int i = 0; i < 30; ++i) {
    TupleId id;
    ASSERT_TRUE(hf_->Insert(Tuple{Value(std::string(100, 'b'))}, &id).ok());
    ids.push_back(id);
  }
  size_t pages_before = hf_->PageCount();
  for (TupleId id : ids) ASSERT_TRUE(hf_->Delete(id).ok());
  for (int i = 0; i < 30; ++i) {
    TupleId id;
    ASSERT_TRUE(hf_->Insert(Tuple{Value(std::string(100, 'c'))}, &id).ok());
  }
  EXPECT_EQ(hf_->PageCount(), pages_before);
}

TEST_F(HeapFileTest, RejectsOversizedTuple) {
  TupleId id;
  Tuple huge{Value(std::string(kPageSize, 'x'))};
  EXPECT_TRUE(hf_->Insert(huge, &id).IsInvalidArgument());
}

TEST_F(HeapFileTest, ReopenFindsSameTuples) {
  std::vector<std::pair<TupleId, Tuple>> written;
  for (int i = 0; i < 100; ++i) {
    TupleId id;
    Tuple t = MakeTuple(i);
    ASSERT_TRUE(hf_->Insert(t, &id).ok());
    written.emplace_back(id, t);
  }
  uint32_t head = hf_->head_page_id();
  std::unique_ptr<HeapFile> reopened;
  ASSERT_TRUE(HeapFile::Open(pool_.get(), head, &reopened).ok());
  EXPECT_EQ(reopened->TupleCount(), 100u);
  for (const auto& [id, t] : written) {
    Tuple out;
    ASSERT_TRUE(reopened->Get(id, &out).ok());
    EXPECT_EQ(out, t);
  }
}

// A TupleId names a page, not a file: handed another file's id (a
// client's remove of a tuple of another class), Delete and Restore
// refuse it without touching the page, which belongs to the other file.
TEST_F(HeapFileTest, AnotherFilesTupleIdIsRefused) {
  std::unique_ptr<HeapFile> other;
  ASSERT_TRUE(HeapFile::Create(pool_.get(), &other).ok());
  TupleId id;
  ASSERT_TRUE(hf_->Insert(MakeTuple(1), &id).ok());
  EXPECT_TRUE(other->Delete(id).IsNotFound());
  EXPECT_FALSE(other->Restore(id, MakeTuple(2)).ok());
  Tuple out;
  ASSERT_TRUE(hf_->Get(id, &out).ok());
  EXPECT_EQ(out, MakeTuple(1));
  for (HeapFile* hf : {hf_.get(), other.get()}) {
    Status st = hf->VerifySpaceIndex();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

// Page choice reads the free-space index, not the pages: an insert into
// a heap of 1,000+ pages fetches the page it lands on (plus the old tail
// when it appends a page), never a walk over candidates.
TEST_F(HeapFileTest, InsertIntoThousandPageHeapFetchesAtMostTwoPages) {
  std::vector<TupleId> ids;
  for (int i = 0; i < 3300; ++i) {
    TupleId id;
    ASSERT_TRUE(
        hf_->Insert(Tuple{Value(i), Value(std::string(1000, 'p'))}, &id).ok());
    ids.push_back(id);
  }
  ASSERT_GE(hf_->PageCount(), 1000u);
  // Holes on scattered pages give best fit a choice.
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(hf_->Delete(ids[i]).ok());
  }
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const BufferPoolStats before = pool_->stats();
    TupleId id;
    Tuple t{Value(i), Value(std::string(rng.Uniform(1500), 'q'))};
    ASSERT_TRUE(hf_->Insert(t, &id).ok());
    const BufferPoolStats& after = pool_->stats();
    EXPECT_LE(after.hits + after.misses - before.hits - before.misses, 2u)
        << "insert " << i;
  }
  Status st = hf_->VerifySpaceIndex();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// In-hole placement. FillHeadPage leaves the head page with exactly one
// slot's worth of contiguous free space: 79 records of 47 bytes, one of
// 43 and their 80 four-byte slot entries take 4,076 of its 4,080 bytes.
class HeapFileHoleTest : public HeapFileTest {
 protected:
  static Tuple Row(char fill, size_t len = 38) {
    return Tuple{Value(std::string(len, fill))};
  }
  void FillHeadPage() {
    for (int i = 0; i < 80; ++i) {
      TupleId id;
      Tuple t = Row(static_cast<char>('a' + i % 26), i == 79 ? 34 : 38);
      ASSERT_TRUE(hf_->Insert(t, &id).ok());
      ASSERT_EQ(id.page_id, hf_->head_page_id());
      rows_.emplace(id, t);
    }
    ASSERT_EQ(hf_->PageCount(), 1u);
  }
  // Every row in rows_ reads back as written.
  void ExpectRowsIntact() {
    for (const auto& [id, t] : rows_) {
      Tuple out;
      ASSERT_TRUE(hf_->Get(id, &out).ok()) << id.ToString();
      EXPECT_EQ(out, t) << id.ToString();
    }
    EXPECT_EQ(hf_->TupleCount(), rows_.size());
    Status st = hf_->VerifySpaceIndex();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  // Deletes rows_[id] under the current scope and inserts `t`, which the
  // heap places on the deleted row's page first.
  TupleId Modify(TupleId id, const Tuple& t) {
    TupleId nid;
    EXPECT_TRUE(hf_->Delete(id).ok());
    EXPECT_TRUE(hf_->Insert(t, &nid).ok());
    rows_.erase(id);
    rows_.emplace(nid, t);
    return nid;
  }
  std::map<TupleId, Tuple> rows_;
};

// The page's only reclaimable record bytes are the modify's own delete's:
// the new version of the same size goes into them, on the same page,
// under the next slot, and nothing is compacted.
TEST_F(HeapFileHoleTest, SameSizeModifyWritesIntoItsOwnHole) {
  FillHeadPage();
  const TupleId old = rows_.begin()->first;
  const uint64_t compactions = hf_->compaction_count();
  WalTxnScope scope(1);
  const TupleId nid = Modify(old, Row('z'));
  EXPECT_EQ(nid.page_id, old.page_id);
  EXPECT_EQ(nid.slot_id, 80u);
  EXPECT_EQ(hf_->compaction_count(), compactions);
  ExpectRowsIntact();
  hf_->ReleaseReservations(1);
  ExpectRowsIntact();
}

// A larger new version does not fit the hole: the insert compacts the
// page as before, and every other record survives the move.
TEST_F(HeapFileHoleTest, LargerNewVersionFallsBackToCompaction) {
  FillHeadPage();
  auto it = rows_.begin();
  const TupleId spare = it->first;
  const TupleId old = (++it)->first;
  ASSERT_TRUE(hf_->Delete(spare).ok());  // auto-commit: room for anyone
  rows_.erase(spare);
  const uint64_t compactions = hf_->compaction_count();
  WalTxnScope scope(1);
  const TupleId nid = Modify(old, Row('z', 60));
  EXPECT_EQ(nid.page_id, old.page_id);
  EXPECT_EQ(hf_->compaction_count(), compactions + 1);
  ExpectRowsIntact();
  hf_->ReleaseReservations(1);
}

// Another key's insert compacts the page between a delete and its
// insert, moving records into the deleted bytes: the insert must not
// write into them.
TEST_F(HeapFileHoleTest, CompactionByAnotherKeyInvalidatesTheHole) {
  FillHeadPage();
  auto it = rows_.begin();
  const TupleId spare = it->first;
  const TupleId old = (++it)->first;
  ASSERT_TRUE(hf_->Delete(spare).ok());
  rows_.erase(spare);
  TupleId id;
  {
    WalTxnScope first(1);
    ASSERT_TRUE(hf_->Delete(old).ok());
    rows_.erase(old);
  }
  {
    WalTxnScope second(2);
    const Tuple other = Row('y', 31);
    ASSERT_TRUE(hf_->Insert(other, &id).ok());
    ASSERT_EQ(id.page_id, old.page_id);
    rows_.emplace(id, other);
  }
  const uint64_t compactions = hf_->compaction_count();
  ASSERT_GE(compactions, 1u);
  {
    WalTxnScope first(1);
    const Tuple next = Row('z');
    ASSERT_TRUE(hf_->Insert(next, &id).ok());
    EXPECT_EQ(id.page_id, old.page_id);
    rows_.emplace(id, next);
  }
  EXPECT_EQ(hf_->compaction_count(), compactions);
  ExpectRowsIntact();
  hf_->ReleaseReservations(1);
  hf_->ReleaseReservations(2);
  ExpectRowsIntact();
}

// Rolling back an in-hole modify (delete the new version, restore the old
// one under its id) brings the old version back, into the bytes undoing
// the insert freed: nothing is compacted.
TEST_F(HeapFileHoleTest, AbortAfterInHoleInsertRestoresTheOldVersion) {
  FillHeadPage();
  const TupleId old = rows_.begin()->first;
  const Tuple before = rows_.begin()->second;
  const uint64_t compactions = hf_->compaction_count();
  WalTxnScope scope(1);
  const TupleId nid = Modify(old, Row('z'));
  ASSERT_EQ(hf_->compaction_count(), compactions);
  ASSERT_TRUE(hf_->Delete(nid).ok());
  ASSERT_TRUE(hf_->Restore(old, before).ok());
  EXPECT_EQ(hf_->compaction_count(), compactions);
  rows_.erase(nid);
  rows_.emplace(old, before);
  hf_->ReleaseReservations(1);
  Tuple out;
  EXPECT_TRUE(hf_->Get(nid, &out).IsNotFound());
  ASSERT_TRUE(hf_->Get(old, &out).ok());
  EXPECT_EQ(out, before);
  ExpectRowsIntact();
}

// Best fit, on pages the tail page cannot stand in for. FillPages
// leaves `n` pages exactly full (80 records of 47 bytes and their 80
// slot entries take all 4,080 bytes of each); deleting k records of a
// page, outside any transaction, makes 47k bytes available there. An
// insert of 43 bytes needs 47 (its slot entry included).
class HeapFileBestFitTest : public HeapFileTest {
 protected:
  static Tuple Row(size_t len) { return Tuple{Value(std::string(len, 'r'))}; }
  void FillPages(size_t n) {
    for (size_t i = 0; i < 80 * n; ++i) {
      TupleId id;
      ASSERT_TRUE(hf_->Insert(Row(38), &id).ok());
      on_page_[id.page_id].push_back(id);
    }
    ASSERT_EQ(hf_->PageCount(), n);
    ASSERT_EQ(on_page_.size(), n);
    for (const auto& [pid, ids] : on_page_) pages_.push_back(pid);
  }
  // Deletes k records of the i-th page (in page id order).
  void Free(size_t i, size_t k) {
    std::vector<TupleId>& ids = on_page_[pages_[i]];
    for (size_t j = 0; j < k; ++j) {
      ASSERT_TRUE(hf_->Delete(ids.back()).ok());
      ids.pop_back();
    }
  }
  // The page an insert of a `need`-byte record (slot entry included)
  // lands on.
  uint32_t InsertNeeding(size_t need) {
    TupleId id;
    EXPECT_TRUE(hf_->Insert(Row(need - 4 - 9), &id).ok());
    Status st = hf_->VerifySpaceIndex();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return id.page_id;
  }
  std::map<uint32_t, std::vector<TupleId>> on_page_;
  std::vector<uint32_t> pages_;  // ascending page ids
};

TEST_F(HeapFileBestFitTest, EqualAvailableBytesPickTheLowestPageId) {
  FillPages(4);
  // Pages 1 and 2 end with 47 bytes each, filed in either order.
  Free(2, 1);
  Free(1, 1);
  EXPECT_EQ(InsertNeeding(47), pages_[1]);
  EXPECT_EQ(InsertNeeding(47), pages_[2]);
  Free(1, 1);
  Free(2, 1);
  EXPECT_EQ(InsertNeeding(47), pages_[1]);
  EXPECT_EQ(InsertNeeding(47), pages_[2]);
}

TEST_F(HeapFileBestFitTest, SmallerFitBeatsLargerFit) {
  FillPages(4);
  Free(1, 2);  // 94 bytes
  Free(2, 1);  // 47 bytes: the fullest page that still fits
  EXPECT_EQ(InsertNeeding(47), pages_[2]);
  EXPECT_EQ(InsertNeeding(47), pages_[1]);
  EXPECT_EQ(InsertNeeding(47), pages_[1]);
}

TEST_F(HeapFileBestFitTest, ChangedPageIsChosenByItsNewValue) {
  FillPages(4);
  Free(1, 2);  // 94 bytes
  Free(2, 3);  // 141 bytes
  EXPECT_EQ(InsertNeeding(47), pages_[1]);  // page 1 now has 47
  Free(1, 3);                               // and now 188
  EXPECT_EQ(InsertNeeding(47), pages_[2]);  // 141 < 188
  EXPECT_EQ(InsertNeeding(94), pages_[2]);  // 94 < 188; page 2 spent
  EXPECT_EQ(InsertNeeding(141), pages_[1]);
  EXPECT_EQ(InsertNeeding(47), pages_[1]);
  // No page has room left: a new page.
  const uint32_t fresh = InsertNeeding(47);
  EXPECT_EQ(hf_->PageCount(), 5u);
  EXPECT_EQ(on_page_.count(fresh), 0u);
}

// Four threads modify their own rows of a three-page heap in
// transactions that commit or roll back at random; every new version has
// its old one's size, so most land in their own delete's hole while the
// other threads' compactions and rollbacks move records on the same
// pages. Each row ends as its last committed version.
TEST(HeapFileProperty, ConcurrentSameSizeModifiesMatchModel) {
  BufferPool pool(16, std::make_unique<MemoryDiskManager>());
  std::unique_ptr<HeapFile> hf;
  ASSERT_TRUE(HeapFile::Create(&pool, &hf).ok());
  constexpr int kThreads = 4;
  constexpr int kRows = 56;  // 224 rows of 51 bytes: three pages
  struct Row {
    TupleId id;
    Tuple tuple;
  };
  auto version = [](int row, uint64_t n) {
    return Tuple{Value(int64_t{row}),
                 Value(std::string(30, static_cast<char>('a' + n % 26)))};
  };
  std::vector<std::vector<Row>> rows(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRows; ++i) {
      Row row{TupleId{}, version(t * kRows + i, 0)};
      ASSERT_TRUE(hf->Insert(row.tuple, &row.id).ok());
      rows[static_cast<size_t>(t)].push_back(row);
    }
  }
  ASSERT_EQ(hf->PageCount(), 3u);
  const uint64_t compactions = hf->compaction_count();
  std::atomic<int> failures{0};
  std::atomic<uint64_t> modifies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      std::vector<Row>& mine = rows[static_cast<size_t>(t)];
      for (uint64_t n = 1; n <= 300; ++n) {
        const uint64_t key = (static_cast<uint64_t>(t) + 1) << 32 | n;
        WalTxnScope scope(key);
        struct Undo {
          size_t row;
          Row old;
        };
        std::vector<Undo> undo;
        std::vector<Row> staged = mine;
        const size_t writes = 1 + rng.Uniform(4);
        for (size_t m = 0; m < writes; ++m) {
          const size_t r = rng.Uniform(staged.size());
          Row next{TupleId{}, version(staged[r].tuple[0].as_int(), n)};
          if (!hf->Delete(staged[r].id).ok() ||
              !hf->Insert(next.tuple, &next.id).ok()) {
            ++failures;
            continue;
          }
          undo.push_back({r, staged[r]});
          staged[r] = next;
          ++modifies;
        }
        if (rng.Chance(0.4)) {
          for (auto u = undo.rbegin(); u != undo.rend(); ++u) {
            if (!hf->Delete(staged[u->row].id).ok() ||
                !hf->Restore(u->old.id, u->old.tuple).ok()) {
              ++failures;
            }
            staged[u->row] = u->old;
          }
        }
        hf->ReleaseReservations(key);
        mine = std::move(staged);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(hf->TupleCount(), static_cast<size_t>(kThreads * kRows));
  for (const std::vector<Row>& mine : rows) {
    for (const Row& row : mine) {
      Tuple got;
      ASSERT_TRUE(hf->Get(row.id, &got).ok()) << row.id.ToString();
      EXPECT_EQ(got, row.tuple);
    }
  }
  Status st = hf->VerifySpaceIndex();
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Most modifies, and the rollbacks' restores, write into a hole.
  EXPECT_LT(hf->compaction_count() - compactions, modifies.load() / 2);
  ExpectPoolBalanced(pool);
}

// Property: random insert/delete/modify churn by interleaved transactions
// that commit or abort matches a reference map; every abort's restores
// find room; and after every step the free-space index agrees with the
// pages (kept free bytes == reclaimable bytes, reserved == the live
// transactions' reservations, index entry == free - reserved).
TEST(HeapFileProperty, RandomChurnMatchesReference) {
  BufferPool pool(8, std::make_unique<MemoryDiskManager>());
  std::unique_ptr<HeapFile> hf;
  ASSERT_TRUE(HeapFile::Create(&pool, &hf).ok());
  Rng rng(99);
  std::map<TupleId, Tuple> reference;
  // Transactions 1..3 (0 is auto-commit): each one's undo log, and the
  // tuples it inserted, which 2PL keeps from the others.
  struct UndoStep {
    bool inserted;
    TupleId id;
    Tuple tuple;
  };
  std::vector<UndoStep> undo[4];
  std::map<TupleId, uint64_t> owner;
  auto random_tuple = [&](size_t max_len, char fill) {
    return Tuple{Value(static_cast<int64_t>(rng.Uniform(1000))),
                 Value(std::string(rng.Uniform(max_len), fill))};
  };
  for (int step = 0; step < 2000; ++step) {
    const uint64_t txn = rng.Uniform(4);
    WalTxnScope scope(txn);
    int op = static_cast<int>(rng.Uniform(12));
    if (txn != 0 && op >= 10) {
      if (op == 11) {
        // Abort: undo in reverse, as Transaction::Rollback does.
        for (auto it = undo[txn].rbegin(); it != undo[txn].rend(); ++it) {
          Status st = it->inserted ? hf->Delete(it->id)
                                   : hf->Restore(it->id, it->tuple);
          ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
          if (it->inserted) {
            reference.erase(it->id);
          } else {
            reference[it->id] = it->tuple;
          }
        }
      }
      undo[txn].clear();
      for (auto it = owner.begin(); it != owner.end();) {
        it = it->second == txn ? owner.erase(it) : std::next(it);
      }
      hf->ReleaseReservations(txn);
    } else if (op < 6 || reference.empty()) {
      Tuple t = random_tuple(60, 's');
      TupleId id;
      ASSERT_TRUE(hf->Insert(t, &id).ok());
      reference[id] = t;
      if (txn != 0) {
        undo[txn].push_back({true, id, t});
        owner[id] = txn;
      }
    } else {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      auto own = owner.find(it->first);
      if (own != owner.end() && own->second != txn) {
        // X-locked by another transaction: this step writes nothing.
        Status inv = hf->VerifySpaceIndex();
        ASSERT_TRUE(inv.ok()) << "step " << step << ": " << inv.ToString();
        continue;
      }
      const TupleId id = it->first;
      const Tuple old = it->second;
      reference.erase(it);
      if (own != owner.end()) owner.erase(own);
      if (txn != 0) undo[txn].push_back({false, id, old});
      if (op < 8) {
        ASSERT_TRUE(hf->Delete(id).ok());
      } else {
        // A modify, under either writer: delete, then insert (under a
        // transaction, on the old page first).
        Tuple t = random_tuple(80, 'u');
        TupleId nid;
        ASSERT_TRUE(hf->Delete(id).ok());
        ASSERT_TRUE(hf->Insert(t, &nid).ok());
        if (txn != 0) {
          undo[txn].push_back({true, nid, t});
          owner[nid] = txn;
        }
        reference[nid] = t;
      }
    }
    Status inv = hf->VerifySpaceIndex();
    ASSERT_TRUE(inv.ok()) << "step " << step << ": " << inv.ToString();
  }
  for (uint64_t txn = 1; txn < 4; ++txn) hf->ReleaseReservations(txn);
  Status inv = hf->VerifySpaceIndex();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  EXPECT_EQ(hf->TupleCount(), reference.size());
  size_t seen = 0;
  ASSERT_TRUE(hf->Scan([&](TupleId id, const Tuple& t) {
                 auto it = reference.find(id);
                 EXPECT_NE(it, reference.end());
                 if (it != reference.end()) EXPECT_EQ(it->second, t);
                 ++seen;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, reference.size());
  ExpectPoolBalanced(pool);
}

}  // namespace
}  // namespace prodb
