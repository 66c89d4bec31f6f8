#ifndef PRODB_STORAGE_DISK_MANAGER_H_
#define PRODB_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace prodb {

/// Fixed page size used throughout the storage engine.
inline constexpr size_t kPageSize = 4096;

/// Abstraction over the page-granular backing store.
///
/// The paper's premise is that "large knowledge bases cannot, and perhaps
/// should not, reside in main memory" (§1) — working memory lives on
/// secondary storage. The DiskManager is that secondary storage. Two
/// implementations are provided: a real file (FileDiskManager) and an
/// in-memory store (MemoryDiskManager) so unit tests and benchmarks can
/// run without filesystem effects while exercising identical code paths.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Allocates a zeroed page and returns its id via *page_id. Recycled
  /// pages (see FreePage) are preferred over growing the store; either
  /// way the page is zero on disk when the call returns — callers (log
  /// chain scans, page-LSN gating) rely on fresh pages reading as zero.
  virtual Status AllocatePage(uint32_t* page_id) = 0;

  /// Returns `page_id` to the allocator's free list for reuse by a later
  /// AllocatePage. Metadata-only (no I/O, cannot fail); the caller is
  /// responsible for ensuring nothing references the page any more. The
  /// default implementation leaks the page (a store may not support
  /// reuse).
  virtual void FreePage(uint32_t page_id) { (void)page_id; }

  /// Replaces the free list wholesale — restart recovery re-seeds it
  /// from the WAL anchor after subtracting pages the log still
  /// references.
  virtual void SeedFreePages(const std::vector<uint32_t>& pages) {
    (void)pages;
  }

  /// Current free-list contents (unspecified order).
  virtual std::vector<uint32_t> FreePages() const { return {}; }

  /// How many AllocatePage calls were satisfied from the free list.
  virtual uint64_t pages_reused() const { return 0; }

  /// Reads page `page_id` into `out` (exactly kPageSize bytes).
  virtual Status ReadPage(uint32_t page_id, char* out) = 0;

  /// Writes exactly kPageSize bytes from `data` to page `page_id`.
  virtual Status WritePage(uint32_t page_id, const char* data) = 0;

  /// Number of pages ever allocated.
  virtual uint32_t PageCount() const = 0;

  /// Total physical reads / writes, for the I/O-cost benchmarks.
  virtual uint64_t reads() const = 0;
  virtual uint64_t writes() const = 0;
};

/// DiskManager over an ordinary file. Thread-safe.
///
/// Pages move with pread(2)/pwrite(2) at their offset on one file
/// descriptor: no seek, no user-space buffer, exactly kPageSize bytes per
/// call. A write lands in the OS page cache; nothing here calls fsync.
class FileDiskManager : public DiskManager {
 public:
  /// Creates (truncating) or opens the file at `path`.
  static Status Open(const std::string& path, bool truncate,
                     std::unique_ptr<FileDiskManager>* out);
  ~FileDiskManager() override;

  Status AllocatePage(uint32_t* page_id) override;
  void FreePage(uint32_t page_id) override;
  void SeedFreePages(const std::vector<uint32_t>& pages) override;
  std::vector<uint32_t> FreePages() const override;
  uint64_t pages_reused() const override;
  Status ReadPage(uint32_t page_id, char* out) override;
  Status WritePage(uint32_t page_id, const char* data) override;
  uint32_t PageCount() const override;
  uint64_t reads() const override { return reads_; }
  uint64_t writes() const override { return writes_; }

  /// Makes the next read, write or allocate fail in its system call —
  /// the only deterministic way to exercise the real I/O error paths
  /// (the manager stays usable, an allocate's id is not burned) without
  /// faulting the OS.
  void InjectIoFaultForTesting();

 private:
  FileDiskManager(int fd, std::string path, uint32_t page_count)
      : fd_(fd), path_(std::move(path)), page_count_(page_count) {}

  /// The descriptor the next transfer uses: -1, once, after
  /// InjectIoFaultForTesting. Caller holds mu_.
  int TransferFd();

  mutable std::mutex mu_;
  const int fd_;
  const std::string path_;
  bool fail_next_ = false;
  uint32_t page_count_ = 0;
  std::vector<uint32_t> free_list_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t pages_reused_ = 0;
};

/// DiskManager over a heap-allocated page vector. Thread-safe.
class MemoryDiskManager : public DiskManager {
 public:
  Status AllocatePage(uint32_t* page_id) override;
  void FreePage(uint32_t page_id) override;
  void SeedFreePages(const std::vector<uint32_t>& pages) override;
  std::vector<uint32_t> FreePages() const override;
  uint64_t pages_reused() const override;
  Status ReadPage(uint32_t page_id, char* out) override;
  Status WritePage(uint32_t page_id, const char* data) override;
  uint32_t PageCount() const override;
  uint64_t reads() const override { return reads_; }
  uint64_t writes() const override { return writes_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<char>> pages_;
  std::vector<uint32_t> free_list_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t pages_reused_ = 0;
};

}  // namespace prodb

#endif  // PRODB_STORAGE_DISK_MANAGER_H_
