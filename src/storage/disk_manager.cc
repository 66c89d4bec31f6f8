#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

namespace prodb {

namespace {

static_assert(sizeof(off_t) >= 8, "page offsets need a 64-bit off_t");

const char kZeroPage[kPageSize] = {};

// Moves page `page_id`'s kPageSize bytes with `io` (::pread or ::pwrite),
// looping over EINTR and short transfers. A read that meets the end of
// the file fails: the page was counted but never written.
template <typename Io, typename Buf>
Status TransferPage(Io io, int fd, Buf* buf, uint32_t page_id,
                    const char* what, const std::string& path) {
  const off_t base = static_cast<off_t>(page_id) * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = io(fd, buf + done, kPageSize - done,
                   base + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const char* why = n < 0 ? std::strerror(errno) : "unexpected end of file";
      return Status::IOError(std::string(what) + " failed: " + path + ": " +
                             why);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status FileDiskManager::Open(const std::string& path, bool truncate,
                             std::unique_ptr<FileDiskManager>* out) {
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status err =
        Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  *out = std::unique_ptr<FileDiskManager>(new FileDiskManager(
      fd, path, static_cast<uint32_t>(st.st_size / kPageSize)));
  return Status::OK();
}

FileDiskManager::~FileDiskManager() { ::close(fd_); }

int FileDiskManager::TransferFd() {
  if (!fail_next_) return fd_;
  fail_next_ = false;
  return -1;  // the call fails with EBADF
}

Status FileDiskManager::AllocatePage(uint32_t* page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Recycled or fresh, the page is handed out only after its zero-fill
  // write lands; otherwise a failed allocate would burn a page id (or
  // pop a free-list entry) that ReadPage then accepts as in-range
  // garbage — and a recycled page must read as zero, not as the stale
  // log page it used to be.
  bool reuse = !free_list_.empty();
  uint32_t candidate = reuse ? free_list_.back() : page_count_;
  PRODB_RETURN_IF_ERROR(TransferPage(::pwrite, TransferFd(), kZeroPage,
                                     candidate, "allocate", path_));
  if (reuse) {
    free_list_.pop_back();
    ++pages_reused_;
  } else {
    page_count_ = candidate + 1;
  }
  *page_id = candidate;
  ++writes_;
  return Status::OK();
}

void FileDiskManager::FreePage(uint32_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id < page_count_) free_list_.push_back(page_id);
}

void FileDiskManager::SeedFreePages(const std::vector<uint32_t>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  free_list_.clear();
  for (uint32_t pid : pages) {
    if (pid < page_count_) free_list_.push_back(pid);
  }
}

std::vector<uint32_t> FileDiskManager::FreePages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_list_;
}

uint64_t FileDiskManager::pages_reused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_reused_;
}

Status FileDiskManager::ReadPage(uint32_t page_id, char* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(page_id));
  }
  PRODB_RETURN_IF_ERROR(
      TransferPage(::pread, TransferFd(), out, page_id, "read", path_));
  ++reads_;
  return Status::OK();
}

Status FileDiskManager::WritePage(uint32_t page_id, const char* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(page_id));
  }
  PRODB_RETURN_IF_ERROR(
      TransferPage(::pwrite, TransferFd(), data, page_id, "write", path_));
  ++writes_;
  return Status::OK();
}

void FileDiskManager::InjectIoFaultForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_ = true;
}

uint32_t FileDiskManager::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

Status MemoryDiskManager::AllocatePage(uint32_t* page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_list_.empty()) {
    uint32_t pid = free_list_.back();
    free_list_.pop_back();
    // Recycled pages must read as zero, same as fresh ones.
    pages_[pid].assign(kPageSize, 0);
    ++pages_reused_;
    *page_id = pid;
    return Status::OK();
  }
  *page_id = static_cast<uint32_t>(pages_.size());
  pages_.emplace_back(kPageSize, 0);
  return Status::OK();
}

void MemoryDiskManager::FreePage(uint32_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id < pages_.size()) free_list_.push_back(page_id);
}

void MemoryDiskManager::SeedFreePages(const std::vector<uint32_t>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  free_list_.clear();
  for (uint32_t pid : pages) {
    if (pid < pages_.size()) free_list_.push_back(pid);
  }
}

std::vector<uint32_t> MemoryDiskManager::FreePages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_list_;
}

uint64_t MemoryDiskManager::pages_reused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_reused_;
}

Status MemoryDiskManager::ReadPage(uint32_t page_id, char* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(page_id));
  }
  std::memcpy(out, pages_[page_id].data(), kPageSize);
  ++reads_;
  return Status::OK();
}

Status MemoryDiskManager::WritePage(uint32_t page_id, const char* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(page_id));
  }
  std::memcpy(pages_[page_id].data(), data, kPageSize);
  ++writes_;
  return Status::OK();
}

uint32_t MemoryDiskManager::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(pages_.size());
}

}  // namespace prodb
