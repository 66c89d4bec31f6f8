#include "db/catalog.h"

#include <algorithm>

#include "storage/disk_manager.h"

namespace prodb {

namespace {

/// The directory's own schema: one row per durable relation.
Schema DirectorySchema() {
  return Schema("__prodb_directory",
                {{"class", ValueType::kSymbol},
                 {"head_page", ValueType::kInt},
                 {"signature", ValueType::kSymbol}});
}

/// "name:T,name:T,..." — enough to catch schema drift across restart.
std::string SchemaSignature(const Schema& schema) {
  std::string sig;
  for (const Attribute& a : schema.attributes()) {
    if (!sig.empty()) sig += ',';
    sig += a.name;
    sig += ':';
    sig += std::to_string(static_cast<int>(a.type));
  }
  return sig;
}

}  // namespace

Catalog::Catalog(CatalogOptions options) : options_(std::move(options)) {}

Status Catalog::EnsurePool() {
  if (pool_ != nullptr) return Status::OK();
  if (options_.disk != nullptr) {
    pool_ = std::make_unique<BufferPool>(options_.buffer_pool_frames,
                                         options_.disk);
  } else {
    std::unique_ptr<DiskManager> disk;
    if (!options_.db_path.empty()) {
      std::unique_ptr<FileDiskManager> fdm;
      PRODB_RETURN_IF_ERROR(FileDiskManager::Open(
          options_.db_path, /*truncate=*/!options_.open_existing, &fdm));
      disk = std::move(fdm);
    } else {
      disk = std::make_unique<MemoryDiskManager>();
    }
    pool_ = std::make_unique<BufferPool>(options_.buffer_pool_frames,
                                         std::move(disk));
  }
  if (options_.enable_wal) {
    LogManagerOptions lopts;
    lopts.auto_flush = options_.wal_auto_flush;
    DiskManager* disk = pool_->disk();
    if (disk->PageCount() == 0) {
      // Fresh database: the log head claims the first page.
      PRODB_RETURN_IF_ERROR(LogManager::Create(disk, lopts, &wal_));
    } else {
      // Restart over an existing image (clean shutdown or crash): redo
      // history from the last checkpoint, roll back losers, truncate the
      // torn tail, resume appends past the recovery-written CLRs.
      PRODB_RETURN_IF_ERROR(RecoverLog(pool_.get(), &recovery_));
      PRODB_RETURN_IF_ERROR(LogManager::Resume(disk, lopts,
                                               recovery_.log_pages,
                                               recovery_.log_base,
                                               recovery_.log_end, &wal_));
    }
    pool_->SetWal(wal_.get());
    if (options_.durable_directory) {
      PRODB_RETURN_IF_ERROR(
          OpenDirectoryLocked(/*fresh_log=*/disk->PageCount() <= 2));
    }
  }
  return Status::OK();
}

Status Catalog::OpenDirectoryLocked(bool fresh_log) {
  if (fresh_log) {
    // Fresh database: the directory claims the page right after the log
    // head, the one page id a restarted process can assume.
    PRODB_RETURN_IF_ERROR(
        Relation::CreatePaged(DirectorySchema(), pool_.get(), &directory_));
    if (directory_->head_page_id() != kDirectoryHeadPageId) {
      return Status::Internal(
          "directory head landed on page " +
          std::to_string(directory_->head_page_id()) +
          "; the durable directory must be created before any other "
          "allocation");
    }
    // Harden the directory's existence immediately: every later restart
    // may assume that a valid log anchor implies an openable directory.
    return wal_->Flush();
  }
  // Restart: reopen the directory at its fixed page and load entries.
  Status st = Relation::OpenPaged(DirectorySchema(), pool_.get(),
                                  kDirectoryHeadPageId, &directory_);
  if (!st.ok()) {
    // A crash between db creation and the directory-creation flush above
    // leaves an image with zero durable state (that flush precedes any
    // ack), so recovering to an empty database is correct — recreate,
    // provided the fixed page is still obtainable. Anything else is real
    // corruption: refusing here beats silently breaking every future
    // restart.
    if (recovery_.records_redone != 0) return st;
    PRODB_RETURN_IF_ERROR(
        Relation::CreatePaged(DirectorySchema(), pool_.get(), &directory_));
    if (directory_->head_page_id() != kDirectoryHeadPageId) {
      return Status::Corruption(
          "directory unreadable at page " +
          std::to_string(kDirectoryHeadPageId) +
          " and the page cannot be re-claimed; recreate the database");
    }
    return wal_->Flush();
  }
  Status scan = directory_->Scan([&](TupleId, const Tuple& t) {
    if (t.arity() != 3 || !t[0].is_symbol() || !t[1].is_int() ||
        !t[2].is_symbol()) {
      return Status::Corruption("malformed directory row");
    }
    DirectoryEntry e;
    e.head_page = static_cast<uint32_t>(t[1].as_int());
    e.signature = t[2].as_symbol();
    directory_entries_[t[0].as_symbol()] = std::move(e);
    return Status::OK();
  });
  return scan;
}

Status Catalog::CreateRelation(const Schema& schema, Relation** out) {
  std::lock_guard<std::mutex> lock(mu_);
  return CreateRelationLocked(schema, options_.default_storage, out);
}

Status Catalog::CreateRelation(const Schema& schema, StorageKind kind,
                               Relation** out) {
  std::lock_guard<std::mutex> lock(mu_);
  return CreateRelationLocked(schema, kind, out);
}

Status Catalog::CreateRelationLocked(const Schema& schema, StorageKind kind,
                                     Relation** out) {
  if (relations_.count(schema.name())) {
    return Status::AlreadyExists("relation " + schema.name());
  }
  std::unique_ptr<Relation> rel;
  if (kind == StorageKind::kPaged) {
    PRODB_RETURN_IF_ERROR(EnsurePool());
    PRODB_RETURN_IF_ERROR(Relation::CreatePaged(schema, pool_.get(), &rel));
  } else {
    rel = std::make_unique<Relation>(schema);
  }
  *out = rel.get();
  relations_.emplace(schema.name(), std::move(rel));
  return Status::OK();
}

Status Catalog::CreateDurableRelation(const Schema& schema, Relation** out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.durable_directory) {
    return CreateRelationLocked(schema, options_.default_storage, out);
  }
  if (!options_.enable_wal) {
    return Status::InvalidArgument(
        "durable_directory requires enable_wal");
  }
  if (relations_.count(schema.name())) {
    return Status::AlreadyExists("relation " + schema.name());
  }
  PRODB_RETURN_IF_ERROR(EnsurePool());
  auto it = directory_entries_.find(schema.name());
  if (it != directory_entries_.end()) {
    // Reopened database: the heap file survived, adopt it — after
    // checking the caller still means the same relation.
    if (it->second.signature != SchemaSignature(schema)) {
      return Status::InvalidArgument(
          "schema drift across restart for " + schema.name() +
          ": stored " + it->second.signature + ", declared " +
          SchemaSignature(schema));
    }
    std::unique_ptr<Relation> rel;
    PRODB_RETURN_IF_ERROR(Relation::OpenPaged(schema, pool_.get(),
                                              it->second.head_page, &rel));
    *out = rel.get();
    relations_.emplace(schema.name(), std::move(rel));
    return Status::OK();
  }
  std::unique_ptr<Relation> rel;
  PRODB_RETURN_IF_ERROR(Relation::CreatePaged(schema, pool_.get(), &rel));
  // Record it in the directory. The row rides the WAL as an auto-commit
  // record; the first durable ack (or ForceDurable) hardens it together
  // with the relation's page formats.
  TupleId row_id;
  PRODB_RETURN_IF_ERROR(directory_->Insert(
      Tuple{Value(schema.name()),
            Value(static_cast<int64_t>(rel->head_page_id())),
            Value(SchemaSignature(schema))},
      &row_id));
  directory_entries_[schema.name()] =
      DirectoryEntry{rel->head_page_id(), SchemaSignature(schema)};
  *out = rel.get();
  relations_.emplace(schema.name(), std::move(rel));
  return Status::OK();
}

std::vector<std::string> Catalog::DurableClasses() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(directory_entries_.size());
  for (const auto& [name, entry] : directory_entries_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status Catalog::AdoptPaged(const Schema& schema, uint32_t head_page_id,
                           Relation** out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (relations_.count(schema.name())) {
    return Status::AlreadyExists("relation " + schema.name());
  }
  PRODB_RETURN_IF_ERROR(EnsurePool());
  std::unique_ptr<Relation> rel;
  PRODB_RETURN_IF_ERROR(
      Relation::OpenPaged(schema, pool_.get(), head_page_id, &rel));
  *out = rel.get();
  relations_.emplace(schema.name(), std::move(rel));
  return Status::OK();
}

Relation* Catalog::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Status Catalog::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation " + name);
  }
  return Status::OK();
}

std::vector<std::string> Catalog::RelationNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

size_t Catalog::RelationCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return relations_.size();
}

size_t Catalog::FootprintBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    total += rel->FootprintBytes();
  }
  return total;
}

BufferPool* Catalog::buffer_pool() {
  std::lock_guard<std::mutex> lock(mu_);
  // A pool-creation failure surfaces as nullptr here; callers that need
  // the error itself go through Recover().
  Status st = EnsurePool();
  if (!st.ok()) return nullptr;
  return pool_.get();
}

LogManager* Catalog::wal() {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.get();
}

Status Catalog::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  PRODB_RETURN_IF_ERROR(EnsurePool());
  if (wal_ == nullptr) {
    return Status::NotSupported("checkpoint requires enable_wal");
  }
  // Two-checkpoint rule: pages dirtied before the *previous* checkpoint
  // are written back first, so this checkpoint's redo point lands at or
  // past it and the live log stays bounded even when hot pages never
  // leave the pool. The checkpoint stays fuzzy: the engine keeps
  // running, and anything dirtied after the sample lands above the
  // recorded redo point by construction.
  PRODB_RETURN_IF_ERROR(
      pool_->FlushPagesDirtyBefore(wal_->checkpoint_lsn()));
  return wal_->Checkpoint(pool_->MinDirtyRecLsn());
}

DurabilityStats Catalog::GetDurabilityStats() {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats out;
  if (wal_ != nullptr) {
    const LogManagerStats ws = wal_->stats();
    out.wal_records_appended = ws.records_appended;
    out.wal_bytes_appended = ws.bytes_appended;
    out.wal_flushes = ws.flushes;
    out.wal_pages_written = ws.pages_written;
    out.wal_live_pages = wal_->live_log_pages();
    out.checkpoints_taken = ws.checkpoints_taken;
    out.log_pages_recycled = ws.pages_recycled;
  }
  if (pool_ != nullptr) {
    const BufferPoolStats ps = pool_->stats();
    out.pages_stolen = ps.pages_stolen;
    out.log_forces = ps.log_forces;
    out.disk_pages_reused = pool_->disk()->pages_reused();
  }
  out.durable_forces = durable_forces_;
  return out;
}

Status Catalog::ForceDurable(Lsn* durable_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_lsn != nullptr) *durable_lsn = 0;
  if (wal_ == nullptr) return Status::OK();
  ++durable_forces_;
  PRODB_RETURN_IF_ERROR(wal_->Flush());
  if (durable_lsn != nullptr) *durable_lsn = wal_->flushed_lsn();
  return Status::OK();
}

uint64_t Catalog::recovered_max_txn_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.max_txn_id;
}

Status Catalog::Recover(RecoveryResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  PRODB_RETURN_IF_ERROR(EnsurePool());
  *out = recovery_;
  return Status::OK();
}

}  // namespace prodb
