#include "db/relation.h"

namespace prodb {

Relation::Relation(Schema schema)
    : schema_(std::move(schema)), kind_(StorageKind::kMemory) {}

Status Relation::CreatePaged(Schema schema, BufferPool* pool,
                             std::unique_ptr<Relation>* out) {
  auto rel = std::unique_ptr<Relation>(
      new Relation(std::move(schema), StorageKind::kPaged));
  PRODB_RETURN_IF_ERROR(HeapFile::Create(pool, &rel->heap_));
  *out = std::move(rel);
  return Status::OK();
}

Status Relation::OpenPaged(Schema schema, BufferPool* pool,
                           uint32_t head_page_id,
                           std::unique_ptr<Relation>* out) {
  auto rel = std::unique_ptr<Relation>(
      new Relation(std::move(schema), StorageKind::kPaged));
  PRODB_RETURN_IF_ERROR(HeapFile::Open(pool, head_page_id, &rel->heap_));
  *out = std::move(rel);
  return Status::OK();
}

uint32_t Relation::head_page_id() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return heap_ != nullptr ? heap_->head_page_id() : UINT32_MAX;
}

void Relation::IndexInsert(const Tuple& t, TupleId id) {
  for (auto& [attr, idx] : hash_indexes_) {
    idx->Insert(t[static_cast<size_t>(attr)], id);
  }
  for (auto& [attr, idx] : btree_indexes_) {
    idx->Insert(t[static_cast<size_t>(attr)], id);
  }
}

void Relation::IndexRemove(const Tuple& t, TupleId id) {
  for (auto& [attr, idx] : hash_indexes_) {
    idx->Remove(t[static_cast<size_t>(attr)], id);
  }
  for (auto& [attr, idx] : btree_indexes_) {
    idx->Remove(t[static_cast<size_t>(attr)], id);
  }
}

Status Relation::Insert(const Tuple& tuple, TupleId* id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        name() + ": arity mismatch, got " + std::to_string(tuple.arity()) +
        " want " + std::to_string(schema_.arity()));
  }
  if (kind_ == StorageKind::kMemory) {
    id->page_id = next_row_++;
    id->slot_id = 0;
    // Measure the stored copy, not the argument: FootprintBytes is
    // capacity-dependent and Delete subtracts the stored copy's value —
    // measuring the argument lets mem_bytes_ drift under churn.
    auto it = rows_.emplace(*id, tuple).first;
    mem_bytes_ += it->second.FootprintBytes();
  } else {
    PRODB_RETURN_IF_ERROR(heap_->Insert(tuple, id));
  }
  IndexInsert(tuple, *id);
  return Status::OK();
}

Status Relation::Get(TupleId id, Tuple* out) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (kind_ == StorageKind::kMemory) {
    auto it = rows_.find(id);
    if (it == rows_.end()) return Status::NotFound("tuple " + id.ToString());
    *out = it->second;
    return Status::OK();
  }
  return heap_->Get(id, out);
}

bool Relation::Contains(TupleId id, const Tuple& tuple) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (kind_ == StorageKind::kMemory) {
    auto it = rows_.find(id);
    return it != rows_.end() && it->second == tuple;
  }
  Tuple stored;
  return heap_->Get(id, &stored).ok() && stored == tuple;
}

Status Relation::Delete(TupleId id, Tuple* old) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Tuple removed;
  if (kind_ == StorageKind::kMemory) {
    auto it = rows_.find(id);
    if (it == rows_.end()) return Status::NotFound("tuple " + id.ToString());
    removed = std::move(it->second);
    mem_bytes_ -= removed.FootprintBytes();
    rows_.erase(it);
  } else {
    // The heap hands back the tuple it removes: index maintenance needs
    // it, and so may the caller, from the one page fetch.
    PRODB_RETURN_IF_ERROR(heap_->Delete(id, &removed));
  }
  IndexRemove(removed, id);
  if (old != nullptr) *old = std::move(removed);
  return Status::OK();
}

Status Relation::Restore(TupleId id, const Tuple& tuple) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(name() + ": arity mismatch on restore");
  }
  if (kind_ == StorageKind::kMemory) {
    auto [it, inserted] = rows_.emplace(id, tuple);
    if (!inserted) return Status::AlreadyExists("tuple " + id.ToString());
    mem_bytes_ += it->second.FootprintBytes();
    if (id.page_id >= next_row_) next_row_ = id.page_id + 1;
  } else {
    PRODB_RETURN_IF_ERROR(heap_->Restore(id, tuple));
  }
  IndexInsert(tuple, id);
  return Status::OK();
}

void Relation::ReleaseReservations(uint64_t txn) {
  // heap_ is fixed at construction and locks itself.
  if (heap_ != nullptr) heap_->ReleaseReservations(txn);
}

size_t Relation::Count() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return kind_ == StorageKind::kMemory ? rows_.size() : heap_->TupleCount();
}

size_t Relation::dead_slot_count() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return kind_ == StorageKind::kMemory ? 0 : heap_->dead_slot_count();
}

uint64_t Relation::compaction_count() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return kind_ == StorageKind::kMemory ? 0 : heap_->compaction_count();
}

Status Relation::Scan(
    const std::function<Status(TupleId, const Tuple&)>& fn) const {
  if (kind_ == StorageKind::kMemory) {
    // Copy out under the lock, then invoke callbacks lock-free so they may
    // re-enter the relation.
    std::vector<std::pair<TupleId, Tuple>> snapshot;
    {
      std::lock_guard<std::recursive_mutex> lock(mu_);
      snapshot.reserve(rows_.size());
      for (const auto& [id, t] : rows_) snapshot.emplace_back(id, t);
    }
    for (const auto& [id, t] : snapshot) {
      PRODB_RETURN_IF_ERROR(fn(id, t));
    }
    return Status::OK();
  }
  return heap_->Scan(fn);
}

Status Relation::Select(const Selection& sel,
                        std::vector<std::pair<TupleId, Tuple>>* out) const {
  out->clear();
  // Index fast path: any equality test on an indexed attribute narrows
  // the candidates to a probe.
  for (const ConstantTest& c : sel.tests) {
    if (c.op != CompareOp::kEq) continue;
    std::lock_guard<std::recursive_mutex> lock(mu_);
    auto hit = hash_indexes_.find(c.attr);
    const std::vector<TupleId>* ids = nullptr;
    std::vector<TupleId> btree_ids;
    if (hit != hash_indexes_.end()) {
      ids = hit->second->Lookup(c.constant);
      if (ids == nullptr) return Status::OK();
    } else {
      auto bit = btree_indexes_.find(c.attr);
      if (bit == btree_indexes_.end()) continue;
      btree_ids = bit->second->Lookup(c.constant);
      ids = &btree_ids;
    }
    for (TupleId id : *ids) {
      Tuple t;
      PRODB_RETURN_IF_ERROR(Get(id, &t));
      if (sel.Matches(t)) out->emplace_back(id, std::move(t));
    }
    return Status::OK();
  }
  return Scan([&](TupleId id, const Tuple& t) {
    if (sel.Matches(t)) out->emplace_back(id, t);
    return Status::OK();
  });
}

Status Relation::LookupEq(int attr, const Value& value,
                          std::vector<TupleId>* out) const {
  out->clear();
  {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    auto hit = hash_indexes_.find(attr);
    if (hit != hash_indexes_.end()) {
      const std::vector<TupleId>* ids = hit->second->Lookup(value);
      if (ids != nullptr) *out = *ids;
      return Status::OK();
    }
    auto bit = btree_indexes_.find(attr);
    if (bit != btree_indexes_.end()) {
      *out = bit->second->Lookup(value);
      return Status::OK();
    }
  }
  return Scan([&](TupleId id, const Tuple& t) {
    if (t[static_cast<size_t>(attr)] == value) out->push_back(id);
    return Status::OK();
  });
}

Status Relation::CreateHashIndex(int attr) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (attr < 0 || attr >= static_cast<int>(schema_.arity())) {
    return Status::InvalidArgument("no attribute " + std::to_string(attr));
  }
  if (hash_indexes_.count(attr)) {
    return Status::AlreadyExists("hash index on attr " + std::to_string(attr));
  }
  auto idx = std::make_unique<HashIndex>();
  PRODB_RETURN_IF_ERROR(Scan([&](TupleId id, const Tuple& t) {
    idx->Insert(t[static_cast<size_t>(attr)], id);
    return Status::OK();
  }));
  hash_indexes_[attr] = std::move(idx);
  return Status::OK();
}

Status Relation::CreateBTreeIndex(int attr) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (attr < 0 || attr >= static_cast<int>(schema_.arity())) {
    return Status::InvalidArgument("no attribute " + std::to_string(attr));
  }
  if (btree_indexes_.count(attr)) {
    return Status::AlreadyExists("btree index on attr " +
                                 std::to_string(attr));
  }
  auto idx = std::make_unique<BPlusTree>();
  PRODB_RETURN_IF_ERROR(Scan([&](TupleId id, const Tuple& t) {
    idx->Insert(t[static_cast<size_t>(attr)], id);
    return Status::OK();
  }));
  btree_indexes_[attr] = std::move(idx);
  return Status::OK();
}

bool Relation::HasHashIndex(int attr) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return hash_indexes_.count(attr) > 0;
}

bool Relation::HasBTreeIndex(int attr) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return btree_indexes_.count(attr) > 0;
}

BPlusTree* Relation::btree_index(int attr) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = btree_indexes_.find(attr);
  return it == btree_indexes_.end() ? nullptr : it->second.get();
}

size_t Relation::FootprintBytes() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (kind_ == StorageKind::kMemory) return mem_bytes_;
  return heap_->PageCount() * kPageSize;
}

}  // namespace prodb
