#include "ruleindex/basic_locking.h"

#include <algorithm>

namespace prodb {

bool IndexedCondition::Matches(const Tuple& t) const {
  for (size_t a = 0; a < ranges.size() && a < t.arity(); ++a) {
    const Range& r = ranges[a];
    if (!r.lo.has_value() && !r.hi.has_value()) continue;
    if (!t[a].is_numeric()) return false;
    double v = t[a].numeric();
    if (r.lo.has_value() && v < *r.lo) return false;
    if (r.hi.has_value() && v > *r.hi) return false;
  }
  return true;
}

Status BasicLockingIndex::AddCondition(const IndexedCondition& cond) {
  Relation* rel = catalog_->Get(cond.relation);
  if (rel == nullptr) return Status::NotFound("relation " + cond.relation);
  if (conditions_.count(cond.id)) {
    return Status::AlreadyExists("condition " + std::to_string(cond.id));
  }
  conditions_[cond.id] = cond;

  // Mark every tuple the condition currently reads.
  auto& marks = markers_[cond.relation];
  PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId id, const Tuple& t) {
    if (cond.Matches(t)) marks[id].push_back(cond.id);
    return Status::OK();
  }));

  // Register the key-interval mark on the B+-tree (create it on first
  // use) so phantom insertions are caught.
  if (!rel->HasBTreeIndex(indexed_attr_)) {
    PRODB_RETURN_IF_ERROR(rel->CreateBTreeIndex(indexed_attr_));
  }
  BPlusTree* tree = rel->btree_index(indexed_attr_);
  const IndexedCondition::Range& r =
      static_cast<size_t>(indexed_attr_) < cond.ranges.size()
          ? cond.ranges[static_cast<size_t>(indexed_attr_)]
          : IndexedCondition::Range{};
  std::optional<Value> lo, hi;
  if (r.lo.has_value()) lo = Value(*r.lo);
  if (r.hi.has_value()) hi = Value(*r.hi);
  tree->MarkInterval(lo, hi, cond.id);
  return Status::OK();
}

Status BasicLockingIndex::RemoveCondition(uint32_t id) {
  auto it = conditions_.find(id);
  if (it == conditions_.end()) {
    return Status::NotFound("condition " + std::to_string(id));
  }
  Relation* rel = catalog_->Get(it->second.relation);
  if (rel != nullptr && rel->HasBTreeIndex(indexed_attr_)) {
    rel->btree_index(indexed_attr_)->UnmarkInterval(id);
  }
  auto& marks = markers_[it->second.relation];
  for (auto mit = marks.begin(); mit != marks.end();) {
    auto& v = mit->second;
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
    if (v.empty()) {
      mit = marks.erase(mit);
    } else {
      ++mit;
    }
  }
  conditions_.erase(it);
  return Status::OK();
}

Status BasicLockingIndex::OnInsert(const std::string& rel_name, TupleId id,
                                   const Tuple& t,
                                   std::vector<uint32_t>* affected) {
  affected->clear();
  Relation* rel = catalog_->Get(rel_name);
  if (rel == nullptr) return Status::NotFound("relation " + rel_name);

  // Candidates from the index interval marks covering the new key; an
  // unindexed relation degenerates to "every condition on the relation".
  std::vector<uint32_t> candidates;
  if (rel->HasBTreeIndex(indexed_attr_) &&
      static_cast<size_t>(indexed_attr_) < t.arity()) {
    candidates = rel->btree_index(indexed_attr_)
                     ->MarkersCovering(t[static_cast<size_t>(indexed_attr_)]);
  } else {
    for (const auto& [cid, cond] : conditions_) {
      if (cond.relation == rel_name) candidates.push_back(cid);
    }
  }
  // Verify candidates exactly; set markers on the new tuple.
  auto& marks = markers_[rel_name];
  for (uint32_t cid : candidates) {
    auto cit = conditions_.find(cid);
    if (cit == conditions_.end()) continue;
    if (cit->second.Matches(t)) {
      affected->push_back(cid);
      marks[id].push_back(cid);
    }
  }
  return Status::OK();
}

Status BasicLockingIndex::OnDelete(const std::string& rel_name, TupleId id,
                                   const Tuple& t,
                                   std::vector<uint32_t>* affected) {
  (void)t;
  affected->clear();
  auto rit = markers_.find(rel_name);
  if (rit == markers_.end()) return Status::OK();
  auto mit = rit->second.find(id);
  if (mit == rit->second.end()) return Status::OK();
  *affected = mit->second;
  rit->second.erase(mit);
  return Status::OK();
}

size_t BasicLockingIndex::FootprintBytes() const {
  size_t total = 0;
  for (const auto& [rel, marks] : markers_) {
    total += rel.size();
    for (const auto& [id, v] : marks) {
      total += sizeof(TupleId) + v.size() * sizeof(uint32_t) + 16;
    }
  }
  for (const auto& [id, cond] : conditions_) {
    total += sizeof(IndexedCondition) +
             cond.ranges.size() * sizeof(IndexedCondition::Range);
  }
  return total;
}

size_t BasicLockingIndex::MarkerCount() const {
  size_t total = 0;
  for (const auto& [rel, marks] : markers_) {
    for (const auto& [id, v] : marks) total += v.size();
  }
  return total;
}

}  // namespace prodb
