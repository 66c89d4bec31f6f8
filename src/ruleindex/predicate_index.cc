#include "ruleindex/predicate_index.h"

namespace prodb {

Box PredicateIndex::CondBox(const IndexedCondition& cond) const {
  Box box = Box::Infinite(dims_);
  for (size_t a = 0; a < dims_ && a < cond.ranges.size(); ++a) {
    if (cond.ranges[a].lo.has_value()) box.lo[a] = *cond.ranges[a].lo;
    if (cond.ranges[a].hi.has_value()) box.hi[a] = *cond.ranges[a].hi;
  }
  return box;
}

Status PredicateIndex::AddCondition(const IndexedCondition& cond) {
  if (conditions_.count(cond.id)) {
    return Status::AlreadyExists("condition " + std::to_string(cond.id));
  }
  auto it = trees_.find(cond.relation);
  if (it == trees_.end()) {
    it = trees_.emplace(cond.relation, std::make_unique<RTree>(dims_)).first;
  }
  it->second->Insert(CondBox(cond), cond.id);
  conditions_[cond.id] = cond;
  return Status::OK();
}

Status PredicateIndex::RemoveCondition(uint32_t id) {
  auto it = conditions_.find(id);
  if (it == conditions_.end()) {
    return Status::NotFound("condition " + std::to_string(id));
  }
  auto tit = trees_.find(it->second.relation);
  if (tit != trees_.end()) {
    tit->second->Remove(CondBox(it->second), id);
  }
  conditions_.erase(it);
  return Status::OK();
}

Status PredicateIndex::Affected(const std::string& rel, const Tuple& t,
                                std::vector<uint32_t>* affected) const {
  affected->clear();
  auto it = trees_.find(rel);
  if (it == trees_.end()) return Status::OK();
  std::vector<double> point(dims_, 0.0);
  for (size_t a = 0; a < dims_ && a < t.arity(); ++a) {
    if (!t[a].is_numeric()) {
      // A non-numeric value cannot fall inside a bounded interval; treat
      // it as matching only fully unbounded dimensions by projecting to
      // an off-scale coordinate.
      point[a] = std::numeric_limits<double>::infinity();
    } else {
      point[a] = t[a].numeric();
    }
  }
  for (uint64_t id : it->second->SearchPoint(point)) {
    affected->push_back(static_cast<uint32_t>(id));
  }
  return Status::OK();
}

Status PredicateIndex::OnInsert(const std::string& rel, TupleId, const Tuple& t,
                                std::vector<uint32_t>* affected) {
  // "Using Predicate Indexing implies no special treatment of insertions
  // to base relations" — the cost is the tree search itself.
  return Affected(rel, t, affected);
}

Status PredicateIndex::OnDelete(const std::string& rel, TupleId, const Tuple& t,
                                std::vector<uint32_t>* affected) {
  return Affected(rel, t, affected);
}

size_t PredicateIndex::FootprintBytes() const {
  size_t total = 0;
  for (const auto& [rel, tree] : trees_) {
    // Entries dominate: box (2 * dims doubles) + id + node overhead.
    total += tree->size() * (2 * dims_ * sizeof(double) + 24);
  }
  for (const auto& [id, cond] : conditions_) {
    total += sizeof(IndexedCondition) +
             cond.ranges.size() * sizeof(IndexedCondition::Range);
  }
  return total;
}

}  // namespace prodb
