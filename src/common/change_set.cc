#include "common/change_set.h"

namespace prodb {

size_t ChangeSet::AddModify(const std::string& relation, TupleId old_id,
                            const Tuple& old_tuple, const Tuple& new_tuple,
                            TupleId new_id) {
  size_t del = AddDelete(relation, old_id, old_tuple);
  size_t ins = AddInsert(relation, new_tuple, new_id);
  LinkModify(del, ins);
  return ins;
}

void ChangeSet::LinkModify(size_t del, size_t ins) {
  deltas_[del].modify_partner = static_cast<int32_t>(ins);
  deltas_[ins].modify_partner = static_cast<int32_t>(del);
}

ChangeSet ChangeSet::Inverse() const {
  ChangeSet inv;
  inv.deltas_.reserve(deltas_.size());
  for (auto it = deltas_.rbegin(); it != deltas_.rend(); ++it) {
    Delta d = *it;
    d.kind = d.is_insert() ? DeltaKind::kDelete : DeltaKind::kInsert;
    // The flipped insert keeps the deleted tuple's original id: with
    // maintenance deferred to the commit point, the matcher's stored
    // state still references that id, so compensation must restore the
    // tuple's identity, not just its value (Relation::Restore).
    d.modify_partner = Delta::kNoPartner;
    inv.deltas_.push_back(std::move(d));
  }
  // Re-link modify pairs at their mirrored positions.
  const int32_t n = static_cast<int32_t>(deltas_.size());
  for (int32_t i = 0; i < n; ++i) {
    if (deltas_[static_cast<size_t>(i)].modify_partner != Delta::kNoPartner) {
      int32_t partner = deltas_[static_cast<size_t>(i)].modify_partner;
      inv.deltas_[static_cast<size_t>(n - 1 - i)].modify_partner =
          n - 1 - partner;
    }
  }
  return inv;
}

size_t ChangeSet::InsertCount() const {
  size_t n = 0;
  for (const Delta& d : deltas_) n += d.is_insert() ? 1 : 0;
  return n;
}

size_t ChangeSet::DeleteCount() const {
  size_t n = 0;
  for (const Delta& d : deltas_) n += d.is_delete() ? 1 : 0;
  return n;
}

std::string ChangeSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < deltas_.size(); ++i) {
    const Delta& d = deltas_[i];
    if (i > 0) out += ", ";
    out += d.is_insert() ? "+" : "-";
    out += d.relation + "/" + d.id.ToString();
    if (d.is_modify_half()) out += "*";
  }
  out += "}";
  return out;
}

}  // namespace prodb
