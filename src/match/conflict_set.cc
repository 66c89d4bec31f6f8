#include "match/conflict_set.h"

namespace prodb {

constexpr TupleId Instantiation::kNoTuple;

std::string Instantiation::Key() const { return KeyOf(rule_index, tuple_ids); }

std::string Instantiation::KeyOf(int rule_index,
                                 const std::vector<TupleId>& tuple_ids) {
  std::string key = std::to_string(rule_index);
  for (const TupleId& id : tuple_ids) {
    key += "|" + std::to_string(id.page_id) + "." + std::to_string(id.slot_id);
  }
  return key;
}

std::string Instantiation::ToString() const {
  std::string out = rule_name + "[";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i) out += ", ";
    out += tuple_ids[i] == kNoTuple ? "-" : tuples[i].ToString();
  }
  return out + "]";
}

void ConflictSet::SetDeltaListener(DeltaListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

bool ConflictSet::InsertLocked(Instantiation inst) {
  std::string key = inst.Key();
  auto hint = items_.lower_bound(key);
  if (hint != items_.end() && hint->first == key) return false;
  inst.recency = next_recency_++;
  auto it = items_.emplace_hint(hint, std::move(key), std::move(inst));
  // Stamps only grow, so the new member is always the index's last.
  by_recency_.emplace_hint(by_recency_.end(), it->second.recency, it);
  ++total_added_;
  NotifyLocked(/*added=*/true, it->first, &it->second);
  return true;
}

ConflictSet::Items::node_type ConflictSet::ExtractLocked(
    Items::const_iterator it) {
  by_recency_.erase(it->second.recency);
  return items_.extract(it);
}

bool ConflictSet::Add(Instantiation inst) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(std::move(inst));
}

bool ConflictSet::Remove(const Instantiation& inst) {
  return RemoveByKey(inst.Key());
}

void ConflictSet::ApplyOps(ConflictOpBuffer* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ConflictOpBuffer::Op& op : buf->ops_) {
    if (op.add) {
      InsertLocked(std::move(op.inst));
      continue;
    }
    auto it = items_.find(op.key);
    if (it == items_.end()) continue;
    NotifyLocked(/*added=*/false, op.key, nullptr);
    ExtractLocked(it);
  }
  buf->clear();
}

bool ConflictSet::RemoveByKey(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(key);
  if (it == items_.end()) return false;
  NotifyLocked(/*added=*/false, key, nullptr);
  ExtractLocked(it);
  return true;
}

size_t ConflictSet::RemoveIf(
    const std::function<bool(const Instantiation&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    if (pred(it->second)) {
      NotifyLocked(/*added=*/false, it->first, nullptr);
      ExtractLocked(it++);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

bool ConflictSet::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.count(key) > 0;
}

bool ConflictSet::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.empty();
}

size_t ConflictSet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

std::vector<Instantiation> ConflictSet::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Instantiation> out;
  out.reserve(items_.size());
  for (const auto& [key, inst] : items_) out.push_back(inst);
  return out;
}

std::vector<uint64_t> ConflictSet::CountByRule(size_t num_rules) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> counts(num_rules, 0);
  for (const auto& [key, inst] : items_) {
    if (inst.rule_index >= 0 &&
        static_cast<size_t>(inst.rule_index) < num_rules) {
      ++counts[static_cast<size_t>(inst.rule_index)];
    }
  }
  return counts;
}

bool ConflictSet::Take(const Chooser& chooser, Instantiation* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return false;
  View::const_iterator pick = chooser(View(&items_, &by_recency_));
  if (pick == items_.end()) return false;
  *out = std::move(ExtractLocked(pick).mapped());
  return true;
}

void ConflictSet::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_recency_.clear();
  items_.clear();
}

uint64_t ConflictSet::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

}  // namespace prodb
