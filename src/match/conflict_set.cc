#include "match/conflict_set.h"

#include <algorithm>
#include <charconv>

namespace prodb {

constexpr TupleId Instantiation::kNoTuple;

std::string Instantiation::Key() const { return KeyOf(rule_index, tuple_ids); }

std::string Instantiation::KeyOf(int rule_index,
                                 const std::vector<TupleId>& tuple_ids) {
  // "rule|page.slot|page.slot...", written in place: no temporaries.
  std::string key;
  char digits[16];
  auto append = [&](auto number) {
    key.append(digits,
               std::to_chars(digits, digits + sizeof(digits), number).ptr);
  };
  append(rule_index);
  for (const TupleId& id : tuple_ids) {
    key += '|';
    append(id.page_id);
    key += '.';
    append(id.slot_id);
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
  auto [it, added] = items_.try_emplace(inst.Key(), std::move(inst));
  if (!added) return false;
  Entry* entry = &*it;
  Member& member = entry->second;
  member.recency = next_recency_++;
  // Stamps only grow, so the new member is always the list's newest.
  member.older_ = newest_;
  (newest_ != nullptr ? newest_->second.newer_ : oldest_) = entry;
  newest_ = entry;
  if (key_order_) key_order_->insert(entry);
  ++total_added_;
  NotifyLocked(/*added=*/true, entry->first, &member);
  return true;
}

ConflictSet::Items::node_type ConflictSet::ExtractLocked(Items::iterator it) {
  Member& member = it->second;
  (member.older_ != nullptr ? member.older_->second.newer_ : oldest_) =
      member.newer_;
  (member.newer_ != nullptr ? member.newer_->second.older_ : newest_) =
      member.older_;
  if (key_order_) key_order_->erase(&*it);
  return items_.extract(it);
}

std::vector<const ConflictSet::Entry*> ConflictSet::SortedByKeyLocked()
    const {
  std::vector<const Entry*> out;
  out.reserve(items_.size());
  for (const Entry& entry : items_) out.push_back(&entry);
  std::sort(out.begin(), out.end(), KeyLess());
  return out;
}

const ConflictSet::KeyOrder& ConflictSet::KeyOrderLocked() const {
  if (!key_order_) {
    std::vector<const Entry*> sorted = SortedByKeyLocked();
    key_order_.emplace(sorted.begin(), sorted.end());
  }
  return *key_order_;
}

ConflictSet::View::const_iterator ConflictSet::View::NthInKeyOrder(
    size_t k) const {
  const size_t n = size();
  if (k >= n) return end();
  const KeyOrder& order = set_->KeyOrderLocked();
  if (k < n - k) {
    return const_iterator(*std::next(order.begin(),
                                     static_cast<std::ptrdiff_t>(k)));
  }
  return const_iterator(*std::prev(order.end(),
                                   static_cast<std::ptrdiff_t>(n - k)));
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
  std::vector<const Entry*> removed;
  for (const Entry* e = oldest_; e != nullptr; e = e->second.newer_) {
    if (pred(e->second)) removed.push_back(e);
  }
  std::sort(removed.begin(), removed.end(), KeyLess());
  for (const Entry* e : removed) {
    NotifyLocked(/*added=*/false, e->first, nullptr);
    ExtractLocked(items_.find(e->first));
  }
  return removed.size();
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
  for (const Entry* e : SortedByKeyLocked()) out.push_back(e->second);
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
  View::const_iterator pick = chooser(View(this));
  if (pick == View::const_iterator()) return false;
  *out = std::move(ExtractLocked(items_.find(pick->first)).mapped());
  return true;
}

void ConflictSet::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  items_.clear();
  oldest_ = newest_ = nullptr;
  if (key_order_) key_order_->clear();
}

uint64_t ConflictSet::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

}  // namespace prodb
