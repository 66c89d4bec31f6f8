#include "txn/lock_manager.h"

namespace prodb {

namespace {
// `res` keyed by its relation's interned id `rel`.
LockKey KeyOf(uint32_t rel, const ResourceId& res) {
  return res.whole_relation ? LockKey::Rel(rel) : LockKey::Tup(rel, res.tuple);
}
}  // namespace

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kX: return "X";
  }
  return "?";
}

bool LockCompatible(LockMode held, LockMode wanted) {
  // Standard hierarchical matrix (no SIX):
  //        IS   IX   S    X
  //  IS    y    y    y    n
  //  IX    y    y    n    n
  //  S     y    n    y    n
  //  X     n    n    n    n
  switch (held) {
    case LockMode::kIS:
      return wanted != LockMode::kX;
    case LockMode::kIX:
      return wanted == LockMode::kIS || wanted == LockMode::kIX;
    case LockMode::kS:
      return wanted == LockMode::kIS || wanted == LockMode::kS;
    case LockMode::kX:
      return false;
  }
  return false;
}

bool LockCovers(LockMode held, LockMode wanted) {
  if (held == wanted) return true;
  switch (held) {
    case LockMode::kX:
      return true;
    case LockMode::kS:
      return wanted == LockMode::kIS;
    case LockMode::kIX:
      return wanted == LockMode::kIS;
    case LockMode::kIS:
      return false;
  }
  return false;
}

LockMode LockJoin(LockMode a, LockMode b) {
  if (LockCovers(a, b)) return a;
  if (LockCovers(b, a)) return b;
  // Remaining incomparable pairs: {S, IX} (and symmetric) -> X, since we
  // do not model SIX; {IS, anything} is always comparable.
  return LockMode::kX;
}

std::string ResourceId::ToString() const {
  if (whole_relation) return relation;
  return relation + tuple.ToString();
}

LockManager::Request* LockManager::Entry::Find(uint64_t txn) {
  for (size_t i = 0; i < count_; ++i) {
    if ((*this)[i].txn == txn) return &(*this)[i];
  }
  return nullptr;
}

void LockManager::Entry::Add(const Request& r) {
  if (count_ < kInline) {
    inline_[count_] = r;
  } else {
    more_.push_back(r);
  }
  ++count_;
}

void LockManager::Entry::Erase(Request* r) {
  Request& last = (*this)[count_ - 1];
  if (r != &last) *r = last;
  if (count_ > kInline) more_.pop_back();
  --count_;
}

bool LockManager::Entry::Grantable(uint64_t txn, LockMode mode) const {
  for (size_t i = 0; i < count_; ++i) {
    const Request& r = (*this)[i];
    if (!r.granted || r.txn == txn) continue;
    if (!LockCompatible(r.mode, mode)) return false;
  }
  return true;
}

bool LockManager::HasCycleFrom(uint64_t start) const {
  // Iterative DFS from `start`; a path back to `start` is a deadlock.
  std::vector<uint64_t> stack;
  std::set<uint64_t> visited;
  auto it = waits_for_.find(start);
  if (it == waits_for_.end()) return false;
  for (uint64_t t : it->second) stack.push_back(t);
  while (!stack.empty()) {
    uint64_t t = stack.back();
    stack.pop_back();
    if (t == start) return true;
    if (!visited.insert(t).second) continue;
    auto jt = waits_for_.find(t);
    if (jt == waits_for_.end()) continue;
    for (uint64_t n : jt->second) stack.push_back(n);
  }
  return false;
}

uint32_t LockManager::Intern(const std::string& relation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, added] = relation_ids_.try_emplace(
      relation, static_cast<uint32_t>(relation_names_.size()));
  if (added) relation_names_.push_back(relation);
  return it->second;
}

std::vector<LockKey>& LockManager::HeldBy(uint64_t txn) {
  if (last_held_ == nullptr || last_txn_ != txn) {
    last_txn_ = txn;
    last_held_ = &held_[txn];
  }
  return *last_held_;
}

Status LockManager::Acquire(uint64_t txn, const ResourceId& res,
                            LockMode mode, TxnWaiter* waiter) {
  return Acquire(txn, KeyOf(Intern(res.relation), res), mode, waiter);
}

Status LockManager::Acquire(uint64_t txn, const LockKey& key, LockMode mode,
                            TxnWaiter* waiter) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry& q = table_[key];
  Request* self = q.Find(txn);
  if (self == nullptr) {
    if (q.Grantable(txn, mode)) {
      q.Add(Request{txn, mode, true});
      HeldBy(txn).push_back(key);
      return Status::OK();
    }
    q.Add(Request{txn, mode, false});
  } else if (self->granted) {
    if (LockCovers(self->mode, mode)) return Status::OK();
    mode = LockJoin(self->mode, mode);  // in-place upgrade target
    if (q.Grantable(txn, mode)) {
      self->mode = mode;
      return Status::OK();
    }
    // An upgrade that must wait keeps its old mode granted meanwhile, so
    // others see the conflict only through it; the joined mode replaces
    // it once grantable.
  }
  return Wait(lock, txn, key, q, mode, waiter);
}

Status LockManager::Wait(std::unique_lock<std::mutex>& lock, uint64_t txn,
                         const LockKey& key, Entry& q, LockMode mode,
                         TxnWaiter* waiter) {
  // `q` stays put while this request is in it: hash-map entries do not
  // move, and a non-empty one is not erased. Requests within it do move,
  // so ours is looked up again after every wait.
  bool told = false;  // the waiter has heard Waiting()
  Status result;
  for (;;) {
    // Record waits-for edges to the conflicting holders.
    std::set<uint64_t>& edges = waits_for_[txn];
    edges.clear();
    for (size_t i = 0; i < q.size(); ++i) {
      const Request& r = q[i];
      if (r.granted && r.txn != txn && !LockCompatible(r.mode, mode)) {
        edges.insert(r.txn);
      }
    }
    if (HasCycleFrom(txn)) {
      ++deadlocks_;
      waits_for_.erase(txn);
      // Remove a pure waiter; keep an existing granted (pre-upgrade) lock.
      Request* self = q.Find(txn);
      if (!self->granted) {
        q.Erase(self);
        if (q.empty()) table_.erase(key);
      }
      cv_.notify_all();
      ResourceId res{relation_names_[key.relation], key.whole_relation,
                     key.tuple};
      result = Status::Deadlock("txn " + std::to_string(txn) + " on " +
                                res.ToString());
      break;
    }
    if (waiter != nullptr && !told) {
      // Outside mu_, since the waiter may block. Our request stays queued
      // with its waits-for edges meanwhile, so `q` stays valid; a release
      // in between is seen by the check below.
      lock.unlock();
      waiter->Waiting();
      told = true;
      lock.lock();
    } else {
      // Re-check grantability with a bounded wait so that releases on
      // other resources (which change the waits-for graph) are observed.
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (q.Grantable(txn, mode)) {
      waits_for_.erase(txn);
      Request* self = q.Find(txn);
      if (!self->granted) HeldBy(txn).push_back(key);
      self->mode = mode;
      self->granted = true;
      break;
    }
  }
  lock.unlock();
  if (told) waiter->Resumed();
  return result;
}

void LockManager::ReleaseAll(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto held = held_.find(txn);
  if (held != held_.end()) {
    for (const LockKey& key : held->second) {
      auto it = table_.find(key);
      Entry& q = it->second;
      Request* r = q.Find(txn);
      if (r != nullptr && r->granted) q.Erase(r);
      if (q.empty()) table_.erase(it);
    }
    if (last_held_ == &held->second) last_held_ = nullptr;
    held_.erase(held);
  }
  // Only a waiting request has waits-for edges, or needs waking.
  if (!waits_for_.empty()) {
    waits_for_.erase(txn);
    for (auto& [t, s] : waits_for_) s.erase(txn);
    cv_.notify_all();
  }
}

bool LockManager::Holds(uint64_t txn, const ResourceId& res,
                        LockMode at_least) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto rel = relation_ids_.find(res.relation);
  if (rel == relation_ids_.end()) return false;
  auto it = table_.find(KeyOf(rel->second, res));
  if (it == table_.end()) return false;
  const Entry& q = it->second;
  for (size_t i = 0; i < q.size(); ++i) {
    const Request& r = q[i];
    if (r.txn == txn && r.granted && LockCovers(r.mode, at_least)) {
      return true;
    }
  }
  return false;
}

size_t LockManager::LockedResourceCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, q] : table_) {
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].granted) {
        ++n;
        break;
      }
    }
  }
  return n;
}

}  // namespace prodb
