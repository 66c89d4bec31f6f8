#include "txn/lock_manager.h"

#include <algorithm>

namespace prodb {

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

bool LockManager::Grantable(const Queue& q, uint64_t txn,
                            LockMode mode) const {
  for (const Request& r : q.requests) {
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

Status LockManager::Acquire(uint64_t txn, const ResourceId& res,
                            LockMode mode, TxnWaiter* waiter) {
  std::unique_lock<std::mutex> lock(mu_);
  Queue& q = table_[res];

  // Locate an existing request by this txn.
  auto self = std::find_if(q.requests.begin(), q.requests.end(),
                           [txn](const Request& r) { return r.txn == txn; });
  if (self != q.requests.end() && self->granted) {
    if (LockCovers(self->mode, mode)) return Status::OK();
    mode = LockJoin(self->mode, mode);  // in-place upgrade target
  }

  auto grantable_now = [&]() {
    return Grantable(q, txn, mode);
  };

  if (self != q.requests.end() && self->granted && grantable_now()) {
    self->mode = mode;
    return Status::OK();
  }
  if (self == q.requests.end()) {
    if (grantable_now()) {
      q.requests.push_back(Request{txn, mode, true});
      return Status::OK();
    }
    q.requests.push_back(Request{txn, mode, false});
    self = std::prev(q.requests.end());
  } else {
    // Upgrade that must wait: mark ungranted so others see the conflict
    // only via our still-held old mode; we re-grant with the joined mode.
    // (Keep granted=true for the old mode by leaving the entry, and wait.)
  }

  // Record waits-for edges to the conflicting holders.
  bool told = false;  // the waiter has heard Waiting()
  Status result;
  for (;;) {
    waits_for_[txn].clear();
    for (const Request& r : q.requests) {
      if (r.granted && r.txn != txn && !LockCompatible(r.mode, mode)) {
        waits_for_[txn].insert(r.txn);
      }
    }
    if (HasCycleFrom(txn)) {
      ++deadlocks_;
      waits_for_.erase(txn);
      // Remove a pure waiter; keep an existing granted (pre-upgrade) lock.
      if (!self->granted) q.requests.erase(self);
      cv_.notify_all();
      result = Status::Deadlock("txn " + std::to_string(txn) + " on " +
                                res.ToString());
      break;
    }
    if (waiter != nullptr && !told) {
      // Outside mu_, since the waiter may block. Our request stays queued
      // with its waits-for edges meanwhile, so `q` and `self` stay valid;
      // a release in between is seen by the check below.
      lock.unlock();
      waiter->Waiting();
      told = true;
      lock.lock();
    } else {
      // Re-check grantability with a bounded wait so that releases on
      // other resources (which change the waits-for graph) are observed.
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (Grantable(q, txn, mode)) {
      waits_for_.erase(txn);
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
  for (auto it = table_.begin(); it != table_.end();) {
    Queue& q = it->second;
    q.requests.remove_if([txn](const Request& r) {
      return r.txn == txn && r.granted;
    });
    if (q.requests.empty()) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  waits_for_.erase(txn);
  for (auto& [t, s] : waits_for_) s.erase(txn);
  cv_.notify_all();
}

bool LockManager::Holds(uint64_t txn, const ResourceId& res,
                        LockMode at_least) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(res);
  if (it == table_.end()) return false;
  for (const Request& r : it->second.requests) {
    if (r.txn == txn && r.granted && LockCovers(r.mode, at_least)) {
      return true;
    }
  }
  return false;
}

size_t LockManager::LockedResourceCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [res, q] : table_) {
    for (const Request& r : q.requests) {
      if (r.granted) {
        ++n;
        break;
      }
    }
  }
  return n;
}

}  // namespace prodb
