#ifndef PRODB_TXN_LOCK_MANAGER_H_
#define PRODB_TXN_LOCK_MANAGER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"

namespace prodb {

/// Hierarchical lock modes. Tuple locks use only kS / kX; relation locks
/// use the full set. §5.2 requires exactly this repertoire: tuple read
/// locks on matched WM tuples, tuple/relation write locks for RHS actions,
/// and whole-relation read locks for negatively dependent transactions.
enum class LockMode : uint8_t { kIS, kIX, kS, kX };

const char* LockModeName(LockMode m);

/// True when a holder of `held` and a requester of `wanted` may coexist.
bool LockCompatible(LockMode held, LockMode wanted);

/// Identifies a lockable resource: a relation or one tuple within it.
struct ResourceId {
  std::string relation;
  bool whole_relation = true;
  TupleId tuple;

  static ResourceId Rel(std::string rel) {
    return ResourceId{std::move(rel), true, {}};
  }
  static ResourceId Tup(std::string rel, TupleId id) {
    return ResourceId{std::move(rel), false, id};
  }

  bool operator<(const ResourceId& o) const {
    if (relation != o.relation) return relation < o.relation;
    if (whole_relation != o.whole_relation) return whole_relation;
    return tuple < o.tuple;
  }
  bool operator==(const ResourceId& o) const {
    return relation == o.relation && whole_relation == o.whole_relation &&
           (whole_relation || tuple == o.tuple);
  }
  std::string ToString() const;
};

/// A resource as the lock table keys it: the relation by the small id
/// LockManager::Intern gives its name, so a request copies and compares
/// no string.
struct LockKey {
  uint32_t relation = 0;
  bool whole_relation = true;
  TupleId tuple;  // {0, 0} for a whole relation

  static LockKey Rel(uint32_t rel) { return LockKey{rel, true, {}}; }
  static LockKey Tup(uint32_t rel, TupleId id) {
    return LockKey{rel, false, id};
  }
  bool operator==(const LockKey& o) const {
    return relation == o.relation && whole_relation == o.whole_relation &&
           tuple == o.tuple;
  }
};

/// Hears when a transaction's thread stops to wait and when it goes on.
/// The concurrent engine hands its run baton on this way, so another
/// firing runs while this one waits (ConcurrentEngine).
class TxnWaiter {
 public:
  /// The thread is about to block.
  virtual void Waiting() = 0;
  /// The wait is over; returns when the thread may go on.
  virtual void Resumed() = 0;

 protected:
  ~TxnWaiter() = default;  // never owned through this interface
};

/// Brackets one blocking wait: Waiting() on entry, Resumed() on exit.
/// A null waiter makes it a no-op.
class WaitScope {
 public:
  explicit WaitScope(TxnWaiter* waiter) : waiter_(waiter) {
    if (waiter_ != nullptr) waiter_->Waiting();
  }
  ~WaitScope() {
    if (waiter_ != nullptr) waiter_->Resumed();
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  TxnWaiter* waiter_;
};

/// Strict two-phase lock manager with waits-for deadlock detection.
///
/// Acquire blocks until the lock is granted or a deadlock involving the
/// caller is found, in which case Status::Deadlock is returned and the
/// caller is expected to abort (§5.2 anticipates exactly this: mutually
/// deleting transactions "could lead to a deadlock"). Locks are held
/// until ReleaseAll — the paper's commit rule says a production must not
/// release locks until the COND maintenance triggered by its RHS actions
/// has completed, so the engine calls ReleaseAll only after maintenance.
///
/// The table is a hash map from LockKey to the resource's requests, the
/// first few held in the entry itself, so a request granted at once is
/// one probe under the manager's mutex. Each transaction's granted
/// resources are listed, so ReleaseAll visits only its own locks.
class LockManager {
 public:
  /// The id naming `relation` in a LockKey; the same name gets the same
  /// id for the manager's lifetime.
  uint32_t Intern(const std::string& relation);

  /// Blocks until granted. Upgrades (e.g. S -> X) are performed in place.
  /// A request that must wait tells `waiter` (when given) Waiting() once,
  /// before it first blocks, and Resumed() once it is granted or picked
  /// as the deadlock victim; neither is called under the manager's mutex.
  Status Acquire(uint64_t txn, const LockKey& key, LockMode mode,
                 TxnWaiter* waiter = nullptr);
  /// The same, naming the relation by its name.
  Status Acquire(uint64_t txn, const ResourceId& res, LockMode mode,
                 TxnWaiter* waiter = nullptr);

  /// Releases every lock `txn` holds and wakes waiters.
  void ReleaseAll(uint64_t txn);

  /// Modes currently held by `txn` on `res` (LockMode count if held).
  bool Holds(uint64_t txn, const ResourceId& res, LockMode at_least) const;

  /// Number of distinct resources currently locked (tests/benchmarks).
  size_t LockedResourceCount() const;

  /// Total deadlocks detected (benchmark counter).
  uint64_t deadlocks_detected() const { return deadlocks_; }

 private:
  struct Request {
    uint64_t txn;
    LockMode mode;
    bool granted;
  };

  /// One resource's requests, in no particular order: the first kInline
  /// in place, the rest in `more_`. A transaction has at most one.
  class Entry {
   public:
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Request& operator[](size_t i) {
      return i < kInline ? inline_[i] : more_[i - kInline];
    }
    const Request& operator[](size_t i) const {
      return i < kInline ? inline_[i] : more_[i - kInline];
    }
    /// `txn`'s request, or nullptr.
    Request* Find(uint64_t txn);
    void Add(const Request& r);
    /// Removes `*r`, which must be one of this entry's requests.
    void Erase(Request* r);
    /// True when `txn` may hold `mode` beside every other granted request.
    bool Grantable(uint64_t txn, LockMode mode) const;

   private:
    static constexpr size_t kInline = 2;
    std::array<Request, kInline> inline_;
    std::vector<Request> more_;
    size_t count_ = 0;
  };

  struct KeyHash {
    size_t operator()(const LockKey& k) const {
      return k.tuple.AsU64() ^
             ((uint64_t{k.relation} << 1 | uint64_t{k.whole_relation}) *
              0x9e3779b97f4a7c15ULL);
    }
  };

  /// Waits for a request `q` could not grant at once (see Acquire).
  Status Wait(std::unique_lock<std::mutex>& lock, uint64_t txn,
              const LockKey& key, Entry& q, LockMode mode,
              TxnWaiter* waiter);

  /// The list of resources `txn` has been granted, made on first use.
  std::vector<LockKey>& HeldBy(uint64_t txn);

  /// DFS over waits-for edges: does `start` reach itself?
  bool HasCycleFrom(uint64_t start) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<LockKey, Entry, KeyHash> table_;
  std::unordered_map<std::string, uint32_t> relation_ids_;
  std::vector<std::string> relation_names_;  // by id
  // txn -> the keys of the resources it has been granted.
  std::unordered_map<uint64_t, std::vector<LockKey>> held_;
  // The held list the last granted request appended to: one transaction's
  // requests come in runs, which then skip the held_ probe.
  uint64_t last_txn_ = 0;
  std::vector<LockKey>* last_held_ = nullptr;
  // txn -> set of txns it waits for; empty when no request waits.
  std::unordered_map<uint64_t, std::set<uint64_t>> waits_for_;
  uint64_t deadlocks_ = 0;
};

/// Combines two held/wanted modes into the single mode that covers both
/// (the lattice join; {S, IX} escalates to X since we do not model SIX).
LockMode LockJoin(LockMode a, LockMode b);

/// True when holding `held` already implies `wanted`.
bool LockCovers(LockMode held, LockMode wanted);

}  // namespace prodb

#endif  // PRODB_TXN_LOCK_MANAGER_H_
