#ifndef PRODB_TXN_LOCK_MANAGER_H_
#define PRODB_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

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
class LockManager {
 public:
  /// Blocks until granted. Upgrades (e.g. S -> X) are performed in place.
  /// A request that must wait tells `waiter` (when given) Waiting() once,
  /// before it first blocks, and Resumed() once it is granted or picked
  /// as the deadlock victim; neither is called under the manager's mutex.
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
  struct Queue {
    std::list<Request> requests;
  };

  /// True if `req` can be granted now given other granted requests.
  bool Grantable(const Queue& q, uint64_t txn, LockMode mode) const;

  /// DFS over waits-for edges: does `start` reach itself?
  bool HasCycleFrom(uint64_t start) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<ResourceId, Queue> table_;
  // txn -> set of txns it waits for.
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
