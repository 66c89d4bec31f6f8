#ifndef PRODB_MATCH_CONFLICT_SET_H_
#define PRODB_MATCH_CONFLICT_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "db/predicate.h"

namespace prodb {

/// One satisfied rule instance: a rule plus the WM tuples (one per
/// positive condition element) that satisfy its LHS. This is what Match
/// adds to the conflict set and what Act consumes (§2.1).
struct Instantiation {
  int rule_index = -1;          // index into the engine's rule vector
  std::string rule_name;
  std::vector<TupleId> tuple_ids;  // per CE; kNoTuple for negated CEs
  std::vector<Tuple> tuples;
  Binding binding;
  uint64_t recency = 0;         // stamp assigned on entry to the set

  static constexpr TupleId kNoTuple{UINT32_MAX, UINT32_MAX};

  /// Identity of an instantiation: rule + exact tuple combination.
  /// Bindings are derived, so they do not participate.
  std::string Key() const;
  /// The Key() of rule `rule_index` over per-CE `tuple_ids`, for callers
  /// that retract by key without building the instantiation.
  static std::string KeyOf(int rule_index,
                           const std::vector<TupleId>& tuple_ids);
  std::string ToString() const;
};

/// An ordered log of conflict-set mutations produced while the real set
/// is out of reach — each match shard records its adds/removes here and
/// the barrier replays the buffers into the one ConflictSet in fixed
/// shard order, so recency stamps are independent of thread count and
/// completion order. Single-writer; not internally locked.
class ConflictOpBuffer {
 public:
  void Add(Instantiation inst) {
    ops_.push_back(Op{/*add=*/true, std::move(inst), {}});
  }
  void RemoveByKey(std::string key) {
    ops_.push_back(Op{/*add=*/false, {}, std::move(key)});
  }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void clear() { ops_.clear(); }

 private:
  friend class ConflictSet;
  struct Op {
    bool add;
    Instantiation inst;  // add
    std::string key;     // remove
  };
  std::vector<Op> ops_;
};

/// The conflict set: satisfied instantiations keyed for O(log n) dedup
/// and removal, plus a recency index so the Select step reaches the
/// oldest and newest members in O(log n) without copying the set. All
/// matchers maintain one of these; the execution engine drains it.
/// Thread-safe (concurrent execution mutates it from worker threads
/// during maintenance).
class ConflictSet {
  using Items = std::map<std::string, Instantiation>;
  using ByRecency = std::map<uint64_t, Items::const_iterator>;

 public:
  /// A read-only view of the live members, handed to a Chooser while
  /// Take holds the set's mutex. Nothing is copied; the view and its
  /// iterators are valid only during that call.
  class View {
   public:
    using const_iterator = Items::const_iterator;

    size_t size() const { return items_->size(); }
    bool empty() const { return items_->empty(); }
    /// Members in key order (the order Snapshot() returns them in).
    const_iterator begin() const { return items_->begin(); }
    const_iterator end() const { return items_->end(); }
    /// The member with the lowest / highest recency stamp; end() when
    /// the set is empty.
    const_iterator Oldest() const {
      return by_recency_->empty() ? end() : by_recency_->begin()->second;
    }
    const_iterator Newest() const {
      return by_recency_->empty() ? end() : by_recency_->rbegin()->second;
    }

   private:
    friend class ConflictSet;
    View(const Items* items, const ByRecency* by_recency)
        : items_(items), by_recency_(by_recency) {}

    const Items* items_;
    const ByRecency* by_recency_;
  };

  /// Picks the member Take removes, or returns the view's end() to
  /// decline. Must not call back into the ConflictSet.
  using Chooser = std::function<View::const_iterator(const View&)>;

  /// Observes conflict-set maintenance: called once per effective add
  /// (`inst` non-null) and per effective remove (`inst` null; removes are
  /// identified by key). Invoked with the set's mutex held — the listener
  /// must not call back into the ConflictSet. The serving layer installs
  /// one around a batch's OnBatch to capture the batch's conflict-set
  /// delta for the wire; Take() (engine consumption) is deliberately not
  /// reported — it is execution, not maintenance.
  using DeltaListener =
      std::function<void(bool added, const std::string& key,
                         const Instantiation* inst)>;

  /// Installs (or, with nullptr, removes) the delta listener. At most one
  /// listener at a time; callers serialize install/OnBatch/remove.
  void SetDeltaListener(DeltaListener listener);

  /// Inserts if not already present; stamps recency. Returns true when
  /// the instantiation is new.
  bool Add(Instantiation inst);

  /// Removes the exact instantiation. Returns true if present.
  bool Remove(const Instantiation& inst);
  bool RemoveByKey(const std::string& key);

  /// Replays a buffered op sequence in order under one lock acquisition,
  /// with the same semantics the ops would have had applied directly
  /// (dedup, recency stamping, total_added accounting). Clears `buf`.
  void ApplyOps(ConflictOpBuffer* buf);

  /// Removes every instantiation for which `pred` returns true; returns
  /// the number removed. Used on WM deletions (tuple ids are unique only
  /// within a relation, so callers match on rule/CE position too).
  size_t RemoveIf(const std::function<bool(const Instantiation&)>& pred);

  bool Contains(const std::string& key) const;
  bool empty() const;
  size_t size() const;

  /// Snapshot of current members in key order (copies; the set may
  /// change under a concurrent engine).
  std::vector<Instantiation> Snapshot() const;

  /// Live members per rule index in [0, num_rules), counted in place;
  /// members of other rule indexes are not counted.
  std::vector<uint64_t> CountByRule(size_t num_rules) const;

  /// Removes the member `chooser` picks from a view of the live set and
  /// moves it into `*out`. Returns false when the set is empty (the
  /// chooser is not called) or the chooser declines.
  bool Take(const Chooser& chooser, Instantiation* out);

  void Clear();

  /// Cumulative adds (tests/benchmarks: counts conflict-set churn).
  uint64_t total_added() const;

 private:
  /// Notifies the listener, if any. Caller holds mu_.
  void NotifyLocked(bool added, const std::string& key,
                    const Instantiation* inst) {
    if (listener_) listener_(added, key, inst);
  }

  /// The one insert path: dedups on Key(), stamps recency, indexes the
  /// member, counts and notifies. Caller holds mu_.
  bool InsertLocked(Instantiation inst);

  /// The one erase path: unindexes `it` and removes it from the set,
  /// returning its node (so Take can move the member out). Caller holds
  /// mu_.
  Items::node_type ExtractLocked(Items::const_iterator it);

  mutable std::mutex mu_;
  Items items_;
  ByRecency by_recency_;  // recency stamp -> member; in step with items_
  uint64_t next_recency_ = 1;
  uint64_t total_added_ = 0;
  DeltaListener listener_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_CONFLICT_SET_H_
