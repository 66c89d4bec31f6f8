#ifndef PRODB_MATCH_CONFLICT_SET_H_
#define PRODB_MATCH_CONFLICT_SET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
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

/// The conflict set: satisfied instantiations in a hash map on their
/// Key(), for O(1) dedup and removal, threaded on a recency list (oldest
/// to newest) so the Select step reaches the oldest and newest members
/// in O(1) without copying the set. All matchers maintain one of these;
/// the execution engine drains it. Thread-safe (concurrent execution
/// mutates it from worker threads during maintenance).
class ConflictSet {
 public:
  class Member;
  /// A live member: its key and the instantiation.
  using Entry = std::pair<const std::string, Member>;

  /// An instantiation in the set, with its place on the set's recency
  /// list.
  class Member : public Instantiation {
   public:
    explicit Member(Instantiation inst) : Instantiation(std::move(inst)) {}

   private:
    friend class ConflictSet;
    Entry* older_ = nullptr;
    Entry* newer_ = nullptr;
  };

  /// A read-only view of the live members, handed to a Chooser while
  /// Take holds the set's mutex. Nothing is copied; the view and its
  /// iterators are valid only during that call.
  class View {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Entry;
      using difference_type = std::ptrdiff_t;
      using pointer = const Entry*;
      using reference = const Entry&;

      const_iterator() = default;
      reference operator*() const { return *entry_; }
      pointer operator->() const { return entry_; }
      const_iterator& operator++() {
        entry_ = entry_->second.newer_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator was = *this;
        ++*this;
        return was;
      }
      bool operator==(const const_iterator&) const = default;

     private:
      friend class ConflictSet;
      explicit const_iterator(const Entry* entry) : entry_(entry) {}
      const Entry* entry_ = nullptr;
    };

    size_t size() const { return set_->items_.size(); }
    bool empty() const { return set_->items_.empty(); }
    /// Every member once, in no particular order.
    const_iterator begin() const { return const_iterator(set_->oldest_); }
    const_iterator end() const { return const_iterator(); }
    /// The member with the lowest / highest recency stamp; end() when
    /// the set is empty.
    const_iterator Oldest() const { return begin(); }
    const_iterator Newest() const { return const_iterator(set_->newest_); }
    /// The k-th member in key order (the order Snapshot() returns them
    /// in), or end() when k >= size(). The first call builds the set's
    /// key-order index, which the set then keeps in step; each call
    /// walks it from its nearer end, O(min(k, size() - k)).
    const_iterator NthInKeyOrder(size_t k) const;

   private:
    friend class ConflictSet;
    explicit View(const ConflictSet* set) : set_(set) {}

    const ConflictSet* set_;
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
  /// the number removed. The listener hears the removals in key order.
  /// Used on WM deletions (tuple ids are unique only within a relation,
  /// so callers match on rule/CE position too).
  size_t RemoveIf(const std::function<bool(const Instantiation&)>& pred);

  bool Contains(const std::string& key) const;
  bool empty() const;
  size_t size() const;

  /// Snapshot of current members in key order (copies; the set may
  /// change under a concurrent engine). Sorts the members: O(n log n).
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
  using Items = std::unordered_map<std::string, Member>;
  struct KeyLess {
    bool operator()(const Entry* a, const Entry* b) const {
      return a->first < b->first;
    }
  };
  using KeyOrder = std::set<const Entry*, KeyLess>;

  /// Notifies the listener, if any. Caller holds mu_.
  void NotifyLocked(bool added, const std::string& key,
                    const Instantiation* inst) {
    if (listener_) listener_(added, key, inst);
  }

  /// The one insert path: dedups on Key(), stamps recency, links the
  /// member as the newest, indexes it, counts and notifies. Caller holds
  /// mu_.
  bool InsertLocked(Instantiation inst);

  /// The one erase path: unlinks and unindexes `it` and removes it from
  /// the set, returning its node (so Take can move the member out).
  /// Caller holds mu_.
  Items::node_type ExtractLocked(Items::iterator it);

  /// The members sorted by key. Caller holds mu_.
  std::vector<const Entry*> SortedByKeyLocked() const;

  /// The key-order index, built from the members on first use. Caller
  /// holds mu_.
  const KeyOrder& KeyOrderLocked() const;

  mutable std::mutex mu_;
  Items items_;
  // The recency list: stamps only grow, so appending keeps it in stamp
  // order.
  Entry* oldest_ = nullptr;
  Entry* newest_ = nullptr;
  // Built by the first NthInKeyOrder (the random chooser), then kept in
  // step with items_.
  mutable std::optional<KeyOrder> key_order_;
  uint64_t next_recency_ = 1;
  uint64_t total_added_ = 0;
  DeltaListener listener_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_CONFLICT_SET_H_
