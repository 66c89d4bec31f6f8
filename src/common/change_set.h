#ifndef PRODB_COMMON_CHANGE_SET_H_
#define PRODB_COMMON_CHANGE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"

namespace prodb {

/// Kind of a working-memory delta.
enum class DeltaKind : uint8_t { kInsert, kDelete };

/// One working-memory change. For inserts recorded before application the
/// id is `kUnassigned` until the relation assigns one.
struct Delta {
  DeltaKind kind = DeltaKind::kInsert;
  std::string relation;
  TupleId id = kUnassigned;
  Tuple tuple;
  /// Index (within the owning ChangeSet) of the partner delta when this
  /// delta is one half of a logical modify (§3.1: a modification is a
  /// deletion followed by an insertion, but the pair is *one* WM event);
  /// kNoPartner otherwise.
  int32_t modify_partner = kNoPartner;

  static constexpr int32_t kNoPartner = -1;
  static constexpr TupleId kUnassigned{UINT32_MAX, UINT32_MAX};

  bool is_insert() const { return kind == DeltaKind::kInsert; }
  bool is_delete() const { return kind == DeltaKind::kDelete; }
  bool is_modify_half() const { return modify_partner != kNoPartner; }
};

/// An ordered set of working-memory deltas — the unit the mutation path
/// moves around: engines buffer an instantiation's whole RHS (the ∆ins/∆del
/// of §5.2) into one ChangeSet, working memory applies it atomically, and
/// matchers receive it in a single OnBatch call so they can propagate
/// set-at-a-time instead of tuple-at-a-time (§3.2's complaint about the
/// fixed per-tuple access plan).
class ChangeSet {
 public:
  ChangeSet() = default;

  /// Records an insertion. `id` may be kUnassigned when the tuple has not
  /// been applied to its relation yet; Apply fills it in.
  size_t AddInsert(std::string relation, Tuple tuple,
                   TupleId id = Delta::kUnassigned) {
    deltas_.push_back(
        Delta{DeltaKind::kInsert, std::move(relation), id, std::move(tuple)});
    return deltas_.size() - 1;
  }

  /// Records a deletion of an existing tuple.
  size_t AddDelete(std::string relation, TupleId id, Tuple tuple = Tuple()) {
    deltas_.push_back(
        Delta{DeltaKind::kDelete, std::move(relation), id, std::move(tuple)});
    return deltas_.size() - 1;
  }

  /// Records a modify as its delete-before-insert pair, cross-linked so
  /// consumers can recognize the two halves as one logical event.
  /// Returns the index of the insert half.
  size_t AddModify(const std::string& relation, TupleId old_id,
                   const Tuple& old_tuple, const Tuple& new_tuple,
                   TupleId new_id = Delta::kUnassigned);

  /// Cross-links the delete at `del` and the insert at `ins` as the two
  /// halves of one modify (for a delete recorded before its insert was
  /// known to land).
  void LinkModify(size_t del, size_t ins);

  /// The compensating set: same deltas with kinds flipped, in reverse
  /// order. Applying a set and then its inverse restores the original
  /// relation contents *and ids* (Transaction::Rollback, §5): the insert
  /// that undoes a delete carries the deleted tuple's original id so it
  /// can be restored via Relation::Restore — any matcher state recorded
  /// before the aborted transaction still references that id.
  ChangeSet Inverse() const;

  const std::vector<Delta>& deltas() const { return deltas_; }
  Delta& operator[](size_t i) { return deltas_[i]; }
  const Delta& operator[](size_t i) const { return deltas_[i]; }
  size_t size() const { return deltas_.size(); }
  bool empty() const { return deltas_.empty(); }
  void clear() { deltas_.clear(); }

  std::vector<Delta>::const_iterator begin() const { return deltas_.begin(); }
  std::vector<Delta>::const_iterator end() const { return deltas_.end(); }

  size_t InsertCount() const;
  size_t DeleteCount() const;

  std::string ToString() const;

 private:
  std::vector<Delta> deltas_;
};

}  // namespace prodb

#endif  // PRODB_COMMON_CHANGE_SET_H_
