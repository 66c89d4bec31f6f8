#ifndef PRODB_RULEINDEX_BASIC_LOCKING_H_
#define PRODB_RULEINDEX_BASIC_LOCKING_H_

#include <map>
#include <unordered_map>

#include "ruleindex/rule_index.h"

namespace prodb {

/// Basic Locking [STON86a]: "all tuples used in processing a given
/// condition are marked with a special kind of marker which uniquely
/// identifies the condition. If an index is used, these markers are set
/// on data records and on the key interval inspected in the index."
///
/// Markers on existing tuples make deletions cheap: the affected
/// conditions are exactly the markers on the deleted tuple. Insertions
/// are the phantom case: the key-interval marks registered on the
/// relation's B+-tree index yield candidate conditions whose intervals
/// cover the new key; each candidate is then verified exactly (false
/// drops possible when only one attribute is indexed but the condition
/// constrains several).
class BasicLockingIndex : public RuleIndex {
 public:
  /// `catalog` supplies the relations; `indexed_attr` is the attribute
  /// whose B+-tree carries the interval marks (the paper's "key interval
  /// inspected in the index").
  BasicLockingIndex(Catalog* catalog, int indexed_attr = 0)
      : catalog_(catalog), indexed_attr_(indexed_attr) {}

  Status AddCondition(const IndexedCondition& cond) override;
  Status RemoveCondition(uint32_t id) override;
  Status OnInsert(const std::string& rel, TupleId id, const Tuple& t,
                  std::vector<uint32_t>* affected) override;
  Status OnDelete(const std::string& rel, TupleId id, const Tuple& t,
                  std::vector<uint32_t>* affected) override;
  size_t FootprintBytes() const override;
  std::string name() const override { return "basic-locking"; }

  /// Total tuple markers currently set (space accounting for E7).
  size_t MarkerCount() const;

 private:
  Catalog* catalog_;
  int indexed_attr_;
  std::map<uint32_t, IndexedCondition> conditions_;
  // relation -> tuple -> marker list.
  std::map<std::string,
           std::unordered_map<TupleId, std::vector<uint32_t>, TupleIdHash>>
      markers_;
};

}  // namespace prodb

#endif  // PRODB_RULEINDEX_BASIC_LOCKING_H_
