#ifndef PRODB_RULEINDEX_PREDICATE_INDEX_H_
#define PRODB_RULEINDEX_PREDICATE_INDEX_H_

#include <map>

#include "index/rtree.h"
#include "ruleindex/rule_index.h"

namespace prodb {

/// Predicate Indexing [STON86a]: conditions live in "a data structure
/// similar to a discrimination network" — an R-tree over the hyper-
/// rectangles the conditions' qualifications describe (§2.3 recommends
/// R-trees [GUTT84] / R+-trees [SELL87]). Insertions need no per-tuple
/// bookkeeping ("no special treatment of insertions"); every update pays
/// a point search of the tree instead. RuleBaseQueryIndex answers the
/// rule-base queries of §4.2.3.
class PredicateIndex : public RuleIndex {
 public:
  /// One R-tree per relation, `dims` = number of leading attributes the
  /// boxes cover.
  explicit PredicateIndex(size_t dims) : dims_(dims) {}

  Status AddCondition(const IndexedCondition& cond) override;
  Status RemoveCondition(uint32_t id) override;
  Status OnInsert(const std::string& rel, TupleId id, const Tuple& t,
                  std::vector<uint32_t>* affected) override;
  Status OnDelete(const std::string& rel, TupleId id, const Tuple& t,
                  std::vector<uint32_t>* affected) override;
  size_t FootprintBytes() const override;
  std::string name() const override { return "predicate-index"; }

 private:
  Status Affected(const std::string& rel, const Tuple& t,
                  std::vector<uint32_t>* affected) const;
  Box CondBox(const IndexedCondition& cond) const;

  size_t dims_;
  std::map<std::string, std::unique_ptr<RTree>> trees_;
  std::map<uint32_t, IndexedCondition> conditions_;
};

}  // namespace prodb

#endif  // PRODB_RULEINDEX_PREDICATE_INDEX_H_
