#ifndef PRODB_RULEINDEX_RULE_INDEX_H_
#define PRODB_RULEINDEX_RULE_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"

namespace prodb {

/// A single-relation condition registered for update monitoring: per
/// (numeric) attribute an interval [lo, hi], unbounded when nullopt.
/// This is the shape of condition [STON86a] analyzes — the read set of a
/// cached query / materialized view / rule LHS restricted to one
/// relation.
struct IndexedCondition {
  uint32_t id = 0;
  std::string relation;
  struct Range {
    std::optional<double> lo, hi;
  };
  std::vector<Range> ranges;  // parallel to the relation's attributes

  /// Exact test: does the tuple satisfy every interval? Non-numeric
  /// attribute values fail bounded intervals.
  bool Matches(const Tuple& t) const;
};

/// Detects which registered conditions are affected by an update — the
/// rule-indexing problem of §2.3. Implementations may report false drops
/// (conditions that on closer inspection are unaffected); they must never
/// miss an affected condition. The benchmark E7 reproduces [STON86a]'s
/// finding that neither implementation dominates: the winner depends on
/// update probability and condition overlap.
class RuleIndex {
 public:
  virtual ~RuleIndex() = default;

  virtual Status AddCondition(const IndexedCondition& cond) = 0;
  virtual Status RemoveCondition(uint32_t id) = 0;

  /// Reports conditions affected by inserting `t` into `rel` and updates
  /// internal bookkeeping (markers). Output may contain false drops.
  virtual Status OnInsert(const std::string& rel, TupleId id, const Tuple& t,
                          std::vector<uint32_t>* affected) = 0;

  /// Reports conditions affected by deleting tuple `id` and clears its
  /// bookkeeping.
  virtual Status OnDelete(const std::string& rel, TupleId id, const Tuple& t,
                          std::vector<uint32_t>* affected) = 0;

  virtual size_t FootprintBytes() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace prodb

#endif  // PRODB_RULEINDEX_RULE_INDEX_H_
