#ifndef PRODB_MATCH_DISPATCH_H_
#define PRODB_MATCH_DISPATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/change_set.h"
#include "db/relation.h"
#include "lang/rule.h"
#include "match/conflict_set.h"
#include "match/discrimination.h"
#include "match/matcher.h"

namespace prodb {

/// The per-class dispatch step every matcher runs on a WM delta (§2.3 /
/// [STON86a]): fills *out with the positions, among a class's `n`
/// entries, to try for `t`. With `discriminate` these are the candidates
/// `index` nominates — a superset of the entries whose constant tests
/// pass, and skipping the rest is exact because constant tests are
/// binding-independent and every consumer re-checks them first. Without
/// it, every position: the linear walk the `-nodisc` / `-scan` ablations
/// keep. Counts one alpha_tests_evaluated per position, and
/// candidates_visited per nomination on the indexed path only. Returns
/// the number of nominations (0 on the linear walk).
uint32_t DispatchCandidates(const DiscriminationIndex& index, size_t n,
                            bool discriminate, const Tuple& t,
                            MatcherStats* stats, std::vector<uint32_t>* out);

/// One class's dispatch entries — condition elements in the query and
/// pattern matchers, alpha nodes in a Rete shard — and the
/// discrimination index over their constant tests (entry id = position
/// in `entries`).
template <typename Entry>
struct ClassDispatch {
  std::vector<Entry> entries;
  DiscriminationIndex index;

  /// Appends `entry`, indexed under `tests`. Seals the index, so lookups
  /// stay pure reads once registration is over (the concurrent engine
  /// dispatches from worker threads).
  void Add(Entry entry, const std::vector<ConstantTest>& tests) {
    index.Add(static_cast<uint32_t>(entries.size()), tests);
    index.Seal();
    entries.push_back(std::move(entry));
  }

  uint32_t Candidates(const Tuple& t, bool discriminate, MatcherStats* stats,
                      std::vector<uint32_t>* out) const {
    return DispatchCandidates(index, entries.size(), discriminate, t, stats,
                              out);
  }
};

/// Class name -> that class's dispatch step.
template <typename Entry>
using DispatchMap = std::unordered_map<std::string, ClassDispatch<Entry>>;

/// A condition element of a registered rule.
struct CeRef {
  int rule;
  int ce;
};

/// The tuples a batch deletes, sorted by (id, relation): membership is a
/// binary search on the id, and a batch without deletes allocates
/// nothing. Points into the batch, which must outlive it.
class DeletedTuples {
 public:
  explicit DeletedTuples(const ChangeSet& batch);

  bool empty() const { return sorted_.empty(); }

  /// True when the batch deletes tuple `id` of `rel`. Inline: the
  /// conflict-set pass asks once per positive CE of every member.
  bool Contains(const std::string& rel, TupleId id) const {
    auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), id,
        [](const auto& entry, TupleId key) { return entry.first < key; });
    // Ids are unique only within a relation, so equal ids may repeat.
    for (; it != sorted_.end() && it->first == id; ++it) {
      if (*it->second == rel) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<TupleId, const std::string*>> sorted_;
};

/// Condition-element dispatch for the matchers that evaluate rule LHSs
/// against working memory (§4.1's query matcher, §4.2's pattern
/// matcher): each class's positive and negated CEs behind their dispatch
/// step — the COND-relation search — plus the two conflict-set passes
/// both matchers open every batch with.
class CeDispatch {
 public:
  /// `rules` is the owning matcher's rule vector; CeRefs index into it.
  CeDispatch(const std::vector<Rule>* rules, bool discriminate)
      : rules_(rules), discriminate_(discriminate) {}

  /// Registers CE `ce` of rule `rule` under its class and sign.
  void Add(int rule, int ce, const ConditionSpec& c);

  /// The CEs of sign `negated` over `rel`, with *out set to the
  /// positions among them to try for `t` (both empty when `rel` has no
  /// such CE).
  const std::vector<CeRef>& Candidates(bool negated, const std::string& rel,
                                       const Tuple& t, MatcherStats* stats,
                                       std::vector<uint32_t>* out) const;

  /// Retires every instantiation that holds a deleted tuple at a
  /// positive CE, in one conflict-set pass.
  void RetireDeleted(const DeletedTuples& deleted, ConflictSet* cs) const;

  /// Retires every instantiation an inserted tuple of `batch` blocks
  /// through a negated CE the dispatch step nominates for it, in one
  /// conflict-set pass. Additions evaluate against post-batch WM, so a
  /// blocker inserted anywhere in the batch censors them already.
  void RetireBlocked(const ChangeSet& batch, MatcherStats* stats,
                     ConflictSet* cs) const;

  /// Bytes of the per-class CE buckets (their indexes are O(#CEs)).
  size_t FootprintBytes() const;

 private:
  const std::vector<Rule>* rules_;
  bool discriminate_;
  DispatchMap<CeRef> positive_;
  DispatchMap<CeRef> negative_;
};

/// Declares a hash index on every attribute `c` tests for equality,
/// against a constant or a variable, so seeded evaluation and
/// materialization probe `rel` instead of scanning it (§4.1.2).
Status DeclareEqualityIndexes(const ConditionSpec& c, Relation* rel);

}  // namespace prodb

#endif  // PRODB_MATCH_DISPATCH_H_
