#ifndef PRODB_MATCH_PATTERN_MATCHER_H_
#define PRODB_MATCH_PATTERN_MATCHER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/matcher_spec.h"
#include "db/executor.h"
#include "match/dispatch.h"
#include "match/matcher.h"
#include "match/sharding.h"

namespace prodb {

/// The paper's new approach (§4.2): COND relations with matching
/// patterns.
///
/// For every WM class C a COND-C relation holds one row per condition
/// element over C — the original (all-variable) rows written at rule-
/// registration time plus *matching patterns*: copies whose variable
/// positions have been narrowed to the values of tuples present in
/// related WM relations. Each pattern carries, per Related Condition
/// Element (RCE), a contribution counter (the paper's Mark bits,
/// generalized to counters in §4.2.2 so deletions can decrement).
///
/// Matching an inserted tuple is a single pass over the COND relation of
/// its own class: if some consistent pattern set covers every RCE, the
/// rule is satisfiable and the conflict-set instantiations are selected
/// from the WM relations under the pattern's bindings. Propagation then
/// inserts narrowed patterns into the COND relations of the related
/// classes — independently per class, hence parallelizable, unlike the
/// Rete network's strictly sequential node-by-node token flow.
///
/// Fidelity note (documented in DESIGN.md): patterns here are
/// projections of single contributing tuples onto the variables shared
/// with the target CE, rather than the paper's transitively unified
/// patterns. The literal §4.2.2 unification can both over-approximate
/// (chained joins) and lose insert/delete symmetry; the projection form
/// keeps the data structure, the single-search match, the counter
/// maintenance, and the space/time trade-off, while remaining exact
/// under deletion. Any residual over-approximation is caught at
/// materialization, which the paper prescribes anyway (§5.1).
class PatternMatcher : public Matcher {
 public:
  /// The spec's settings, as this matcher reads them (it has no join
  /// planner and no network to share):
  ///  - indexes: AddRule declares WM hash indexes on the attributes each
  ///    CE tests for equality, so materialization and seeded evaluation
  ///    probe through Relation::Select's index path (§4.1.2).
  ///  - discriminate: the CE dispatch step's discrimination index.
  ///  - sharding: FanOut::Workers(sharding) threads propagate matching
  ///    patterns to the COND relations of different classes at once
  ///    (§4.2.3/§6: "our scheme can be fully parallelized").
  /// `aux_storage` holds the COND relations (kPaged exercises the
  /// secondary-storage path the paper assumes).
  explicit PatternMatcher(
      Catalog* catalog,
      const MatcherSpec& spec = {.kind = MatcherKind::kPattern},
      StorageKind aux_storage = StorageKind::kMemory);
  ~PatternMatcher() override;

  Status AddRule(const Rule& rule) override;
  /// Batched maintenance: the conflict-set passes for deletions and for
  /// negated-CE blockers run once per batch, and pattern counter updates
  /// (±1 bumps) accumulate across consecutive deltas, flushing lazily —
  /// only when a later insert must read pattern support — so delete-heavy
  /// batches propagate to the COND relations in one (possibly parallel)
  /// wave (§4.2.3).
  Status OnBatch(const ChangeSet& batch) override;

  size_t AuxiliaryFootprintBytes() const override;

  /// Number of matching-pattern rows currently stored for class `cls`
  /// (excludes the original condition rows).
  size_t PatternCount(const std::string& cls) const;

  /// The COND relation backing class `cls` (nullptr if the class has no
  /// conditions). Schema: (__rid, __cen, <class attributes>). Useful for
  /// rule-base queries ("all rules that apply on employees older than
  /// 55", §4.2.3) and inspected by tests.
  Relation* CondRelation(const std::string& cls) const;

  /// Recomputes the RULE-DEF relation (__rid, __cen, __check): check=1
  /// iff some current WM tuple satisfies that condition element's own
  /// tests (§4.1.1's per-condition Check bit), set-at-a-time.
  Status SyncRuleDef();
  Relation* rule_def() const { return rule_def_; }

 private:
  /// One queued ±1 pattern-counter update.
  struct PropagationOp {
    int rule, target_ce, contributor_ce, delta;
    Binding projected;
  };

  struct PatternEntry {
    Binding binding;                  // projected values (full-width)
    std::vector<uint32_t> counters;   // per-CE contribution counts
    TupleId cond_row;                 // row in the COND relation
  };

  /// Per-class pattern store: (rule, ce) -> serialized projection ->
  /// entry. Guarded per class so parallel propagation to different
  /// classes never contends.
  struct CondStore {
    mutable std::mutex mu;
    Relation* cond_rel = nullptr;
    std::map<std::pair<int, int>,
             std::unordered_map<std::string, PatternEntry>>
        patterns;
    size_t pattern_rows = 0;
  };

  Status EnsureCondStore(const std::string& cls, CondStore** out);
  static std::string ProjectionKey(const Binding& b);

  /// Projects `full` onto the vars shared between CE `from` and CE `to`
  /// of `rule` (precomputed at AddRule).
  Binding Project(int rule, int from, int to, const Binding& full) const;

  /// Adds delta (+1/-1) to the pattern for (rule, target_ce) derived from
  /// `projected`, crediting `contributor_ce`. Maintains the COND row.
  Status BumpPattern(int rule, int target_ce, const Binding& projected,
                     int contributor_ce, int delta);

  /// Applies the queued ops and clears them: one FanOut part per target
  /// class, each replaying its class's ops in queue order, or one plain
  /// queue-order loop without a pool (grouping by class would cost a map
  /// per flush for nothing).
  Status FlushOps(std::vector<PropagationOp>* ops);

  /// Single pass over the patterns for (rule, ce): true when for every
  /// positive RCE some pattern consistent with `beta` has support.
  bool Supported(int rule, int ce, const Binding& beta) const;

  const bool indexes_;
  const StorageKind cond_storage_;
  Executor executor_;
  // Each class's positive and negated condition elements (the COND-C
  // search) behind the shared dispatch step.
  CeDispatch dispatch_;
  // [rule][from_ce][to_ce] -> shared variable ids (kEq occurrences).
  std::vector<std::vector<std::vector<std::vector<int>>>> shared_vars_;
  std::unordered_map<std::string, std::unique_ptr<CondStore>> cond_stores_;
  Relation* rule_def_ = nullptr;
  // Runs FlushOps' per-class parts.
  FanOut fan_out_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_PATTERN_MATCHER_H_
