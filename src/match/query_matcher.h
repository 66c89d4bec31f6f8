#ifndef PRODB_MATCH_QUERY_MATCHER_H_
#define PRODB_MATCH_QUERY_MATCHER_H_

#include <mutex>
#include <vector>

#include "core/matcher_spec.h"
#include "db/executor.h"
#include "match/dispatch.h"
#include "match/matcher.h"
#include "plan/planner.h"
#include "plan/rule_plans.h"

namespace prodb {

/// The "simplified algorithm" of §4.1: rule LHSs are queries, and every
/// WM change re-evaluates the affected LHSs against working memory.
///
/// No intermediate join results are stored — the space-optimal end of the
/// paper's space/time trade-off. On insertion of tuple W into class C the
/// matcher finds the condition elements over C (the COND-relation search)
/// and re-runs each affected rule's LHS join seeded with W; "the join
/// degenerates into a selection" when only two CEs exist, and multi-way
/// joins are re-computed — exactly the cost §4.2 sets out to remove.
///
/// OnBatch runs under the matcher's batch lock, as the Rete network's
/// does; the join orders it evaluates in come from its RulePlans.
class QueryMatcher : public Matcher {
 public:
  /// The spec's settings, as this matcher reads them (it stores no
  /// intermediate results, so it has no auxiliary storage and nothing to
  /// share):
  ///  - indexes: AddRule declares WM hash indexes on the attributes each
  ///    CE tests for equality, and the executor probes them.
  ///  - discriminate: the CE dispatch step's discrimination index.
  ///  - sharding: a batch's seeded evaluations (by seed-tuple shard) and
  ///    full re-evaluations (by rule) run as parts of a FanOut;
  ///    conflict-set commits stay in collection order, so results and
  ///    recency stamps are byte-identical to the serial path. Evaluation
  ///    is read-only against post-batch WM, which is what makes the
  ///    fan-out safe.
  ///  - planner: each rule's join sequence is planned from catalog
  ///    statistics at AddRule time and re-planned when cardinalities
  ///    drift past planner.replan_drift; off, evaluation order is exactly
  ///    the LHS order.
  explicit QueryMatcher(
      Catalog* catalog,
      const MatcherSpec& spec = {.kind = MatcherKind::kQuery})
      : Matcher(catalog),
        executor_(catalog, ExecutorOptions{spec.indexes}),
        plans_(catalog, &rules_, spec.planner, &stats_),
        dispatch_(&rules_, spec.discriminate),
        shard_map_(spec.sharding),
        fan_out_(FanOut::Workers(spec.sharding)) {
    executor_.set_stats(&stats_);
    if (spec.planner.enable) executor_.set_planner_stats(&plans_.stats());
    if (sharded()) shard_stats_.resize(shard_map_.num_shards());
  }

  Status AddRule(const Rule& rule) override;
  /// Set-oriented re-evaluation: one conflict-set pass retires every
  /// instantiation invalidated by the batch's deletions, and each rule
  /// negatively dependent on a churned relation is re-evaluated once per
  /// batch instead of once per deleted tuple (§4.1.2's join
  /// re-computation, amortized over the whole ∆).
  Status OnBatch(const ChangeSet& batch) override;

  size_t AuxiliaryFootprintBytes() const override;

  /// Current per-rule plans (index = rule; tests). Read only while no
  /// batch runs.
  const RulePlans& plans() const { return plans_; }
  std::vector<ShardStats> ShardStatsSnapshot() const override;

 private:
  /// Seeded evaluation of (rule, ce) with tuple (id, t) into *out —
  /// read-only against WM, so shards may run it concurrently; the caller
  /// commits the instantiations.
  Status SeedMatches(int rule_index, int ce, TupleId id, const Tuple& t,
                     std::vector<Instantiation>* out);
  /// Full re-evaluation of `rule_index` into *out (step-4 helper).
  Status EvaluateRule(int rule_index, std::vector<Instantiation>* out);

  bool sharded() const { return shard_map_.num_shards() > 1; }

  Executor executor_;
  // Per rule, the current JoinPlan, and the statistics it is planned
  // from (also the executor's access-path statistics); updated under
  // batch_mu_ and read by the evaluation parts it fans out.
  RulePlans plans_;
  // Each class's positive and negated condition elements (§4.1's COND
  // search) behind the shared dispatch step.
  CeDispatch dispatch_;
  ShardMap shard_map_;
  // Runs OnBatch's steps 3 and 4 over the shards: one part, inline, when
  // unsharded.
  FanOut fan_out_;
  // Serializes OnBatch (the plans, their statistics and shard_stats_).
  // The engine's run baton and the server's maintenance mutex already
  // serialize its callers, so it is uncontended there.
  mutable std::mutex batch_mu_;
  std::vector<ShardStats> shard_stats_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_QUERY_MATCHER_H_
