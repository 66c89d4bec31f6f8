#ifndef PRODB_MATCH_QUERY_MATCHER_H_
#define PRODB_MATCH_QUERY_MATCHER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/stats.h"
#include "match/dispatch.h"
#include "match/matcher.h"
#include "plan/planner.h"

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
class QueryMatcher : public Matcher {
 public:
  /// `sharding` (when enabled) partitions a batch's seeded evaluations
  /// (by seed-tuple shard) and full re-evaluations (by rule) into parts
  /// and runs them through a FanOut; conflict-set commits stay in
  /// collection order, so results and recency stamps are byte-identical
  /// to the serial path. Evaluation is read-only against post-batch WM,
  /// which is what makes the fan-out safe.
  /// `planner` (when enabled) plans each rule's join sequence from
  /// catalog statistics at AddRule time and re-plans when cardinalities
  /// drift past planner.replan_drift; off, evaluation order is exactly
  /// the LHS order.
  explicit QueryMatcher(Catalog* catalog, ExecutorOptions exec_options = {},
                        ShardingOptions sharding = {},
                        PlannerOptions planner = {})
      : catalog_(catalog),
        executor_(catalog, exec_options),
        planner_(&cat_stats_, planner),
        dispatch_(&rules_, exec_options.discriminate_dispatch),
        sharding_(sharding),
        shard_map_(sharding),
        fan_out_(FanOut::Workers(sharding)) {
    executor_.set_stats(&stats_);
    if (planner.enable) executor_.set_planner_stats(&cat_stats_);
    plans_.store(std::make_shared<const std::vector<JoinPlan>>());
    if (sharding_.enabled()) shard_stats_.resize(shard_map_.num_shards());
  }

  Status AddRule(const Rule& rule) override;
  /// Set-oriented re-evaluation: one conflict-set pass retires every
  /// instantiation invalidated by the batch's deletions, and each rule
  /// negatively dependent on a churned relation is re-evaluated once per
  /// batch instead of once per deleted tuple (§4.1.2's join
  /// re-computation, amortized over the whole ∆).
  Status OnBatch(const ChangeSet& batch) override;

  ConflictSet& conflict_set() override { return conflict_set_; }
  size_t AuxiliaryFootprintBytes() const override;
  const MatcherStats& stats() const override { return stats_; }

  /// Current per-rule plans (read-only snapshot; tests/benchmarks).
  std::shared_ptr<const std::vector<JoinPlan>> plans() const {
    return plans_.load();
  }
  const CatalogStats& catalog_stats() const { return cat_stats_; }
  const std::vector<Rule>& rules() const override { return rules_; }
  std::vector<ShardStats> ShardStatsSnapshot() const override;

 private:
  /// Seeded evaluation of (rule, ce) with tuple (id, t) into *out —
  /// read-only against WM, so shards may run it concurrently; the caller
  /// commits the instantiations.
  Status SeedMatches(int rule_index, int ce, TupleId id, const Tuple& t,
                     std::vector<Instantiation>* out);
  /// Full re-evaluation of `rule_index` into *out (step-4 helper).
  Status EvaluateRule(int rule_index, std::vector<Instantiation>* out);
  /// The current plan of `rule_index`, or nullptr when the planner is
  /// off; `*hold` keeps the snapshot alive (replans swap the vector).
  const JoinPlan* PlanOf(
      int rule_index,
      std::shared_ptr<const std::vector<JoinPlan>>* hold) const;

  /// Drift check + re-plan, rate-limited and serialized by replan_mu_
  /// (try_lock: concurrent callers skip rather than queue). New plans
  /// publish through the atomic shared_ptr, so readers mid-evaluation
  /// keep a consistent snapshot.
  void MaybeReplan(size_t deltas);

  Catalog* catalog_;
  Executor executor_;
  // Incremental catalog statistics over the rules' LHS relations,
  // registered at AddRule (single-threaded) and updated lock-free from
  // OnBatch — the Seal()-style publication contract documented on
  // CatalogStats.
  CatalogStats cat_stats_;
  JoinPlanner planner_;
  // Per-rule plans (index = rule). Copy-on-write: replans build a fresh
  // vector and swap; the concurrent engine's worker threads load
  // without a lock.
  std::atomic<std::shared_ptr<const std::vector<JoinPlan>>> plans_;
  std::mutex replan_mu_;
  std::atomic<uint64_t> deltas_since_plan_check_{0};
  std::vector<Rule> rules_;
  // Each class's positive and negated condition elements (§4.1's COND
  // search) behind the shared dispatch step.
  CeDispatch dispatch_;
  ShardingOptions sharding_;
  ShardMap shard_map_;
  // Runs OnBatch's steps 3 and 4 over the shards: one part, inline, when
  // unsharded.
  FanOut fan_out_;
  // Guards shard_stats_; taken only when sharding is enabled (the
  // unsharded matcher is lock-free by design — ConflictSet and the
  // atomic counters carry their own safety, and a one-part FanOut
  // shares nothing between calls).
  mutable std::mutex batch_mu_;
  std::vector<ShardStats> shard_stats_;
  ConflictSet conflict_set_;
  MatcherStats stats_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_QUERY_MATCHER_H_
