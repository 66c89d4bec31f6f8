#ifndef PRODB_PLAN_RULE_PLANS_H_
#define PRODB_PLAN_RULE_PLANS_H_

#include <cstddef>
#include <vector>

#include "common/change_set.h"
#include "db/catalog.h"
#include "db/stats.h"
#include "lang/rule.h"
#include "plan/planner.h"

namespace prodb {

struct MatcherStats;

/// One matcher's join-order decision: the catalog statistics over its
/// rules' LHS relations, one JoinPlan per rule, the drift check and the
/// re-plan of every rule. The Rete network compiles its beta chains in
/// these orders and the query matcher evaluates its seeded and full
/// queries in them; each holds one and calls it under its batch lock, so
/// a RulePlans takes no lock of its own.
class RulePlans {
 public:
  /// What a re-plan did.
  enum class Outcome {
    kKept,       // no re-plan ran
    kReplanned,  // every rule re-planned, every order as before
    kReordered,  // every rule re-planned, some order changed
  };

  /// Plans the rules of `*rules` (the owning matcher's list; plan index
  /// = rule index) over the relations of `catalog`, and counts
  /// plans_built and replans into `*stats`.
  RulePlans(Catalog* catalog, const std::vector<Rule>* rules,
            PlannerOptions options, MatcherStats* stats)
      : catalog_(catalog),
        rules_(rules),
        matcher_stats_(stats),
        planner_(&stats_, options) {}

  /// Registers the LHS relations of the newest rule (`rules->back()`;
  /// each must be in the catalog) with the statistics, seeded from their
  /// current contents so a rule added after a preload plans against real
  /// cardinalities, and plans the rule.
  void AddNewest();
  /// Drops the newest rule's plan (the rule failed to build).
  void DropNewest() { plans_.pop_back(); }

  /// Folds one batch into the statistics (planning on only). Runs before
  /// the batch is matched, so an evaluation reads post-batch counts.
  void OnBatch(const ChangeSet& batch);
  /// Counts `deltas` toward the drift check (planning on only), which
  /// runs once every kReplanCheckInterval deltas and re-plans every rule
  /// when some rule's relations drifted past replan_drift.
  Outcome MaybeReplan(size_t deltas);
  /// Refreshes the stale sketches and re-plans every rule now.
  Outcome Replan();

  bool enabled() const { return planner_.options().enable; }
  size_t size() const { return plans_.size(); }
  const JoinPlan& operator[](size_t rule) const { return plans_[rule]; }
  const CatalogStats& stats() const { return stats_; }

 private:
  Catalog* catalog_;
  const std::vector<Rule>* rules_;
  MatcherStats* matcher_stats_;
  CatalogStats stats_;
  JoinPlanner planner_;
  std::vector<JoinPlan> plans_;
  size_t deltas_since_check_ = 0;
};

}  // namespace prodb

#endif  // PRODB_PLAN_RULE_PLANS_H_
