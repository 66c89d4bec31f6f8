#ifndef PRODB_PLAN_PLANNER_H_
#define PRODB_PLAN_PLANNER_H_

#include <string>
#include <utility>
#include <vector>

#include "plan/card_est.h"
#include "plan/cost_model.h"

namespace prodb {

/// Knobs for statistics-driven join planning, plumbed from
/// ProductionSystemOptions into the RulePlans of both planning consumers
/// (the Rete network's beta-chain compiler and the query matcher's
/// seeded evaluation). Off (the default) preserves the syntactic
/// textual-order plans exactly — the equivalence baseline and the
/// ablation switch.
struct PlannerOptions {
  bool enable = false;
  /// Re-plan a rule when some LHS relation's cardinality has drifted by
  /// this multiplicative factor since the rule was last planned. The
  /// geometric spacing amortizes Rete's rebuild-and-reseed: over a load
  /// of N tuples the reseeds replay ~N·d/(d-1) tuples total.
  double replan_drift = 4.0;

  bool operator==(const PlannerOptions&) const = default;
};

/// One rule's planned join order and the estimates it was derived from.
struct JoinPlan {
  /// Positive CEs in execution order, then negated CEs (textual order).
  std::vector<size_t> order;
  size_t num_positive = 0;
  /// Estimated rows after joining the first k+1 positive CEs.
  std::vector<double> level_cards;
  double est_final = 0.0;  // estimated instantiations of the rule
  double cost = 0.0;       // CostModel::ChainCost of level_cards
  /// True when the order came from the cost model (false: syntactic
  /// fallback — planning off, or too few tuples to plan from).
  bool planned = false;
  /// Per-LHS-relation cardinality at plan time; NeedsReplan compares
  /// against live values.
  std::vector<std::pair<std::string, double>> card_snapshot;
};

/// Chooses per-rule join orders from catalog statistics: a left-deep
/// order over the positive CEs minimizing the token-visits cost model,
/// negated CEs appended after all positives (their Rete placement and
/// the executor's FilterNegative both require the positives bound
/// first). Orders respect binding eligibility — a CE with an ordered
/// comparison against a variable is never placed before that variable's
/// binder — so the planned order is evaluable by every consumer,
/// including the Rete join chain which has no deferred-test machinery.
class JoinPlanner {
 public:
  JoinPlanner(const CatalogStats* stats, PlannerOptions options = {})
      : est_(stats), options_(options) {}

  /// Plans `q`. Returns the syntactic order (planned=false) when
  /// planning is disabled or the stats carry no usable evidence.
  JoinPlan Plan(const ConjunctiveQuery& q) const;

  /// True when the cardinalities snapshotted in `plan` have drifted past
  /// options().replan_drift. Syntactic fallback plans re-check too, so a
  /// rule planned before any load picks up a cost-based order once data
  /// arrives.
  bool NeedsReplan(const JoinPlan& plan) const;

  /// The textual fallback order: positives in LHS order, then negated.
  static JoinPlan Syntactic(const ConjunctiveQuery& q);

  const PlannerOptions& options() const { return options_; }
  const CardinalityEstimator& estimator() const { return est_; }

 private:
  /// True when `c` can be evaluated with only the variables in `bound`
  /// pre-bound (ordered-comparison uses need their binder first; an eq
  /// occurrence earlier in the same CE also binds).
  static bool Eligible(const ConditionSpec& c, const std::vector<bool>& bound);
  static void BindVars(const ConditionSpec& c, std::vector<bool>* bound);

  JoinPlan PlanDp(const ConjunctiveQuery& q,
                  const std::vector<size_t>& positives) const;
  JoinPlan PlanGreedy(const ConjunctiveQuery& q,
                      const std::vector<size_t>& positives) const;
  void Finish(const ConjunctiveQuery& q, JoinPlan* plan) const;

  CardinalityEstimator est_;
  CostModel cost_model_;
  PlannerOptions options_;
};

}  // namespace prodb

#endif  // PRODB_PLAN_PLANNER_H_
