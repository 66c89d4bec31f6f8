#include "plan/rule_plans.h"

#include <utility>

#include "match/matcher.h"

namespace prodb {

namespace {
/// Deltas between drift checks: cheap enough to keep re-plans timely,
/// coarse enough that the check never shows on the per-delta path.
constexpr size_t kReplanCheckInterval = 64;
}  // namespace

void RulePlans::AddNewest() {
  const ConjunctiveQuery& lhs = rules_->back().lhs;
  for (const ConditionSpec& c : lhs.conditions) {
    stats_.Register(c.relation, catalog_->Get(c.relation));
  }
  plans_.push_back(planner_.Plan(lhs));
  ++matcher_stats_->plans_built;
}

void RulePlans::OnBatch(const ChangeSet& batch) {
  if (enabled()) stats_.OnBatch(batch);
}

RulePlans::Outcome RulePlans::MaybeReplan(size_t deltas) {
  if (!enabled() || plans_.empty()) return Outcome::kKept;
  deltas_since_check_ += deltas;
  if (deltas_since_check_ < kReplanCheckInterval) return Outcome::kKept;
  deltas_since_check_ = 0;
  for (const JoinPlan& p : plans_) {
    if (planner_.NeedsReplan(p)) return Replan();
  }
  return Outcome::kKept;
}

RulePlans::Outcome RulePlans::Replan() {
  // Off the per-delta counter path: re-sketch aged histograms and
  // distinct bitmaps, then recompute every plan against the fresh
  // statistics.
  stats_.RefreshStale(catalog_);
  Outcome outcome = Outcome::kReplanned;
  for (size_t i = 0; i < plans_.size(); ++i) {
    JoinPlan next = planner_.Plan((*rules_)[i].lhs);
    if (next.order != plans_[i].order) outcome = Outcome::kReordered;
    plans_[i] = std::move(next);
  }
  matcher_stats_->plans_built += plans_.size();
  ++matcher_stats_->replans;
  return outcome;
}

}  // namespace prodb
