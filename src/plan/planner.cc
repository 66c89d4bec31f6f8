#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace prodb {

namespace {
/// Exhaustive left-deep DP up to this many positive CEs; greedy above.
constexpr size_t kDpMaxConditions = 9;
/// Below this many total tuples across the LHS relations the planner
/// keeps the syntactic order (no evidence to beat it with).
constexpr double kMinCard = 2.0;
}  // namespace

bool JoinPlanner::Eligible(const ConditionSpec& c,
                           const std::vector<bool>& bound) {
  // Mirror TupleConsistent's sequential semantics: occurrences are
  // checked in order, eq occurrences bind, and an ordered comparison on
  // a still-unbound variable cannot be evaluated (the Rete join chain
  // has no deferral — such a pair is simply dropped).
  std::vector<bool> local = bound;
  for (const VarUse& u : c.var_uses) {
    const size_t var = static_cast<size_t>(u.var);
    if (var >= local.size()) local.resize(var + 1, false);
    if (u.op == CompareOp::kEq) {
      local[var] = true;
    } else if (!local[var]) {
      return false;
    }
  }
  return true;
}

void JoinPlanner::BindVars(const ConditionSpec& c, std::vector<bool>* bound) {
  for (const VarUse& u : c.var_uses) {
    const size_t var = static_cast<size_t>(u.var);
    if (var >= bound->size()) bound->resize(var + 1, false);
    if (u.op == CompareOp::kEq) (*bound)[var] = true;
  }
}

JoinPlan JoinPlanner::Syntactic(const ConjunctiveQuery& q) {
  JoinPlan plan;
  for (size_t i = 0; i < q.conditions.size(); ++i) {
    if (!q.conditions[i].negated) plan.order.push_back(i);
  }
  plan.num_positive = plan.order.size();
  for (size_t i = 0; i < q.conditions.size(); ++i) {
    if (q.conditions[i].negated) plan.order.push_back(i);
  }
  return plan;
}

void JoinPlanner::Finish(const ConjunctiveQuery& q, JoinPlan* plan) const {
  // Estimates along the chosen order (also fills them for syntactic
  // fallbacks, so est-vs-actual accounting works either way), the cost,
  // and the drift snapshot.
  plan->level_cards.clear();
  std::vector<bool> bound(static_cast<size_t>(q.num_vars), false);
  double card = 0.0;
  for (size_t k = 0; k < plan->num_positive; ++k) {
    const ConditionSpec& c = q.conditions[plan->order[k]];
    card = k == 0 ? est_.SelectionCard(c) : card * est_.JoinFanout(c, bound);
    plan->level_cards.push_back(card);
    BindVars(c, &bound);
  }
  plan->est_final = card;
  plan->cost = cost_model_.ChainCost(plan->level_cards);
  plan->card_snapshot.clear();
  for (const ConditionSpec& c : q.conditions) {
    plan->card_snapshot.emplace_back(c.relation, est_.RelationCard(c));
  }
}

JoinPlan JoinPlanner::PlanGreedy(const ConjunctiveQuery& q,
                                 const std::vector<size_t>& positives) const {
  JoinPlan plan;
  std::vector<bool> used(q.conditions.size(), false);
  std::vector<bool> bound(static_cast<size_t>(q.num_vars), false);
  double card = 0.0;
  while (plan.order.size() < positives.size()) {
    int best = -1;
    double best_card = std::numeric_limits<double>::infinity();
    for (size_t i : positives) {
      if (used[i]) continue;
      const ConditionSpec& c = q.conditions[i];
      if (!Eligible(c, bound)) continue;
      const double next = plan.order.empty()
                              ? est_.SelectionCard(c)
                              : card * est_.JoinFanout(c, bound);
      if (next < best_card) {  // strict: ties keep the lowest index
        best_card = next;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return Syntactic(q);  // eligibility dead end
    used[static_cast<size_t>(best)] = true;
    plan.order.push_back(static_cast<size_t>(best));
    card = best_card;
    BindVars(q.conditions[static_cast<size_t>(best)], &bound);
  }
  plan.num_positive = plan.order.size();
  plan.planned = true;
  return plan;
}

JoinPlan JoinPlanner::PlanDp(const ConjunctiveQuery& q,
                             const std::vector<size_t>& positives) const {
  // Selinger-style DP over subsets restricted to left-deep chains. State
  // = subset of positives joined so far; we keep the cheapest order per
  // subset (cost = weighted sum of intermediate cardinalities, so prefix
  // optimality holds and the DP is exact for this cost model).
  const size_t m = positives.size();
  const size_t full = (size_t{1} << m) - 1;
  struct State {
    double cost = std::numeric_limits<double>::infinity();
    double card = 0.0;
    std::vector<size_t> order;  // indices into `positives`
  };
  std::vector<State> states(full + 1);
  states[0].cost = 0.0;

  auto bound_of = [&](const std::vector<size_t>& order) {
    std::vector<bool> bound(static_cast<size_t>(q.num_vars), false);
    for (size_t pi : order) BindVars(q.conditions[positives[pi]], &bound);
    return bound;
  };

  for (size_t mask = 0; mask <= full; ++mask) {
    State& s = states[mask];
    if (!std::isfinite(s.cost)) continue;
    const std::vector<bool> bound = bound_of(s.order);
    for (size_t pi = 0; pi < m; ++pi) {
      if (mask & (size_t{1} << pi)) continue;
      const ConditionSpec& c = q.conditions[positives[pi]];
      if (!Eligible(c, bound)) continue;
      const double card = mask == 0 ? est_.SelectionCard(c)
                                    : s.card * est_.JoinFanout(c, bound);
      // Levels >= 1 contribute to ChainCost; level 0 is free (alpha
      // output is paid under any order).
      const double cost = s.cost + (mask == 0 ? 0.0 : card);
      State& t = states[mask | (size_t{1} << pi)];
      if (cost < t.cost ||
          (cost == t.cost && !t.order.empty() &&
           std::lexicographical_compare(s.order.begin(), s.order.end(),
                                        t.order.begin(), t.order.end()))) {
        t.cost = cost;
        t.card = card;
        t.order = s.order;
        t.order.push_back(pi);
      }
    }
  }
  if (!std::isfinite(states[full].cost)) return Syntactic(q);
  JoinPlan plan;
  for (size_t pi : states[full].order) plan.order.push_back(positives[pi]);
  plan.num_positive = plan.order.size();
  plan.planned = true;
  return plan;
}

JoinPlan JoinPlanner::Plan(const ConjunctiveQuery& q) const {
  std::vector<size_t> positives;
  double total_card = 0.0;
  for (size_t i = 0; i < q.conditions.size(); ++i) {
    if (!q.conditions[i].negated) positives.push_back(i);
    total_card += est_.RelationCard(q.conditions[i]);
  }
  JoinPlan plan;
  if (!options_.enable || positives.size() < 2 ||
      total_card < kMinCard) {
    plan = Syntactic(q);
  } else {
    plan = positives.size() <= kDpMaxConditions
               ? PlanDp(q, positives)
               : PlanGreedy(q, positives);
    if (plan.planned) {
      // Negated CEs run after all positives, in textual order (their
      // relative order is semantically free; textual keeps the network
      // shape stable). The eligibility dead-end fallback is already a
      // complete syntactic order.
      for (size_t i = 0; i < q.conditions.size(); ++i) {
        if (q.conditions[i].negated) plan.order.push_back(i);
      }
    }
  }
  Finish(q, &plan);
  return plan;
}

bool JoinPlanner::NeedsReplan(const JoinPlan& plan) const {
  if (!options_.enable) return false;
  for (const auto& [rel, snap] : plan.card_snapshot) {
    const RelationStats* r =
        est_.stats() == nullptr ? nullptr : est_.stats()->Get(rel);
    if (r == nullptr) continue;
    const double now = static_cast<double>(r->cardinality()) + 1.0;
    const double then = snap + 1.0;
    const double ratio = now > then ? now / then : then / now;
    if (ratio >= options_.replan_drift) return true;
  }
  return false;
}

}  // namespace prodb
