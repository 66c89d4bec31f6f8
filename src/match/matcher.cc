#include "match/matcher.h"

#include <cmath>

#include "db/executor.h"

namespace prodb {

void MatcherStats::ObserveCardEstimate(double estimated, double actual) {
  const double err = std::fabs(std::log((1.0 + actual) / (1.0 + estimated)));
  est_card_err_millinats.fetch_add(static_cast<uint64_t>(err * 1000.0),
                                   std::memory_order_relaxed);
  est_card_samples.fetch_add(1, std::memory_order_relaxed);
}

Status Matcher::CheckClasses(const Rule& rule) const {
  for (const ConditionSpec& c : rule.lhs.conditions) {
    if (catalog_->Get(c.relation) == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              c.relation);
    }
  }
  return Status::OK();
}

Instantiation InstantiationOf(int rule_index, const Rule& rule,
                              QueryMatch&& m) {
  Instantiation inst;
  inst.rule_index = rule_index;
  inst.rule_name = rule.name;
  inst.tuple_ids = std::move(m.tuple_ids);
  inst.tuples = std::move(m.tuples);
  inst.binding = std::move(m.binding);
  return inst;
}

Status MaterializeInstantiations(Catalog* catalog, const Rule& rule,
                                 int rule_index, const Binding& binding,
                                 std::vector<Instantiation>* out,
                                 MatcherStats* stats) {
  // Evaluate the LHS under the binding: each positive CE degenerates to a
  // selection on the bound variables ("the attribute values in each
  // matching pattern provide the selection criterion", §5.1), and
  // cross-CE consistency for variables the binding leaves open is
  // verified exactly. A matching pattern that over-approximates (possible
  // on chained joins, see DESIGN.md) yields zero instantiations here —
  // a false drop costing only time, per §2.3.
  Executor executor(catalog);
  executor.set_stats(stats);
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor.EvaluateBound(rule.lhs, binding, &matches));
  for (QueryMatch& m : matches) {
    out->push_back(InstantiationOf(rule_index, rule, std::move(m)));
  }
  return Status::OK();
}

}  // namespace prodb
