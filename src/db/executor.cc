#include "db/executor.h"

#include <algorithm>

#include "match/matcher.h"
#include "plan/planner.h"

namespace prodb {

constexpr TupleId QueryMatch::kNoTuple;

bool TupleConsistent(const ConditionSpec& cond, const Tuple& t,
                     Binding* binding,
                     std::vector<DeferredTest>* deferred) {
  for (const ConstantTest& c : cond.constant_tests) {
    if (!c.Matches(t)) return false;
  }
  // Check every test against already-bound variables, binding equality
  // occurrences as we go (OPS5 semantics: the first occurrence of <x>
  // binds, later occurrences test).
  Binding saved = *binding;
  size_t deferred_mark = deferred != nullptr ? deferred->size() : 0;
  for (const VarUse& u : cond.var_uses) {
    const Value& v = t[static_cast<size_t>(u.attr)];
    std::optional<Value>& slot = (*binding)[static_cast<size_t>(u.var)];
    if (slot.has_value()) {
      if (!EvalCompare(v, u.op, *slot)) {
        *binding = std::move(saved);
        if (deferred != nullptr) deferred->resize(deferred_mark);
        return false;
      }
    } else {
      if (u.op != CompareOp::kEq) {
        // The variable is bound by a condition element not yet examined
        // (e.g. when evaluation is seeded out of LHS order). Defer.
        if (deferred == nullptr) {
          *binding = std::move(saved);
          return false;
        }
        deferred->push_back(DeferredTest{v, u.op, u.var});
        continue;
      }
      slot = v;
    }
  }
  return true;
}

bool SettleDeferred(const Binding& binding,
                    std::vector<DeferredTest>* deferred) {
  for (size_t i = 0; i < deferred->size();) {
    const DeferredTest& d = (*deferred)[i];
    const auto& slot = binding[static_cast<size_t>(d.var)];
    if (!slot.has_value()) {
      ++i;
      continue;
    }
    if (!EvalCompare(d.value, d.op, *slot)) return false;
    (*deferred)[i] = deferred->back();
    deferred->pop_back();
  }
  return true;
}

bool BindSingle(const ConditionSpec& cond, const Tuple& t, int num_vars,
                Binding* out, std::vector<DeferredTest>* deferred) {
  out->assign(static_cast<size_t>(num_vars), std::nullopt);
  std::vector<DeferredTest> local;
  return TupleConsistent(cond, t, out,
                         deferred != nullptr ? deferred : &local);
}

struct Executor::Partial {
  Partial() = default;
  /// The empty match of `query`: nothing bound, no tuple chosen.
  explicit Partial(const ConjunctiveQuery& query)
      : binding(static_cast<size_t>(query.num_vars), std::nullopt),
        ids(query.conditions.size(), QueryMatch::kNoTuple),
        tuples(query.conditions.size()) {}

  Binding binding;
  std::vector<TupleId> ids;
  std::vector<Tuple> tuples;
  // Non-equality tests awaiting their variable's binder (see
  // DeferredTest); settled as extension proceeds.
  std::vector<DeferredTest> deferred;
};

Status Executor::ExtendPositive(const ConditionSpec& cond, size_t cond_idx,
                                std::vector<Partial>* partials) const {
  Relation* rel = catalog_->Get(cond.relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + cond.relation);
  }
  std::vector<Partial> next;
  for (Partial& p : *partials) {
    // Index probe: an equality var-use whose variable is bound, or an
    // equality constant test, on an indexed attribute.
    std::vector<TupleId> candidate_ids;
    bool have_candidates = false;
    if (options_.use_indexes) {
      // With catalog statistics attached, pick the most selective probe
      // (highest distinct count) among all indexed candidates; without
      // them, the historical first-found choice. Bound-variable probes
      // still outrank constant probes — a constant test also filtered
      // the statistics the distinct counts were built over.
      const RelationStats* rstats = planner_stats_ == nullptr
                                        ? nullptr
                                        : planner_stats_->Get(cond.relation);
      int best_attr = -1;
      const Value* best_value = nullptr;
      double best_distinct = 0.0;
      for (const VarUse& u : cond.var_uses) {
        if (u.op != CompareOp::kEq) continue;
        const auto& slot = p.binding[static_cast<size_t>(u.var)];
        if (!slot.has_value()) continue;
        if (!rel->HasHashIndex(u.attr) && !rel->HasBTreeIndex(u.attr)) {
          continue;
        }
        const double d =
            rstats == nullptr ? 1.0 : rstats->DistinctEstimate(u.attr);
        if (best_attr < 0 || d > best_distinct) {
          best_attr = u.attr;
          best_value = &*slot;
          best_distinct = d;
        }
        if (rstats == nullptr) break;  // first found, as before
      }
      if (best_attr < 0) {
        for (const ConstantTest& c : cond.constant_tests) {
          if (c.op != CompareOp::kEq) continue;
          if (!rel->HasHashIndex(c.attr) && !rel->HasBTreeIndex(c.attr)) {
            continue;
          }
          const double d =
              rstats == nullptr ? 1.0 : rstats->DistinctEstimate(c.attr);
          if (best_attr < 0 || d > best_distinct) {
            best_attr = c.attr;
            best_value = &c.constant;
            best_distinct = d;
          }
          if (rstats == nullptr) break;
        }
      }
      if (best_attr >= 0) {
        PRODB_RETURN_IF_ERROR(
            rel->LookupEq(best_attr, *best_value, &candidate_ids));
        have_candidates = true;
      }
    }
    auto try_tuple = [&](TupleId id, const Tuple& t) {
      Binding b = p.binding;
      std::vector<DeferredTest> d = p.deferred;
      if (!TupleConsistent(cond, t, &b, &d)) return;
      if (!SettleDeferred(b, &d)) return;
      Partial np;
      np.binding = std::move(b);
      np.ids = p.ids;
      np.tuples = p.tuples;
      np.deferred = std::move(d);
      np.ids[cond_idx] = id;
      np.tuples[cond_idx] = t;
      next.push_back(std::move(np));
    };
    if (have_candidates) {
      if (stats_ != nullptr) {
        ++stats_->index_probes;
        stats_->probe_tokens_visited += candidate_ids.size();
      }
      for (TupleId id : candidate_ids) {
        Tuple t;
        PRODB_RETURN_IF_ERROR(rel->Get(id, &t));
        try_tuple(id, t);
      }
    } else {
      PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId id, const Tuple& t) {
        if (stats_ != nullptr) ++stats_->scan_tokens_visited;
        try_tuple(id, t);
        return Status::OK();
      }));
    }
  }
  *partials = std::move(next);
  return Status::OK();
}

Status FindWitness(const Relation& rel, const ConditionSpec& cond,
                   const Binding& binding, bool use_indexes,
                   MatcherStats* stats, bool* exists) {
  *exists = false;
  // Index probe mirrors ExtendPositive but stops at the first witness.
  std::vector<TupleId> candidate_ids;
  bool have_candidates = false;
  if (use_indexes) {
    for (const VarUse& u : cond.var_uses) {
      if (u.op != CompareOp::kEq) continue;
      const auto& slot = binding[static_cast<size_t>(u.var)];
      if (!slot.has_value()) continue;
      if (rel.HasHashIndex(u.attr) || rel.HasBTreeIndex(u.attr)) {
        PRODB_RETURN_IF_ERROR(rel.LookupEq(u.attr, *slot, &candidate_ids));
        have_candidates = true;
        break;
      }
    }
  }
  if (have_candidates) {
    if (stats != nullptr) {
      ++stats->index_probes;
      stats->probe_tokens_visited += candidate_ids.size();
    }
    for (TupleId id : candidate_ids) {
      Tuple t;
      PRODB_RETURN_IF_ERROR(rel.Get(id, &t));
      Binding b = binding;
      if (TupleConsistent(cond, t, &b)) {
        *exists = true;
        break;
      }
    }
    return Status::OK();
  }
  return rel.Scan([&](TupleId, const Tuple& t) {
    if (stats != nullptr) ++stats->scan_tokens_visited;
    if (!*exists) {
      Binding b = binding;
      if (TupleConsistent(cond, t, &b)) *exists = true;
    }
    return Status::OK();
  });
}

Status Executor::FilterNegative(const ConditionSpec& cond,
                                std::vector<Partial>* partials) const {
  Relation* rel = catalog_->Get(cond.relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + cond.relation);
  }
  std::vector<Partial> next;
  for (Partial& p : *partials) {
    bool exists = false;
    PRODB_RETURN_IF_ERROR(FindWitness(*rel, cond, p.binding,
                                      options_.use_indexes, stats_, &exists));
    if (!exists) next.push_back(std::move(p));
  }
  *partials = std::move(next);
  return Status::OK();
}

Status Executor::Evaluate(const ConjunctiveQuery& query,
                          std::vector<QueryMatch>* out,
                          const std::vector<size_t>* forced_order) const {
  return EvaluateSeeded(query, SIZE_MAX, QueryMatch::kNoTuple, Tuple(), out,
                        forced_order);
}

Status Executor::EvaluateBound(const ConjunctiveQuery& query,
                               const Binding& initial,
                               std::vector<QueryMatch>* out) const {
  out->clear();
  Partial init(query);
  for (size_t i = 0; i < initial.size() && i < init.binding.size(); ++i) {
    init.binding[i] = initial[i];
  }
  return Run(query, std::move(init), SIZE_MAX, nullptr, out);
}

Status Executor::EvaluateSeeded(const ConjunctiveQuery& query,
                                size_t seed_idx, TupleId seed_id,
                                const Tuple& seed,
                                std::vector<QueryMatch>* out,
                                const std::vector<size_t>* forced_order)
    const {
  out->clear();
  Partial init(query);
  if (seed_idx != SIZE_MAX) {
    if (seed_idx >= query.conditions.size()) {
      return Status::InvalidArgument("seed index out of range");
    }
    const ConditionSpec& sc = query.conditions[seed_idx];
    if (sc.negated) {
      return Status::InvalidArgument("cannot seed a negated condition");
    }
    if (!TupleConsistent(sc, seed, &init.binding, &init.deferred)) {
      return Status::OK();  // the new tuple does not satisfy its own CE
    }
    init.ids[seed_idx] = seed_id;
    init.tuples[seed_idx] = seed;
  }
  return Run(query, std::move(init), seed_idx, forced_order, out);
}

Status Executor::Run(const ConjunctiveQuery& query, Partial init,
                     size_t skip_idx, const std::vector<size_t>* order,
                     std::vector<QueryMatch>* out) const {
  // A planner-supplied order overrides the syntactic one; deferred tests
  // settle ordered comparisons whose binder the plan placed later, so
  // any positive-CE permutation evaluates to the same match set.
  const JoinPlan syntactic =
      order == nullptr ? JoinPlanner::Syntactic(query) : JoinPlan();
  if (order == nullptr) order = &syntactic.order;
  const size_t n = query.conditions.size();
  std::vector<Partial> partials{std::move(init)};
  for (size_t idx : *order) {
    if (idx == skip_idx || idx >= n || query.conditions[idx].negated) {
      continue;
    }
    PRODB_RETURN_IF_ERROR(
        ExtendPositive(query.conditions[idx], idx, &partials));
    if (partials.empty()) return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    if (!query.conditions[i].negated) continue;
    PRODB_RETURN_IF_ERROR(FilterNegative(query.conditions[i], &partials));
    if (partials.empty()) return Status::OK();
  }
  out->reserve(partials.size());
  for (Partial& p : partials) {
    // A deferred test still pending means its variable was never bound
    // by any positive CE — a malformed rule; treat as unsatisfied.
    if (!p.deferred.empty()) continue;
    out->push_back(QueryMatch{std::move(p.ids), std::move(p.tuples),
                              std::move(p.binding)});
  }
  return Status::OK();
}

}  // namespace prodb
