#include "match/query_matcher.h"

#include <chrono>
#include <set>
#include <unordered_set>

namespace prodb {

Status QueryMatcher::AddRule(const Rule& rule) {
  int rule_index = static_cast<int>(rules_.size());
  const bool declare = executor_.options().use_indexes;
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& c = rule.lhs.conditions[ce];
    Relation* rel = catalog_->Get(c.relation);
    if (rel == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              c.relation);
    }
    // Register statistics for every LHS relation while registration is
    // still single-threaded (seeding from current contents, so rules
    // added after a preload see real cardinalities); the map is then
    // frozen and OnBatch updates it lock-free from engine threads.
    cat_stats_.Register(c.relation, rel);
    if (declare) {
      // Hash indexes on every attribute the executor can probe with a
      // bound equality (§4.1.2): seeded re-evaluation then touches only
      // the joining tuples instead of scanning each WM relation.
      for (const VarUse& u : c.var_uses) {
        if (u.op == CompareOp::kEq && !rel->HasHashIndex(u.attr)) {
          PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(u.attr));
        }
      }
      for (const ConstantTest& t : c.constant_tests) {
        if (t.op == CompareOp::kEq && !rel->HasHashIndex(t.attr)) {
          PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(t.attr));
        }
      }
    }
    auto& bucket =
        c.negated ? negative_by_class_[c.relation]
                  : positive_by_class_[c.relation];
    auto& disc =
        c.negated ? negative_disc_[c.relation] : positive_disc_[c.relation];
    // Always registered (cheap, and the ablation variants keep the
    // structure comparable); the dispatch flag decides whether lookups
    // happen.
    disc.Add(static_cast<uint32_t>(bucket.size()), c.constant_tests);
    disc.Seal();
    bucket.push_back(CeRef{rule_index, static_cast<int>(ce)});
  }
  rules_.push_back(rule);
  // Plan the rule's join sequence (syntactic when stats are empty — the
  // usual case at registration time; the drift check upgrades it once
  // data arrives). Copy-on-write republication keeps readers lock-free.
  auto cur = plans_.load();
  auto next = std::make_shared<std::vector<JoinPlan>>(*cur);
  next->push_back(planner_.Plan(rule.lhs));
  ++stats_.plans_built;
  plans_.store(std::shared_ptr<const std::vector<JoinPlan>>(std::move(next)));
  return Status::OK();
}

void QueryMatcher::MaybeReplan(size_t deltas) {
  if (!planner_.options().enable || rules_.empty()) return;
  const uint64_t pending =
      deltas_since_plan_check_.fetch_add(deltas, std::memory_order_relaxed) +
      deltas;
  if (pending < 64) return;  // rate-limit the drift scan
  std::unique_lock<std::mutex> lock(replan_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another thread is already checking
  deltas_since_plan_check_.store(0, std::memory_order_relaxed);
  auto cur = plans_.load();
  bool drift = false;
  for (const JoinPlan& p : *cur) {
    if (planner_.NeedsReplan(p)) {
      drift = true;
      break;
    }
  }
  if (!drift) return;
  // Off the batch counter path: re-sketch aged histograms/distinct
  // bitmaps, then recompute every plan against the fresh statistics.
  cat_stats_.RefreshStale(catalog_);
  auto next = std::make_shared<std::vector<JoinPlan>>();
  next->reserve(rules_.size());
  for (const Rule& r : rules_) {
    next->push_back(planner_.Plan(r.lhs));
    ++stats_.plans_built;
  }
  ++stats_.replans;
  plans_.store(std::shared_ptr<const std::vector<JoinPlan>>(std::move(next)));
}

void QueryMatcher::DispatchTargets(bool negated, const std::string& rel,
                                   size_t n, const Tuple& t,
                                   std::vector<uint32_t>* out) {
  out->clear();
  if (executor_.options().discriminate_dispatch) {
    out->reserve(last_candidates_.load(std::memory_order_relaxed));
    const auto& discs = negated ? negative_disc_ : positive_disc_;
    auto it = discs.find(rel);
    if (it != discs.end()) it->second.Lookup(t, out);
    last_candidates_.store(static_cast<uint32_t>(out->size()),
                           std::memory_order_relaxed);
    stats_.candidates_visited += out->size();
  } else {
    out->reserve(n);
    for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) {
      out->push_back(i);
    }
  }
  stats_.alpha_tests_evaluated += out->size();
}

Status QueryMatcher::SeedMatches(int rule_index, int ce, TupleId id,
                                 const Tuple& t,
                                 std::vector<Instantiation>* out) {
  const Rule& rule = rules_[static_cast<size_t>(rule_index)];
  // Planned evaluation order (snapshot — replans swap the whole vector).
  std::shared_ptr<const std::vector<JoinPlan>> plans;
  const JoinPlan* plan = nullptr;
  if (planner_.options().enable) {
    plans = plans_.load();
    if (static_cast<size_t>(rule_index) < plans->size()) {
      plan = &(*plans)[static_cast<size_t>(rule_index)];
    }
  }
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.EvaluateSeeded(
      rule.lhs, static_cast<size_t>(ce), id, t, &matches,
      plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    // Estimator quality: a seed pins one tuple of its relation, so the
    // expected match count is est_final / |seed relation|.
    const RelationStats* rs =
        cat_stats_.Get(rule.lhs.conditions[static_cast<size_t>(ce)].relation);
    const double card =
        rs == nullptr ? 1.0
                      : static_cast<double>(std::max<int64_t>(
                            1, rs->cardinality()));
    stats_.ObserveCardEstimate(plan->est_final / card,
                               static_cast<double>(matches.size()));
  }
  out->reserve(out->size() + matches.size());
  for (QueryMatch& m : matches) {
    ++stats_.tuples_examined;
    Instantiation inst;
    inst.rule_index = rule_index;
    inst.rule_name = rule.name;
    inst.tuple_ids = std::move(m.tuple_ids);
    inst.tuples = std::move(m.tuples);
    inst.binding = std::move(m.binding);
    out->push_back(std::move(inst));
  }
  return Status::OK();
}

Status QueryMatcher::SeedAndAdd(int rule_index, int ce, TupleId id,
                                const Tuple& t) {
  std::vector<Instantiation> insts;
  PRODB_RETURN_IF_ERROR(SeedMatches(rule_index, ce, id, t, &insts));
  for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
  return Status::OK();
}

Status QueryMatcher::EvaluateRule(int rule_index,
                                  std::vector<Instantiation>* out) {
  const Rule& rule = rules_[static_cast<size_t>(rule_index)];
  std::shared_ptr<const std::vector<JoinPlan>> plans;
  const JoinPlan* plan = nullptr;
  if (planner_.options().enable) {
    plans = plans_.load();
    if (static_cast<size_t>(rule_index) < plans->size()) {
      plan = &(*plans)[static_cast<size_t>(rule_index)];
    }
  }
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.Evaluate(
      rule.lhs, &matches, plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    stats_.ObserveCardEstimate(plan->est_final,
                               static_cast<double>(matches.size()));
  }
  out->reserve(out->size() + matches.size());
  for (QueryMatch& m : matches) {
    Instantiation inst;
    inst.rule_index = rule_index;
    inst.rule_name = rule.name;
    inst.tuple_ids = std::move(m.tuple_ids);
    inst.tuples = std::move(m.tuples);
    inst.binding = std::move(m.binding);
    out->push_back(std::move(inst));
  }
  return Status::OK();
}

Status QueryMatcher::OnInsert(const std::string& rel, TupleId id,
                              const Tuple& t) {
  if (planner_.options().enable) cat_stats_.OnDelta(rel, t, +1);
  std::vector<uint32_t> cands;
  // Positive CEs over this class whose constant tests can accept the new
  // tuple: re-evaluate the LHS seeded with it (§4.1.2's re-computation
  // of joins).
  auto pit = positive_by_class_.find(rel);
  if (pit != positive_by_class_.end()) {
    DispatchTargets(false, rel, pit->second.size(), t, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = pit->second[pos];
      ++stats_.propagations;
      PRODB_RETURN_IF_ERROR(SeedAndAdd(ref.rule, ref.ce, id, t));
    }
  }
  // Negated CEs over this class: the new tuple may invalidate existing
  // instantiations whose binding it is consistent with.
  auto nit = negative_by_class_.find(rel);
  if (nit != negative_by_class_.end()) {
    DispatchTargets(true, rel, nit->second.size(), t, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = nit->second[pos];
      const ConditionSpec& ce =
          rules_[static_cast<size_t>(ref.rule)].lhs.conditions
              [static_cast<size_t>(ref.ce)];
      conflict_set_.RemoveIf([&](const Instantiation& inst) {
        if (inst.rule_index != ref.rule) return false;
        Binding b = inst.binding;
        return TupleConsistent(ce, t, &b);
      });
    }
  }
  MaybeReplan(1);
  return Status::OK();
}

Status QueryMatcher::OnDelete(const std::string& rel, TupleId id,
                              const Tuple& t) {
  if (planner_.options().enable) cat_stats_.OnDelta(rel, t, -1);
  // Drop instantiations that referenced the deleted tuple at a CE over
  // this relation.
  conflict_set_.RemoveIf([&](const Instantiation& inst) {
    const Rule& rule = rules_[static_cast<size_t>(inst.rule_index)];
    for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
      if (rule.lhs.conditions[ce].relation == rel &&
          !rule.lhs.conditions[ce].negated && inst.tuple_ids[ce] == id) {
        return true;
      }
    }
    return false;
  });
  // A deletion can enable rules negatively dependent on this relation:
  // re-evaluate them from scratch. Only CEs whose constant tests accept
  // the dead tuple need it — a tuple failing them never blocked anything.
  auto nit = negative_by_class_.find(rel);
  if (nit != negative_by_class_.end()) {
    std::vector<uint32_t> cands;
    DispatchTargets(true, rel, nit->second.size(), t, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = nit->second[pos];
      std::vector<Instantiation> insts;
      PRODB_RETURN_IF_ERROR(EvaluateRule(ref.rule, &insts));
      ++stats_.propagations;
      for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
    }
  }
  MaybeReplan(1);
  return Status::OK();
}

Status QueryMatcher::OnBatch(const ChangeSet& batch) {
  ++stats_.batches;
  if (batch.size() == 1) {
    const Delta& d = batch[0];
    return d.is_insert() ? OnInsert(d.relation, d.id, d.tuple)
                         : OnDelete(d.relation, d.id, d.tuple);
  }
  if (planner_.options().enable) cat_stats_.OnBatch(batch);
  const bool sharded = sharding_.enabled();
  std::unique_lock<std::mutex> lock(batch_mu_, std::defer_lock);
  if (sharded) lock.lock();
  std::vector<uint32_t> cands;

  // 1. One conflict-set pass retiring every instantiation that references
  //    a deleted tuple at a positive CE (the per-tuple path pays one full
  //    pass per deletion).
  std::unordered_map<std::string, std::unordered_set<TupleId, TupleIdHash>>
      deleted;
  for (const Delta& d : batch) {
    if (d.is_delete()) deleted[d.relation].insert(d.id);
  }
  if (!deleted.empty()) {
    conflict_set_.RemoveIf([&](const Instantiation& inst) {
      const Rule& rule = rules_[static_cast<size_t>(inst.rule_index)];
      for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
        if (rule.lhs.conditions[ce].negated) continue;
        auto it = deleted.find(rule.lhs.conditions[ce].relation);
        if (it != deleted.end() && it->second.count(inst.tuple_ids[ce])) {
          return true;
        }
      }
      return false;
    });
  }

  // 2. One pass retiring instantiations blocked by inserted tuples via
  //    negated CEs, restricted to the (delta, CE) pairs the
  //    discrimination index says can interact. Additions below evaluate
  //    against the post-batch WM, so a blocker inserted anywhere in the
  //    batch censors them already.
  std::vector<std::pair<const Delta*, const CeRef*>> blockers;
  for (const Delta& d : batch) {
    if (!d.is_insert()) continue;
    auto nit = negative_by_class_.find(d.relation);
    if (nit == negative_by_class_.end()) continue;
    DispatchTargets(true, d.relation, nit->second.size(), d.tuple, &cands);
    for (uint32_t pos : cands) {
      blockers.emplace_back(&d, &nit->second[pos]);
    }
  }
  if (!blockers.empty()) {
    conflict_set_.RemoveIf([&](const Instantiation& inst) {
      for (const auto& [d, ref] : blockers) {
        if (ref->rule != inst.rule_index) continue;
        const ConditionSpec& ce =
            rules_[static_cast<size_t>(ref->rule)].lhs.conditions
                [static_cast<size_t>(ref->ce)];
        Binding b = inst.binding;
        if (TupleConsistent(ce, d->tuple, &b)) return true;
      }
      return false;
    });
  }

  // 3. Seeded evaluation per inserted tuple against its candidate CEs; a
  //    batch still counts one propagation step per affected condition
  //    element rather than one per tuple. A tuple both inserted and
  //    deleted within the batch is never seeded: EvaluateSeeded
  //    force-includes its seed, and the removal pass above has already
  //    run.
  auto dead = [&](const Delta& d) {
    auto it = deleted.find(d.relation);
    return it != deleted.end() && it->second.count(d.id) > 0;
  };
  // One seeded evaluation per (insert, candidate CE). Sharded, the pairs
  // are collected first (dispatch accounting stays serial), partitioned
  // by the seed tuple's shard, evaluated concurrently into per-pair
  // buffers — evaluation is read-only against post-batch WM — and
  // committed in collection order, so conflict-set contents and recency
  // stamps are byte-identical to the serial path.
  struct SeedItem {
    const Delta* d;
    int rule;
    int ce;
    size_t shard;
    std::vector<Instantiation> insts;
    Status st;
  };
  std::vector<SeedItem> seeds;
  std::set<std::pair<const std::string*, uint32_t>> counted;
  for (const Delta& d : batch) {
    if (!d.is_insert() || dead(d)) continue;
    auto pit = positive_by_class_.find(d.relation);
    if (pit == positive_by_class_.end()) continue;
    DispatchTargets(false, d.relation, pit->second.size(), d.tuple, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = pit->second[pos];
      if (counted.insert({&pit->first, pos}).second) ++stats_.propagations;
      if (sharded) {
        seeds.push_back(
            SeedItem{&d, ref.rule, ref.ce, shard_map_.Route(d), {}, {}});
      } else {
        PRODB_RETURN_IF_ERROR(SeedAndAdd(ref.rule, ref.ce, d.id, d.tuple));
      }
    }
  }
  if (!seeds.empty()) {
    std::vector<std::vector<size_t>> by_shard(shard_map_.num_shards());
    for (size_t i = 0; i < seeds.size(); ++i) {
      by_shard[seeds[i].shard].push_back(i);
    }
    std::vector<std::chrono::steady_clock::time_point> done_at(
        by_shard.size());
    auto run_shard = [&](size_t s) {
      for (size_t i : by_shard[s]) {
        SeedItem& item = seeds[i];
        ++shard_stats_[s].deltas_routed;
        item.st =
            SeedMatches(item.rule, item.ce, item.d->id, item.d->tuple,
                        &item.insts);
        shard_stats_[s].conflict_ops += item.insts.size();
        if (!item.st.ok()) break;
      }
      done_at[s] = std::chrono::steady_clock::now();
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(by_shard.size(), run_shard);
    } else {
      for (size_t s = 0; s < by_shard.size(); ++s) run_shard(s);
    }
    const auto barrier = std::chrono::steady_clock::now();
    for (size_t s = 0; s < by_shard.size(); ++s) {
      shard_stats_[s].merge_wait_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(barrier -
                                                               done_at[s])
              .count());
    }
    for (SeedItem& item : seeds) {
      PRODB_RETURN_IF_ERROR(item.st);
      for (Instantiation& inst : item.insts) {
        conflict_set_.Add(std::move(inst));
      }
    }
  }

  // 4. Each rule negatively dependent on a deletion the index deems
  //    relevant is re-evaluated once — not once per deleted tuple, the
  //    amortization §4.1.2's "re-computation of joins" cost begs for.
  std::set<int> reeval;
  for (const Delta& d : batch) {
    if (!d.is_delete()) continue;
    auto nit = negative_by_class_.find(d.relation);
    if (nit == negative_by_class_.end()) continue;
    DispatchTargets(true, d.relation, nit->second.size(), d.tuple, &cands);
    for (uint32_t pos : cands) reeval.insert(nit->second[pos].rule);
  }
  if (!sharded) {
    for (int rule_index : reeval) {
      std::vector<Instantiation> insts;
      PRODB_RETURN_IF_ERROR(EvaluateRule(rule_index, &insts));
      ++stats_.propagations;
      for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
    }
    MaybeReplan(batch.size());
    return Status::OK();
  }
  // Sharded step 4: full re-evaluations fan out one rule per task,
  // grouped by `rule % num_shards` (rules have no home shard here — the
  // partition only balances work and keeps per-shard counters
  // single-writer); commits run in ascending rule order, matching the
  // serial std::set walk.
  if (!reeval.empty()) {
    std::vector<int> reeval_rules(reeval.begin(), reeval.end());
    std::vector<std::vector<Instantiation>> results(reeval_rules.size());
    std::vector<Status> sts(reeval_rules.size());
    std::vector<std::vector<size_t>> by_shard(shard_map_.num_shards());
    for (size_t i = 0; i < reeval_rules.size(); ++i) {
      by_shard[static_cast<size_t>(reeval_rules[i]) % by_shard.size()]
          .push_back(i);
    }
    auto run_shard = [&](size_t s) {
      for (size_t i : by_shard[s]) {
        ++shard_stats_[s].deltas_routed;
        sts[i] = EvaluateRule(reeval_rules[i], &results[i]);
        shard_stats_[s].conflict_ops += results[i].size();
        if (!sts[i].ok()) break;
      }
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(by_shard.size(), run_shard);
    } else {
      for (size_t s = 0; s < by_shard.size(); ++s) run_shard(s);
    }
    for (size_t i = 0; i < reeval_rules.size(); ++i) {
      PRODB_RETURN_IF_ERROR(sts[i]);
      ++stats_.propagations;
      for (Instantiation& inst : results[i]) {
        conflict_set_.Add(std::move(inst));
      }
    }
  }
  MaybeReplan(batch.size());
  return Status::OK();
}

std::vector<ShardStats> QueryMatcher::ShardStatsSnapshot() const {
  if (!sharding_.enabled()) return {};
  std::lock_guard<std::mutex> lock(batch_mu_);
  return shard_stats_;
}

size_t QueryMatcher::AuxiliaryFootprintBytes() const {
  // The whole point of §4.1: no intermediate results are stored. Only the
  // per-class CE maps (and their discrimination indexes, O(#CEs)) exist.
  size_t total = 0;
  for (const auto& [name, refs] : positive_by_class_) {
    total += name.size() + refs.size() * (sizeof(CeRef) + 16);
  }
  for (const auto& [name, refs] : negative_by_class_) {
    total += name.size() + refs.size() * (sizeof(CeRef) + 16);
  }
  return total;
}

}  // namespace prodb
