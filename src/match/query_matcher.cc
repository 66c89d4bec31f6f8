#include "match/query_matcher.h"

#include <algorithm>

namespace prodb {

Status QueryMatcher::AddRule(const Rule& rule) {
  const int rule_index = static_cast<int>(rules_.size());
  PRODB_RETURN_IF_ERROR(CheckClasses(rule));
  // Seeded re-evaluation probes these instead of scanning each WM
  // relation. Declared for every CE before any CE is dispatched: a
  // declaration scans its relation and can fail.
  if (executor_.options().use_indexes) {
    for (const ConditionSpec& c : rule.lhs.conditions) {
      PRODB_RETURN_IF_ERROR(
          DeclareEqualityIndexes(c, catalog_->Get(c.relation)));
    }
  }
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    dispatch_.Add(rule_index, static_cast<int>(ce), rule.lhs.conditions[ce]);
  }
  rules_.push_back(rule);
  plans_.AddNewest();
  return Status::OK();
}

Status QueryMatcher::SeedMatches(int rule_index, int ce, TupleId id,
                                 const Tuple& t,
                                 std::vector<Instantiation>* out) {
  const Rule& rule = rules_[static_cast<size_t>(rule_index)];
  const JoinPlan* plan =
      plans_.enabled() ? &plans_[static_cast<size_t>(rule_index)] : nullptr;
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.EvaluateSeeded(
      rule.lhs, static_cast<size_t>(ce), id, t, &matches,
      plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    // Estimator quality: a seed pins one tuple of its relation, so the
    // expected match count is est_final / |seed relation|.
    const RelationStats* rs = plans_.stats().Get(
        rule.lhs.conditions[static_cast<size_t>(ce)].relation);
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
    out->push_back(InstantiationOf(rule_index, rule, std::move(m)));
  }
  return Status::OK();
}

Status QueryMatcher::EvaluateRule(int rule_index,
                                  std::vector<Instantiation>* out) {
  const Rule& rule = rules_[static_cast<size_t>(rule_index)];
  const JoinPlan* plan =
      plans_.enabled() ? &plans_[static_cast<size_t>(rule_index)] : nullptr;
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.Evaluate(
      rule.lhs, &matches, plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    stats_.ObserveCardEstimate(plan->est_final,
                               static_cast<double>(matches.size()));
  }
  out->reserve(out->size() + matches.size());
  for (QueryMatch& m : matches) {
    out->push_back(InstantiationOf(rule_index, rule, std::move(m)));
  }
  return Status::OK();
}

Status QueryMatcher::OnBatch(const ChangeSet& batch) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  ++stats_.batches;
  plans_.OnBatch(batch);

  // 1–2. The two shared conflict-set passes: instantiations holding a
  //      deleted tuple, then instantiations an inserted tuple blocks
  //      through a negated CE.
  const DeletedTuples deleted(batch);
  dispatch_.RetireDeleted(deleted, &conflict_set_);
  dispatch_.RetireBlocked(batch, &stats_, &conflict_set_);

  // 3. Seeded evaluation per inserted tuple against its candidate CEs
  //    (§4.1.2's re-computation of joins); a batch counts one
  //    propagation step per affected condition element rather than one
  //    per tuple. A tuple both inserted and deleted within the batch is
  //    never seeded: EvaluateSeeded force-includes its seed, and the
  //    removal pass above has already run.
  //    The (insert, CE) pairs are collected first (dispatch accounting
  //    stays serial), evaluated by the part owning the seed tuple's
  //    shard — evaluation is read-only against post-batch WM — and
  //    committed in collection order, so conflict-set contents and
  //    recency stamps are the same at any shard or thread count.
  //    Unsharded, the one part runs inline.
  struct Seed {
    const Delta* d;
    int rule;
    int ce;
    size_t part;
  };
  std::vector<Seed> seeds;
  std::vector<uint32_t> cands;
  std::vector<const CeRef*> seeded;
  for (const Delta& d : batch) {
    if (!d.is_insert() || deleted.Contains(d.relation, d.id)) continue;
    const std::vector<CeRef>& ces = dispatch_.Candidates(
        /*negated=*/false, d.relation, d.tuple, &stats_, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = ces[pos];
      seeded.push_back(&ref);
      seeds.push_back(Seed{&d, ref.rule, ref.ce, shard_map_.Route(d)});
    }
  }
  std::sort(seeded.begin(), seeded.end());
  stats_.propagations += static_cast<uint64_t>(
      std::unique(seeded.begin(), seeded.end()) - seeded.begin());
  const size_t parts = shard_map_.num_shards();
  if (!seeds.empty()) {
    // Outputs live apart from the seeds every part scans, so no part
    // reads a cache line another part is writing.
    std::vector<std::vector<Instantiation>> found(seeds.size());
    PRODB_RETURN_IF_ERROR(fan_out_.Run(
        parts,
        [&](size_t part) {
          for (size_t i = 0; i < seeds.size(); ++i) {
            const Seed& seed = seeds[i];
            if (seed.part != part) continue;
            PRODB_RETURN_IF_ERROR(SeedMatches(seed.rule, seed.ce, seed.d->id,
                                              seed.d->tuple, &found[i]));
          }
          return Status::OK();
        },
        &shard_stats_));
    for (size_t i = 0; i < seeds.size(); ++i) {
      if (sharded()) {
        ++shard_stats_[seeds[i].part].deltas_routed;
        shard_stats_[seeds[i].part].conflict_ops += found[i].size();
      }
      for (Instantiation& inst : found[i]) conflict_set_.Add(std::move(inst));
    }
  }

  // 4. A deletion can enable rules negatively dependent on its relation.
  //    Each such rule whose negated CE the dispatch step nominates for a
  //    deleted tuple (a tuple failing the CE's constant tests never
  //    blocked anything) is re-evaluated once — not once per deleted
  //    tuple, the amortization §4.1.2's "re-computation of joins" cost
  //    begs for. Rules have no home shard: part `rule % parts` takes
  //    each (the partition only balances work and keeps per-part
  //    counters single-writer), and commits run in ascending rule order.
  std::vector<int> reeval;
  for (const Delta& d : batch) {
    if (!d.is_delete()) continue;
    const std::vector<CeRef>& ces = dispatch_.Candidates(
        /*negated=*/true, d.relation, d.tuple, &stats_, &cands);
    for (uint32_t pos : cands) reeval.push_back(ces[pos].rule);
  }
  std::sort(reeval.begin(), reeval.end());
  reeval.erase(std::unique(reeval.begin(), reeval.end()), reeval.end());
  if (!reeval.empty()) {
    std::vector<std::vector<Instantiation>> results(reeval.size());
    PRODB_RETURN_IF_ERROR(fan_out_.Run(
        parts,
        [&](size_t part) {
          for (size_t i = 0; i < reeval.size(); ++i) {
            if (static_cast<size_t>(reeval[i]) % parts != part) continue;
            PRODB_RETURN_IF_ERROR(EvaluateRule(reeval[i], &results[i]));
          }
          return Status::OK();
        },
        &shard_stats_));
    for (size_t i = 0; i < reeval.size(); ++i) {
      ++stats_.propagations;
      if (sharded()) {
        const size_t part = static_cast<size_t>(reeval[i]) % parts;
        ++shard_stats_[part].deltas_routed;
        shard_stats_[part].conflict_ops += results[i].size();
      }
      for (Instantiation& inst : results[i]) {
        conflict_set_.Add(std::move(inst));
      }
    }
  }
  plans_.MaybeReplan(batch.size());
  return Status::OK();
}

std::vector<ShardStats> QueryMatcher::ShardStatsSnapshot() const {
  if (!sharded()) return {};
  std::lock_guard<std::mutex> lock(batch_mu_);
  return shard_stats_;
}

size_t QueryMatcher::AuxiliaryFootprintBytes() const {
  // The whole point of §4.1: no intermediate results are stored. Only the
  // per-class CE buckets (and their discrimination indexes) exist.
  return dispatch_.FootprintBytes();
}

}  // namespace prodb
