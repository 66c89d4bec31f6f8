#include "engine/concurrent_engine.h"

#include <chrono>
#include <thread>

#include "common/rng.h"
#include "db/executor.h"

namespace prodb {

namespace {
// Holds the caller's maintenance mutex, when Run was given one.
std::unique_lock<std::mutex> HoldMaintenance(std::mutex* mu) {
  return mu == nullptr ? std::unique_lock<std::mutex>()
                       : std::unique_lock<std::mutex>(*mu);
}
}  // namespace

ConcurrentEngine::ConcurrentEngine(Catalog* catalog, Matcher* matcher,
                                   LockManager* locks,
                                   ConcurrentEngineOptions options)
    : wm_(catalog, matcher),
      matcher_(matcher),
      txn_manager_(catalog, locks),
      options_(options) {}

Status ConcurrentEngine::RunInstantiation(const Instantiation& inst,
                                          std::mutex* maintenance_mu,
                                          bool* fired, bool* stale,
                                          bool* halted) {
  *fired = false;
  *stale = false;
  const Rule& rule =
      matcher_->rules()[static_cast<size_t>(inst.rule_index)];
  // Relations are mutated eagerly (under write locks) and every write
  // lands in the transaction's ChangeSet; the matcher sees nothing until
  // the commit point. Any failure before it aborts through the one
  // compensation, TxnManager::Abort.
  auto txn = txn_manager_.Begin();

  // 1. Read locks: tuple-level for positive CEs, relation-level for
  //    negated CEs (negative dependence must block inserters, §5.2).
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    Status st = cond.negated
                    ? txn->ReadLockRelation(cond.relation)
                    : txn->ReadLock(cond.relation, inst.tuple_ids[ce]);
    if (!st.ok()) return txn_manager_.Abort(txn.get(), st);
  }

  // 2. Validate against current WM: the matched tuples must still exist
  //    unchanged, and negated CEs must still have no witness.
  if (!MatchedTuplesUnchanged(*wm_.catalog(), rule, inst)) {
    *stale = true;
    return txn_manager_.Abort(txn.get());
  }
  for (const ConditionSpec& cond : rule.lhs.conditions) {
    if (!cond.negated) continue;
    Relation* rel = wm_.catalog()->Get(cond.relation);
    if (rel == nullptr) {
      *stale = true;
      return txn_manager_.Abort(txn.get());
    }
    // The executor's witness search: it probes the WM hash indexes the
    // matchers declare on equality-tested attributes.
    bool exists = false;
    Status st = FindWitness(*rel, cond, inst.binding, /*use_indexes=*/true,
                            /*stats=*/nullptr, &exists);
    if (!st.ok()) return txn_manager_.Abort(txn.get(), st);
    if (exists) {
      *stale = true;
      return txn_manager_.Abort(txn.get());
    }
  }

  // 3. The whole RHS under write locks, through the interpreter the
  //    serial cycle uses.
  bool halt_requested = false;
  Status rhs = ExecuteRhs(rule, inst, functions_, txn.get(), &halt_requested);
  if (!rhs.ok()) return txn_manager_.Abort(txn.get(), rhs);

  // 4. The commit point: the matcher receives the transaction's whole ∆
  //    in one OnBatch *before* locks release — the paper's rule that "a
  //    production should not commit its RHS actions and release its
  //    locks until the triggered maintenance process updates the
  //    affected COND relations as well" (§5.2), made structural. Every
  //    2PL lock the firing needs is held by now, so the maintenance
  //    mutex is taken last and no lock is requested while it is held.
  PRODB_RETURN_IF_ERROR(txn_manager_.Commit(
      txn.get(), [this, maintenance_mu](const ChangeSet& delta) {
        std::unique_lock<std::mutex> hold = HoldMaintenance(maintenance_mu);
        return matcher_->OnBatch(delta);
      }));
  {
    std::lock_guard<std::mutex> lock(mu_);
    commit_log_.push_back(inst.rule_name);
  }
  *fired = true;
  if (halt_requested) *halted = true;
  return Status::OK();
}

Status ConcurrentEngine::Worker(ConcurrentRunResult* result,
                                std::mutex* maintenance_mu) {
  ConflictSet::Chooser chooser =
      MakeStrategy(options_.strategy, &matcher_->rules(), options_.seed);
  Rng backoff(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  for (;;) {
    if (halted_.load() || firings_.load() >= options_.max_firings) {
      return Status::OK();
    }
    Instantiation inst;
    bool got = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      got = matcher_->conflict_set().Take(chooser, &inst);
      if (got) {
        active_workers_.fetch_add(1);
      } else if (active_workers_.load() == 0) {
        return Status::OK();  // quiescent: nothing queued, nobody working
      }
    }
    if (!got) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    bool fired = false, stale = false, halted = false;
    Status st =
        RunInstantiation(inst, maintenance_mu, &fired, &stale, &halted);
    if (st.IsDeadlock()) {
      // Victim: changes were compensated; requeue, then stop counting as
      // active (requeue-before-decrement keeps idle workers from
      // observing a spuriously quiescent system).
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++result->deadlock_aborts;
      }
      {
        std::unique_lock<std::mutex> hold = HoldMaintenance(maintenance_mu);
        matcher_->conflict_set().Add(inst);
      }
      active_workers_.fetch_sub(1);
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 + backoff.Uniform(500)));
      continue;
    }
    if (!st.ok()) {
      active_workers_.fetch_sub(1);
      return st;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stale) ++result->stale_skipped;
      if (fired) {
        ++result->firings;
        firings_.fetch_add(1);
      }
      if (halted) {
        result->halted = true;
        halted_.store(true);
      }
    }
    active_workers_.fetch_sub(1);
  }
}

Status ConcurrentEngine::Run(ConcurrentRunResult* result,
                             std::mutex* maintenance_mu) {
  *result = ConcurrentRunResult{};
  if (options_.workers == 0) {
    // No worker would ever take an instantiation: report it rather than
    // return a successful run that fired nothing.
    return Status::InvalidArgument("concurrent engine needs >= 1 worker");
  }
  halted_.store(false);
  firings_.store(0);
  active_workers_.store(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    commit_log_.clear();
  }

  std::vector<std::thread> threads;
  std::vector<Status> statuses(options_.workers, Status::OK());
  threads.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    threads.emplace_back([this, result, maintenance_mu, &statuses, i] {
      statuses[i] = Worker(result, maintenance_mu);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : statuses) {
    PRODB_RETURN_IF_ERROR(st);
  }
  if (firings_.load() >= options_.max_firings) result->exhausted = true;
  return Status::OK();
}

std::vector<std::string> ConcurrentEngine::commit_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_log_;
}

}  // namespace prodb
