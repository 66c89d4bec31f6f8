#include "engine/concurrent_engine.h"

#include <chrono>

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
  // compensation, TxnManager::Abort. Its waits hand the baton on.
  auto txn = txn_manager_.Begin(&baton_);
  // Aborts before the commit point. A failed firing whose rollback went
  // through (Abort then hands the cause back) left working memory as it
  // was, so its instantiation holds again and goes back into the
  // conflict set; a stale one (no cause) is dropped.
  auto abort = [&](Status cause) {
    Status st = txn_manager_.Abort(txn.get(), cause);
    if (!cause.ok() && st.code() == cause.code() &&
        st.message() == cause.message()) {
      std::unique_lock<std::mutex> hold = HoldMaintenance(maintenance_mu);
      matcher_->conflict_set().Add(inst);
    }
    return st;
  };

  // 1. Read locks: tuple-level for positive CEs, relation-level for
  //    negated CEs (negative dependence must block inserters, §5.2).
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    Status st = cond.negated
                    ? txn->ReadLockRelation(cond.relation)
                    : txn->ReadLock(cond.relation, inst.tuple_ids[ce]);
    if (!st.ok()) return abort(st);
  }

  // 2. Validate against current WM: the matched tuples must still exist
  //    unchanged, and negated CEs must still have no witness.
  if (!MatchedTuplesUnchanged(*wm_.catalog(), rule, inst)) {
    *stale = true;
    return abort(Status::OK());
  }
  for (const ConditionSpec& cond : rule.lhs.conditions) {
    if (!cond.negated) continue;
    Relation* rel = wm_.catalog()->Get(cond.relation);
    if (rel == nullptr) {
      *stale = true;
      return abort(Status::OK());
    }
    // The executor's witness search: it probes the WM hash indexes the
    // matchers declare on equality-tested attributes.
    bool exists = false;
    Status st = FindWitness(*rel, cond, inst.binding, /*use_indexes=*/true,
                            /*stats=*/nullptr, &exists);
    if (!st.ok()) return abort(st);
    if (exists) {
      *stale = true;
      return abort(Status::OK());
    }
  }

  // 3. The whole RHS under write locks, through the interpreter the
  //    serial cycle uses.
  bool halt_requested = false;
  Status rhs = ExecuteRhs(rule, inst, functions_, txn.get(), &halt_requested);
  if (!rhs.ok()) return abort(rhs);

  // 4. The commit point: the matcher receives the transaction's whole ∆
  //    in one OnBatch *before* locks release — the paper's rule that "a
  //    production should not commit its RHS actions and release its
  //    locks until the triggered maintenance process updates the
  //    affected COND relations as well" (§5.2), made structural. Every
  //    2PL lock the firing needs is held by now, so the maintenance
  //    mutex is taken last and no lock is requested while it is held.
  //    A failure from here on is not put back: a failed maintenance
  //    leaves the ∆ in the relations until restart undoes it, and a
  //    failed log force unwinds through the matcher, which re-derives
  //    the instantiation itself.
  PRODB_RETURN_IF_ERROR(txn_manager_.Commit(
      txn.get(), [this, maintenance_mu](const ChangeSet& delta) {
        std::unique_lock<std::mutex> hold = HoldMaintenance(maintenance_mu);
        return matcher_->OnBatch(delta);
      }));
  commit_log_.push_back(inst.rule_name);
  *fired = true;
  if (halt_requested) *halted = true;
  return Status::OK();
}

void ConcurrentEngine::Worker() {
  ConflictSet::Chooser chooser =
      MakeStrategy(options_.strategy, &matcher_->rules(), options_.seed);
  Rng backoff(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  // Hands the baton on for one wait outside any firing.
  auto pause = [this](std::chrono::microseconds wait) {
    WaitScope scope(&baton_);
    std::this_thread::sleep_for(wait);
  };
  ConcurrentRunResult* result = result_;
  while (!result->halted && error_.ok() &&
         result->firings < options_.max_firings) {
    Instantiation inst;
    if (!matcher_->conflict_set().Take(chooser, &inst)) {
      if (active_workers_ == 0) break;  // quiescent: none queued or in flight
      pause(std::chrono::microseconds(100));  // idle poll
      continue;
    }
    ++active_workers_;
    bool fired = false, stale = false, halted = false;
    Status st =
        RunInstantiation(inst, maintenance_mu_, &fired, &stale, &halted);
    --active_workers_;
    if (st.IsDeadlock()) {
      // A victim, compensated and requeued: retry after a backoff.
      ++result->deadlock_aborts;
      pause(std::chrono::microseconds(50 + backoff.Uniform(500)));
      continue;
    }
    if (!st.ok()) {
      if (error_.ok()) error_ = st;
      break;
    }
    if (stale) ++result->stale_skipped;
    if (fired) ++result->firings;
    if (halted) result->halted = true;
  }
  baton_.Give();
}

void ConcurrentEngine::StartHelpers() {
  if (!helpers_.empty()) return;
  helpers_.reserve(options_.workers - 1);
  for (size_t i = 1; i < options_.workers; ++i) {
    helpers_.emplace_back([this] {
      baton_.Take();
      Worker();
    });
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
  // This thread is worker 0 and starts with the baton, so a run whose
  // firings never wait stays on the core (and in the cache) it began on,
  // and starts no helper (StartHelpers).
  baton_.Take();
  result_ = result;
  maintenance_mu_ = maintenance_mu;
  commit_log_.clear();
  active_workers_ = 0;
  error_ = Status::OK();
  Worker();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
  if (result->firings >= options_.max_firings) result->exhausted = true;
  return error_;
}

}  // namespace prodb
