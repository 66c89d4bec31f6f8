#ifndef PRODB_ENGINE_CONCURRENT_ENGINE_H_
#define PRODB_ENGINE_CONCURRENT_ENGINE_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "engine/actions.h"
#include "engine/strategy.h"
#include "engine/working_memory.h"
#include "txn/transaction.h"

namespace prodb {

struct ConcurrentEngineOptions {
  size_t workers = 4;
  StrategyKind strategy = StrategyKind::kFifo;
  uint64_t seed = 42;
  size_t max_firings = 1u << 20;
};

struct ConcurrentRunResult {
  size_t firings = 0;
  size_t stale_skipped = 0;
  size_t deadlock_aborts = 0;
  bool halted = false;
  bool exhausted = false;
};

/// Concurrent transactional execution of the conflict set (§5).
///
/// Each instantiation runs as a transaction on worker threads:
///   1. acquire read locks on the matched WM tuples; relation-level read
///      locks for negated CEs (negative dependence, §5.2);
///   2. validate the instantiation against current WM (a concurrently
///      committed transaction may have deleted or changed its tuples —
///      the ∆del of §5.2); stale instantiations are discarded;
///   3. execute the whole RHS under write locks, through the interpreter
///      the serial cycle uses (ExecuteRhs); the Transaction records its
///      whole ∆ins/∆del in its ChangeSet (relations mutate eagerly, the
///      matcher sees nothing yet);
///   4. finalize through TxnManager::Commit, the one commit point: the
///      matcher gets the ChangeSet in one OnBatch, then the commit record
///      is forced and locks release — the paper's rule that "a production
///      should not commit its RHS actions and release its locks until the
///      triggered maintenance process updates the affected COND relations
///      as well" is structural: maintenance sits between the last RHS
///      action and the commit point, and sees the entire ∆ at once;
///   5. on deadlock (Status::Deadlock from the lock manager), abort
///      through TxnManager::Abort — Transaction::Rollback applies the
///      inverse ChangeSet to the relations (the matcher was never
///      notified, so compensation is purely relational) — and retry the
///      instantiation.
///
/// The resulting schedule is serializable by strict 2PL; tests verify
/// that the committed firing sequence replayed serially reproduces the
/// same final WM state.
class ConcurrentEngine {
 public:
  ConcurrentEngine(Catalog* catalog, Matcher* matcher, LockManager* locks,
                   ConcurrentEngineOptions options = {});

  /// Loads a WM element outside any transaction (initial state).
  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr) {
    return wm_.Insert(cls, t, id);
  }

  /// Drains the conflict set to quiescence with `workers` threads. A
  /// firing that commits a (halt) stops the run once its whole RHS has
  /// committed. When `maintenance_mu` is given, each firing's commit
  /// maintenance and each deadlock victim's requeue run under it, so a
  /// caller that serializes its own OnBatch calls (and conflict-set
  /// listeners) under that mutex interleaves with the run per firing.
  /// It is taken only while the firing holds every 2PL lock it will
  /// request — never while requesting one.
  Status Run(ConcurrentRunResult* result,
             std::mutex* maintenance_mu = nullptr);

  FunctionRegistry& functions() { return functions_; }
  WorkingMemory& working_memory() { return wm_; }

  /// The transaction manager the engine's instantiations run under.
  /// Exposed so the serving layer can map client sessions onto the same
  /// transaction machinery (2PL locks + WAL commit records) the engine
  /// uses — server batches and engine firings interleave serializably.
  TxnManager& txn_manager() { return txn_manager_; }

  /// Rule names in commit order (the equivalent serial schedule).
  std::vector<std::string> commit_log() const;

 private:
  /// Runs one instantiation as a transaction. Outcomes:
  ///   *fired    — committed;
  ///   *stale    — validation failed, discarded;
  ///   *halted   — a (halt) action committed;
  /// Status::Deadlock — aborted and compensated; caller retries.
  Status RunInstantiation(const Instantiation& inst,
                          std::mutex* maintenance_mu, bool* fired,
                          bool* stale, bool* halted);

  Status Worker(ConcurrentRunResult* result, std::mutex* maintenance_mu);

  WorkingMemory wm_;
  Matcher* matcher_;
  TxnManager txn_manager_;
  ConcurrentEngineOptions options_;
  FunctionRegistry functions_;

  mutable std::mutex mu_;
  std::vector<std::string> commit_log_;
  std::atomic<size_t> firings_{0};
  std::atomic<bool> halted_{false};
  std::atomic<int> active_workers_{0};
};

}  // namespace prodb

#endif  // PRODB_ENGINE_CONCURRENT_ENGINE_H_
