#ifndef PRODB_ENGINE_CONCURRENT_ENGINE_H_
#define PRODB_ENGINE_CONCURRENT_ENGINE_H_

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/actions.h"
#include "engine/strategy.h"
#include "engine/working_memory.h"
#include "txn/transaction.h"

namespace prodb {

struct ConcurrentEngineOptions {
  /// The most firings in flight at once. One runs on the CPU at a time;
  /// the others are waiting (class comment).
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
///
/// What concurrency buys here is overlap of the firings' waits, so the
/// workers share one run baton and only its holder runs. A worker keeps
/// the baton across firings and hands it on only while its firing waits:
/// a 2PL lock wait (the lock manager reports it through the
/// transaction's TxnWaiter), a `call` action, the commit record's log
/// force, a deadlock victim's backoff, and the idle poll. It takes the
/// baton back before it touches the conflict set, a relation or the
/// matcher again. `workers` is thus the most firings in flight at once
/// (DESIGN.md "Engines" has the reasons and the measurements).
class ConcurrentEngine {
 public:
  ConcurrentEngine(Catalog* catalog, Matcher* matcher, LockManager* locks,
                   ConcurrentEngineOptions options = {});

  /// Loads a WM element outside any transaction (initial state).
  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr) {
    return wm_.Insert(cls, t, id);
  }

  /// Drains the conflict set to quiescence with `workers` workers: the
  /// calling thread is worker 0, and the `workers - 1` helper threads
  /// start the first time a firing hands the baton on, so a run whose
  /// firings never wait starts none. A firing that commits a (halt)
  /// stops the run once its whole RHS has committed. A firing that fails
  /// before its commit point is rolled back and, when the rollback went
  /// through, its instantiation goes back into the conflict set; the run
  /// then takes no new firing and returns the first such error. When
  /// `maintenance_mu` is given, each firing's commit maintenance and each
  /// requeue run under it, so a caller that serializes its own OnBatch
  /// calls (and conflict-set listeners) under that mutex interleaves with
  /// the run per firing. It is taken only while the firing holds every
  /// 2PL lock it will request — never while requesting one — and always
  /// after the run baton.
  Status Run(ConcurrentRunResult* result,
             std::mutex* maintenance_mu = nullptr);

  FunctionRegistry& functions() { return functions_; }
  WorkingMemory& working_memory() { return wm_; }

  /// The transaction manager the engine's instantiations run under.
  /// Exposed so the serving layer can map client sessions onto the same
  /// transaction machinery (2PL locks + WAL commit records) the engine
  /// uses — server batches and engine firings interleave serializably.
  TxnManager& txn_manager() { return txn_manager_; }

  /// Rule names in commit order (the equivalent serial schedule) of the
  /// last run; valid after Run returns.
  const std::vector<std::string>& commit_log() const { return commit_log_; }

 private:
  /// The run baton: a worker runs only while it holds it. It is also the
  /// waiter every firing's transaction reports its waits to. When the
  /// holder hands it on, whichever waiting worker the mutex wakes runs
  /// next.
  class Baton : public TxnWaiter {
   public:
    explicit Baton(ConcurrentEngine* engine) : engine_(engine) {}
    void Take() { mu_.lock(); }
    void Give() { mu_.unlock(); }
    /// Hands the baton on, first starting the run's helpers.
    void Waiting() override {
      engine_->StartHelpers();
      Give();
    }
    void Resumed() override { Take(); }

   private:
    ConcurrentEngine* engine_;
    std::mutex mu_;
  };

  /// Runs one instantiation as a transaction. Outcomes:
  ///   *fired    — committed;
  ///   *stale    — validation failed, discarded;
  ///   *halted   — a (halt) action committed;
  /// Status::Deadlock — aborted, compensated and requeued; caller retries.
  /// Any other error before the commit point is requeued the same way
  /// when the rollback went through.
  Status RunInstantiation(const Instantiation& inst,
                          std::mutex* maintenance_mu, bool* fired,
                          bool* stale, bool* halted);

  /// Fires instantiations until the run stops: quiescence, a halt,
  /// max_firings or a failure. Called holding the baton; gives it back on
  /// return.
  void Worker();

  /// Starts the run's `workers - 1` helpers unless they are running.
  /// Only the baton holder calls it, and before the helpers exist that
  /// is always worker 0, so Run alone touches helpers_ otherwise.
  void StartHelpers();

  WorkingMemory wm_;
  Matcher* matcher_;
  TxnManager txn_manager_;
  ConcurrentEngineOptions options_;
  FunctionRegistry functions_;

  Baton baton_{this};
  std::vector<std::thread> helpers_;  // this run's, once started
  // The run's state, with the run's result. Only the baton holder
  // touches it.
  ConcurrentRunResult* result_ = nullptr;
  std::mutex* maintenance_mu_ = nullptr;
  std::vector<std::string> commit_log_;
  size_t active_workers_ = 0;  // firings taken and not yet finished
  Status error_;               // the first failed firing's
};

}  // namespace prodb

#endif  // PRODB_ENGINE_CONCURRENT_ENGINE_H_
