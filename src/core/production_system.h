#ifndef PRODB_CORE_PRODUCTION_SYSTEM_H_
#define PRODB_CORE_PRODUCTION_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/matcher_spec.h"
#include "engine/concurrent_engine.h"
#include "engine/sequential_engine.h"
#include "lang/analyzer.h"
#include "match/matcher.h"
#include "plan/planner.h"
#include "ruleindex/rulebase_query.h"
#include "txn/lock_manager.h"

namespace prodb {

/// Top-level configuration.
struct ProductionSystemOptions {
  MatcherKind matcher = MatcherKind::kPattern;
  /// Storage for WM relations: kPaged places working memory on
  /// "secondary storage" behind the buffer pool, the paper's setting.
  StorageKind wm_storage = StorageKind::kMemory;
  /// Buffer-pool frames and optional database file (paged storage only).
  size_t buffer_pool_frames = 256;
  std::string db_path;
  /// Reopen `db_path` without truncating (restart over a surviving
  /// image). Ignored when `db_path` is empty.
  bool open_existing = false;
  /// Write-ahead logging for the paged store (see CatalogOptions): with
  /// this on, a positively acknowledged/committed mutation survives a
  /// crash, and reopening with `open_existing` runs restart recovery.
  bool enable_wal = false;
  /// Durable class directory (requires enable_wal): WM classes declared
  /// via `literalize`/DeclareClass are recorded by name and re-adopted on
  /// reopen, so a restarted process recovers its working memory by
  /// re-loading the same rules file and calling ReseedMatcher(). The
  /// serving layer's restart story.
  bool durable_directory = false;
  /// Partitioned multi-core match: shard the matcher's state by class
  /// (and by tuple hash within declared hot classes) and run delta
  /// propagation across shards on a thread pool — the Rete sub-networks
  /// and the query matcher's seeded and full re-evaluations fan out,
  /// merging deterministically (results are byte-identical to serial at
  /// any thread count). Relations are written serially.
  /// Default-constructed = off, the serial path. kPattern sizes its
  /// §4.2.3 per-class COND propagation (the paper's own sharding) by it.
  ShardingOptions sharding;
  /// Cost-based join planning from incremental catalog statistics
  /// (kRete/kReteDbms: beta-chain order + drift-triggered rebuilds;
  /// kQuery: seeded-evaluation order + lock-free re-plans). Off keeps
  /// the syntactic textual order — the equivalence baseline.
  PlannerOptions planner;
  /// Conflict-resolution strategy for Run().
  StrategyKind strategy = StrategyKind::kFifo;
  uint64_t seed = 42;
  size_t max_firings = 1u << 20;
  /// Workers for RunConcurrent(): the most firings in flight at once.
  /// One runs on the CPU at a time; the others wait (ConcurrentEngine).
  size_t workers = 4;
};

/// The library's front door: one object owning the catalog, matcher,
/// engines, and rule-base query index.
///
///   ProductionSystem ps;
///   ps.LoadString("(literalize E v) (p r (E ^v <x>) --> (remove 1))");
///   ps.Insert("E", Tuple{Value(1)});
///   ps.Run();
class ProductionSystem {
 public:
  explicit ProductionSystem(ProductionSystemOptions options = {});
  ~ProductionSystem();

  /// Parses and installs `literalize` declarations and rules. May be
  /// called repeatedly; classes persist across calls. Rules must be
  /// installed before the WM tuples they should match.
  Status LoadString(const std::string& source);

  /// Declares a class programmatically (alternative to `literalize`).
  Status DeclareClass(const Schema& schema);

  /// Installs an already-compiled rule.
  Status AddRule(const Rule& rule);

  /// --- Working memory ---------------------------------------------------
  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr);
  Status Delete(const std::string& cls, TupleId id);
  Status Modify(const std::string& cls, TupleId id, const Tuple& t,
                TupleId* new_id = nullptr);

  /// --- Execution ---------------------------------------------------------
  /// Serial recognize-act cycle to quiescence (§2.1).
  Status Run(EngineRunResult* result = nullptr);
  /// Fires at most one instantiation.
  Status Step(bool* fired);
  /// Concurrent transactional execution (§5).
  Status RunConcurrent(ConcurrentRunResult* result = nullptr);

  /// Host functions callable from `(call name args...)` actions.
  void RegisterFunction(const std::string& name, ExternalFn fn);

  /// --- Restart -----------------------------------------------------------
  /// Replays the recovered working memory into the matcher: scans every
  /// class in the catalog's durable directory (in name order) into one
  /// ChangeSet and hands it to the matcher as a single batch, rebuilding
  /// token memories and the conflict set to exactly the state an
  /// in-process run with the same WM contents would have. Call after
  /// rules are installed (matchers require rules before WM activity) on a
  /// reopened database; a no-op when the directory is empty or disabled.
  Status ReseedMatcher();

  /// --- Introspection ------------------------------------------------------
  Catalog& catalog() { return *catalog_; }
  Matcher& matcher() { return *matcher_; }
  ConflictSet& conflict_set() { return matcher_->conflict_set(); }
  const std::vector<Rule>& rules() const { return matcher_->rules(); }
  /// The concurrent engine (serving layer: session transactions run on
  /// its TxnManager so they serialize with RunConcurrent firings).
  ConcurrentEngine& concurrent_engine() { return *concurrent_engine_; }
  /// The sequential engine's WM facade (firing log, bulk Apply).
  WorkingMemory& working_memory() { return engine_->working_memory(); }
  SequentialEngine& sequential_engine() { return *engine_; }
  const ProductionSystemOptions& options() const { return options_; }

  /// Rule names whose numeric condition envelopes admit this tuple
  /// (§4.2.3's rule-base queries).
  Status RulesForTuple(const std::string& cls, const Tuple& t,
                       std::vector<std::string>* names) const;
  /// ... and for a single-attribute constraint such as age > 55.
  Status RulesFor(const std::string& cls, const std::string& attr,
                  CompareOp op, double value,
                  std::vector<std::string>* names) const;

 private:
  ProductionSystemOptions options_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<SequentialEngine> engine_;
  std::unique_ptr<ConcurrentEngine> concurrent_engine_;
  std::unique_ptr<RuleBaseQueryIndex> rulebase_index_;
};

}  // namespace prodb

#endif  // PRODB_CORE_PRODUCTION_SYSTEM_H_
