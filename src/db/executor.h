#ifndef PRODB_DB_EXECUTOR_H_
#define PRODB_DB_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/predicate.h"
#include "db/stats.h"

namespace prodb {

struct MatcherStats;

/// Tuning knobs for conjunctive-query evaluation.
struct ExecutorOptions {
  /// Probe hash/B+-tree indexes for bound equality attributes; the
  /// matchers driving this executor also declare hash indexes at rule
  /// registration on the WM attributes appearing in equality tests of
  /// rule LHSs, so seeded re-evaluation and negated-CE checks probe
  /// instead of scanning (§4.1.2's "indexing can be used to efficiently
  /// identify the tuples"). Off preserves an index-free baseline for the
  /// ablation benchmarks.
  bool use_indexes = true;
};

/// One satisfying combination of WM tuples for a conjunctive query.
/// tuple_ids/tuples are indexed by the query's condition position;
/// negated conditions hold kNoTuple / an empty tuple.
struct QueryMatch {
  std::vector<TupleId> tuple_ids;
  std::vector<Tuple> tuples;
  Binding binding;

  static constexpr TupleId kNoTuple{UINT32_MAX, UINT32_MAX};
};

/// Set-at-a-time evaluator for rule LHSs read as conjunctive queries.
///
/// This is the machinery behind the "simplified algorithm" of §4.1: the
/// LHS of each rule is treated as a query against the WM relations and
/// re-evaluated when working memory changes. EvaluateSeeded implements
/// the delta form — one condition element is pinned to the tuple that
/// just arrived, and only the remaining join is computed.
class Executor {
 public:
  explicit Executor(Catalog* catalog, ExecutorOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// All matches of `query` against current WM contents. When
  /// `forced_order` is non-null it fixes the positive-condition
  /// evaluation order (a planner-chosen sequence of positive CE indices;
  /// must cover every positive CE exactly once) instead of the syntactic
  /// order (JoinPlanner::Syntactic).
  Status Evaluate(const ConjunctiveQuery& query, std::vector<QueryMatch>* out,
                  const std::vector<size_t>* forced_order = nullptr) const;

  /// Matches of `query` in which positive condition `seed_idx` is bound
  /// to the given tuple. Returns InvalidArgument if `seed_idx` is negated.
  /// `forced_order` as in Evaluate; the seed's own CE is skipped.
  Status EvaluateSeeded(const ConjunctiveQuery& query, size_t seed_idx,
                        TupleId seed_id, const Tuple& seed,
                        std::vector<QueryMatch>* out,
                        const std::vector<size_t>* forced_order = nullptr)
      const;

  /// Matches of `query` consistent with a partial variable binding
  /// (smaller than `query.num_vars` slots are treated as unbound). This
  /// is how a matching pattern's attribute values become "the selection
  /// criterion applied when selecting tuples from the WM relations"
  /// (§5.1) — and it verifies cross-CE variable consistency exactly.
  Status EvaluateBound(const ConjunctiveQuery& query, const Binding& initial,
                       std::vector<QueryMatch>* out) const;

  const ExecutorOptions& options() const { return options_; }

  /// Attaches a stats sink: index probes and per-tuple visit counts of
  /// ExtendPositive/FilterNegative are reported there, so the matchers
  /// driving this executor surface whether the index path was taken.
  void set_stats(MatcherStats* stats) { stats_ = stats; }

  /// Attaches catalog statistics for access-path selection: with stats,
  /// ExtendPositive probes the *most selective* indexed equality
  /// attribute (highest distinct count) instead of the first one found —
  /// the planner's hash-conversion rule applied at the WM index tier.
  /// Callers must guarantee the pointee outlives the executor and is
  /// safely published (see CatalogStats).
  void set_planner_stats(const CatalogStats* stats) {
    planner_stats_ = stats;
  }

 private:
  struct Partial;

  /// Extends each partial match with every tuple of `cond`'s relation
  /// that is consistent with the partial's binding.
  Status ExtendPositive(const ConditionSpec& cond, size_t cond_idx,
                        std::vector<Partial>* partials) const;

  /// Removes partials for which `cond`'s relation contains a consistent
  /// tuple (negation-as-absence, §4.2.2), by FindWitness.
  Status FilterNegative(const ConditionSpec& cond,
                        std::vector<Partial>* partials) const;

  /// The one evaluation loop: extends `init` by the positive CEs in
  /// `order` (the syntactic order when null) except `skip_idx`, filters
  /// by the negated CEs, and appends every match with no test left
  /// pending to *out.
  Status Run(const ConjunctiveQuery& query, Partial init, size_t skip_idx,
             const std::vector<size_t>* order,
             std::vector<QueryMatch>* out) const;

  Catalog* catalog_;
  ExecutorOptions options_;
  MatcherStats* stats_ = nullptr;
  const CatalogStats* planner_stats_ = nullptr;
};

/// A test that could not be evaluated yet because its variable is bound
/// by a condition element not seen so far: `value op binding[var]` must
/// hold once `var` is bound (e.g. R1's `^salary < <s>` when the manager
/// tuple is examined before Mike's).
struct DeferredTest {
  Value value;
  CompareOp op;
  int var;
};

/// Checks a tuple against a condition's constant tests and a binding;
/// extends `binding` with values for newly bound variables on success.
/// A non-equality test on an unbound variable fails the tuple unless
/// `deferred` is non-null, in which case it is recorded there for later
/// settlement. Exposed for reuse by the matchers.
bool TupleConsistent(const ConditionSpec& cond, const Tuple& t,
                     Binding* binding,
                     std::vector<DeferredTest>* deferred = nullptr);

/// Sets *exists when `rel` holds a tuple consistent with `cond` under
/// `binding` — a witness that falsifies the negated condition element
/// `cond` (negation-as-absence, §4.2.2). With `use_indexes`, probes a
/// hash or B+-tree index on an attribute `binding` fixes by equality,
/// stopping at the first witness; otherwise scans. Probes and visited
/// tuples are counted in `stats` when given. The executor's negated-CE
/// filter and the concurrent engine's pre-firing revalidation both use
/// it.
Status FindWitness(const Relation& rel, const ConditionSpec& cond,
                   const Binding& binding, bool use_indexes,
                   MatcherStats* stats, bool* exists);

/// Evaluates and removes every deferred test whose variable `binding`
/// now covers; returns false if any fails.
bool SettleDeferred(const Binding& binding,
                    std::vector<DeferredTest>* deferred);

/// Builds the Binding a single tuple induces for `cond` (nullopt slots
/// elsewhere); returns false if the tuple fails the condition's constant
/// tests or intra-condition variable consistency (e.g. `<x> ... <x>`).
/// Cross-CE non-equality tests are deferred (and dropped) unless
/// `deferred` captures them.
bool BindSingle(const ConditionSpec& cond, const Tuple& t, int num_vars,
                Binding* out, std::vector<DeferredTest>* deferred = nullptr);

}  // namespace prodb

#endif  // PRODB_DB_EXECUTOR_H_
