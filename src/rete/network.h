#ifndef PRODB_RETE_NETWORK_H_
#define PRODB_RETE_NETWORK_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/matcher_spec.h"
#include "match/dispatch.h"
#include "match/matcher.h"
#include "match/sharding.h"
#include "plan/planner.h"
#include "plan/rule_plans.h"
#include "rete/token_store.h"

namespace prodb {

/// Structural counters (Figure 1/3 analyses, E1).
struct ReteTopology {
  size_t alpha_nodes = 0;
  size_t beta_nodes = 0;      // two-input join nodes
  size_t negative_nodes = 0;
  size_t production_nodes = 0;
  size_t right_memories = 0;  // distinct RIGHT memories (shared ones once)
};

/// The Rete match network of Forgy's OPS5 (§3), as a Matcher.
///
/// Rules compile into a discrimination network: a root that dispatches on
/// class, one-input nodes checking `attribute op constant`, and a
/// left-deep chain of two-input nodes joining condition elements in LHS
/// order — the "fixed access plan" the paper criticizes (§3.2). Tokens
/// (tuples tagged +/−) enter at the root and propagate sequentially;
/// two-input nodes store unmatched arrivals in their LEFT/RIGHT memories
/// awaiting future partners; tokens reaching a production node update the
/// conflict set. Negated CEs become negative nodes that count consistent
/// right-side matches and pass left tokens only while the count is zero.
///
/// Memories reference WM tuples through shared handles (token.h) instead
/// of copying them, and two-input nodes that read the same alpha node
/// with the same condition and join key share one RIGHT memory (unless
/// the spec says noshare): an alpha activation mutates each distinct
/// RIGHT memory once, then joins its successors deepest level first, so
/// every new pair is produced exactly once (DESIGN.md).
///
/// The spec's settings, as this network reads them:
///  - kind: rete-dbms stores the LEFT/RIGHT memories in catalog relations
///    of `aux_storage` (the straightforward DBMS implementation of
///    §3.2), rete in process memory (the OPS5 situation of §3.1).
///  - indexes: equality-join-key indexes on the memories, probed instead
///    of scanning the opposite memory (§3.2's complaint; §4.1.2's idea).
///  - discriminate: the alpha dispatch step's discrimination index.
///  - share: alpha nodes, RIGHT memories and beta prefixes shared across
///    rules. Rules must be added before WM activity for shared chains
///    to be populated consistently.
///  - planner: each rule's positive CEs compile in the planner's order,
///    lifting the "fixed access plan" the paper pins on Rete (§3.2);
///    cardinality drift past planner.replan_drift rebuilds the join
///    network under fresh plans and reseeds the memories from WM.
///  - sharding: the network is replicated into num_shards sub-networks —
///    a rule compiles into the shard owning its head class, or into
///    every shard behind a head-tuple partition filter when the head
///    class is hot — and OnBatch runs the shards through a FanOut,
///    merging buffered conflict-set deltas in fixed shard order, so the
///    merged set is byte-identical at any thread count. DBMS-backed
///    shards run serially.
class ReteNetwork : public Matcher {
 public:
  /// `catalog` supplies the WM relations and, for rete-dbms, hosts the
  /// LEFT/RIGHT memory relations.
  explicit ReteNetwork(Catalog* catalog, const MatcherSpec& spec = {},
                       StorageKind aux_storage = StorageKind::kMemory);
  ~ReteNetwork() override;

  Status AddRule(const Rule& rule) override;
  /// Set-oriented propagation: groups same-relation deltas (preserving
  /// their order) and pushes each group through the alpha network in one
  /// pass, so two-input nodes scan their LEFT memories once per group
  /// instead of once per tuple — the set-at-a-time access the DBMS
  /// setting exists to provide (§3.2). When sharded, every shard consumes
  /// the grouped deltas concurrently (each filters to its own classes /
  /// head-tuple partition) and the per-shard conflict-set deltas merge at
  /// the barrier in shard order.
  Status OnBatch(const ChangeSet& batch) override;

  size_t AuxiliaryFootprintBytes() const override;
  std::vector<ShardStats> ShardStatsSnapshot() const override;

  ReteTopology Topology() const;
  /// Tokens resident in LEFT memories plus WMEs in RIGHT memories, summed
  /// over shards; a shared RIGHT memory counts once.
  size_t TokenCount() const;

  /// Current per-rule plans (index = rule; tests). Read only while no
  /// batch runs.
  const RulePlans& plans() const { return plans_; }
  /// Re-plans every rule against refreshed statistics immediately and
  /// rebuilds + reseeds the join network if any order changed
  /// (tests/benchmarks; the production trigger is cardinality drift,
  /// checked after each batch).
  Status ForceReplan();

 private:
  struct AlphaNode;
  struct JoinNode;
  struct RightMemory;
  struct Shard;

  /// One signed right-input arrival, batched per group. `ref` points at
  /// the delta's handle, which outlives the propagation.
  struct RightActivation {
    TupleId id;
    const TupleRef* ref;
    bool positive;

    const Tuple& tuple() const { return **ref; }
  };

  /// The handle a delta enters the network with: an owning copy for an
  /// insert of a class some memory can hold, else an alias of `t`.
  TupleRef HandleFor(const std::string& rel, const Tuple& t,
                     bool insert) const;

  Status BuildRule(const Rule& rule, int rule_index);
  /// Compiles `rule` into one shard's sub-network. `hot` adds the
  /// level-0 head-tuple partition filter (and segregates beta-prefix
  /// sharing from unfiltered chains).
  Status BuildRuleInShard(const Rule& rule, int rule_index,
                          const std::vector<size_t>& order,
                          size_t num_positive,
                          const std::vector<size_t>& class_arity,
                          Shard* shard, bool hot);

  /// The binding a full-width token of `rule` induces (positive levels
  /// folded in join order), for the instantiation it produces.
  Binding BindingOf(int rule, TokenView token) const;

  /// Derives the key for probing `node`'s RIGHT memory from a left-side
  /// token (values of the binder columns). False when a column is not
  /// derivable — the caller falls back to a full scan.
  static bool ProbeKeyFromToken(const JoinNode& node, TokenView token,
                                std::vector<Value>* key);
  /// Derives the key for probing `node`'s LEFT memory from a right-input
  /// WM tuple (values of the CE's own equality attributes).
  static bool ProbeKeyFromTuple(const JoinNode& node, const Tuple& tuple,
                                std::vector<Value>* key);

  /// Token arrives on the left input of `node` with the given sign.
  Status ActivateLeft(Shard* shard, JoinNode* node, TokenView token,
                      bool positive);
  /// Forwards a token past `node`: fires its productions, then feeds its
  /// children (several when chain prefixes are shared).
  Status Descend(Shard* shard, JoinNode* node, TokenView token,
                 bool positive);
  /// A group of WM tuples passes `alpha` as one atomic activation: each
  /// distinct RIGHT memory of its successors is mutated once, then every
  /// successor joins the tuples that entered or left its memory, deepest
  /// level first.
  Status ActivateAlpha(Shard* shard, AlphaNode* alpha,
                       const std::vector<RightActivation>& acts);
  /// Applies a group to one RIGHT memory; keeps in `effective` the
  /// activations that passed the CE's own tests and entered or left it.
  Status AdmitRight(RightMemory* memory,
                    const std::vector<RightActivation>& acts);
  /// Level-0 node: each tuple becomes a one-slot token on its own.
  Status ActivateHead(Shard* shard, JoinNode* node,
                      const std::vector<RightActivation>& acts);
  /// Pairs the tuples that entered or left `node`'s RIGHT memory with its
  /// LEFT memory: per tuple a keyed probe, or one scan for the group.
  Status JoinRight(Shard* shard, JoinNode* node);
  /// Feeds a group of same-relation deltas through one shard's alpha
  /// network: the class's dispatch step picks each delta's alpha nodes.
  Status PropagateGroup(Shard* shard, const std::string& rel,
                        const std::vector<RightActivation>& group);
  /// Token passed all joins of a rule: update the conflict set (directly
  /// on the serial path, via the shard's op buffer inside a parallel
  /// batch; suppressed during reseeds — the set is already correct).
  Status Produce(Shard* shard, int rule, TokenView token, bool positive);

  /// Follows a re-plan of plans_ (run under batch_mu_, when WM relations
  /// and token memories agree): samples the estimator against the live
  /// conflict set, and rebuilds when an order changed.
  Status AfterReplan(RulePlans::Outcome outcome);
  /// Tears down the compiled network (dropping DBMS-backed token
  /// relations), recompiles every rule under plans_, and replays WM
  /// through the fresh network with Produce suppressed.
  Status RebuildAndReseed();
  Status ReseedFromRelations();

  const MatcherSpec spec_;
  const bool dbms_backed_;
  // Backs the memory relations when dbms_backed_.
  const StorageKind aux_storage_;
  ShardMap shard_map_;
  // Per rule, the current JoinPlan (order + estimates + drift snapshot),
  // and the statistics it is planned from; updated under batch_mu_.
  RulePlans plans_;
  // Classes of rules with two or more CEs: the only tuples a memory can
  // hold, so the only inserts that get an owning handle.
  std::unordered_set<std::string> memory_classes_;
  // True while ReseedFromRelations replays WM: Produce becomes a no-op.
  bool reseeding_ = false;
  // Runs OnBatch's per-shard propagation (inline when serial or
  // dbms_backed).
  FanOut fan_out_;
  // Sub-networks, exactly one when sharding is off, and their counters
  // (index = shard).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardStats> shard_stats_;
  // Serializes matcher maintenance: the concurrent engine (§5) commits
  // batches from worker threads with no external lock, and the token
  // memories / alpha scratch state are single-writer by design.
  mutable std::mutex batch_mu_;
  size_t store_counter_ = 0;
};

}  // namespace prodb

#endif  // PRODB_RETE_NETWORK_H_
