#include "rete/network.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "db/executor.h"

namespace prodb {

namespace {

/// For each variable with an equality occurrence in `cond`, the attribute
/// of its first kEq occurrence — the occurrence that binds the variable
/// under OPS5 first-occurrence semantics (later occurrences test).
std::map<int, int> FirstEqAttrByVar(const ConditionSpec& cond) {
  std::map<int, int> first_eq_attr;
  for (const VarUse& u : cond.var_uses) {
    if (u.op != CompareOp::kEq) continue;
    first_eq_attr.emplace(u.var, u.attr);
  }
  return first_eq_attr;
}

/// Hash of a token's tuple ids (keys of negated-node match counts),
/// alike for the stored id vector and a token looked up in place.
struct TupleIdsHash {
  using is_transparent = void;
  size_t operator()(const std::vector<TupleId>& ids) const {
    uint64_t h = 0;
    for (const TupleId& id : ids) h = h * 0x9e3779b97f4a7c15ull + HashId(id);
    return static_cast<size_t>(h);
  }
  size_t operator()(TokenView token) const {
    uint64_t h = 0;
    for (const TokenSlot& s : token) {
      h = h * 0x9e3779b97f4a7c15ull + HashId(s.id);
    }
    return static_cast<size_t>(h);
  }
};

/// Equality of stored id vectors and tokens by their tuple ids.
struct TupleIdsEq {
  using is_transparent = void;
  bool operator()(const std::vector<TupleId>& a,
                  const std::vector<TupleId>& b) const {
    return a == b;
  }
  bool operator()(TokenView token, const std::vector<TupleId>& ids) const {
    return std::equal(token.begin(), token.end(), ids.begin(), ids.end(),
                      [](const TokenSlot& s, const TupleId& id) {
                        return s.id == id;
                      });
  }
  bool operator()(const std::vector<TupleId>& ids, TokenView token) const {
    return (*this)(token, ids);
  }
};

std::vector<TupleId> IdsOf(TokenView token) {
  std::vector<TupleId> ids;
  ids.reserve(token.size());
  for (const TokenSlot& s : token) ids.push_back(s.id);
  return ids;
}

}  // namespace

/// One-input node chain, collapsed: class test plus every constant test
/// of a condition element, plus intra-CE attribute constraints induced by
/// a variable appearing twice in the same CE.
struct ReteNetwork::AlphaNode {
  std::string cls;
  std::vector<ConstantTest> tests;
  // (left attr, op, right attr): tuple[l] op tuple[r] must hold.
  struct AttrPair {
    int left;
    CompareOp op;
    int right;
  };
  std::vector<AttrPair> pairs;
  // Deepest level first, registration order among equal levels — the
  // order an activation joins them in (kept sorted as nodes are hooked).
  std::vector<JoinNode*> successors;
  // The distinct RIGHT memories of `successors`.
  std::vector<RightMemory*> memories;

  bool Matches(const Tuple& t) const {
    for (const ConstantTest& c : tests) {
      if (!c.Matches(t)) return false;
    }
    for (const AttrPair& p : pairs) {
      if (!EvalCompare(t[static_cast<size_t>(p.left)], p.op,
                       t[static_cast<size_t>(p.right)])) {
        return false;
      }
    }
    return true;
  }

  std::string Signature() const {
    std::string sig = cls + "#";
    std::vector<std::string> parts;
    for (const ConstantTest& c : tests) parts.push_back(c.ToString());
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) sig += p + ";";
    sig += "#";
    parts.clear();
    for (const AttrPair& p : pairs) {
      parts.push_back(std::to_string(p.left) + CompareOpName(p.op) +
                      std::to_string(p.right));
    }
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) sig += p + ";";
    return sig;
  }
};

/// The RIGHT memory of one or more two-input nodes: single WMEs that
/// passed an alpha node and the CE's own tests, keyed on the nodes' join
/// attributes. Nodes reading the same alpha node with the same condition
/// and key attributes share one (DESIGN.md, "RIGHT-memory sharing").
struct ReteNetwork::RightMemory {
  std::unique_ptr<TokenStore> store;
  // Admission test: the CE's own constant and intra-CE variable tests.
  ConditionSpec cond;
  int num_vars = 0;
  // Scratch of the current alpha activation: the activations that
  // entered or left the store, in delta order.
  std::vector<RightActivation> effective;
};

/// Two-input node. `level` 0 is the head of a chain (no LEFT memory —
/// its single input feeds successors directly); negated nodes
/// additionally keep per-left-token match counts. A node may have
/// several children (chain-prefix sharing) and may terminate one or
/// more productions.
struct ReteNetwork::JoinNode {
  /// A join test compiled from a variable occurrence bound at an earlier
  /// level: right_tuple[attr] op token[level].tuple[bound_attr] must hold.
  struct Test {
    int attr;
    CompareOp op;
    size_t level;
    int bound_attr;
  };

  int rule = -1;  // rule whose compilation created the node (structure
                  // is identical for every rule sharing it)
  size_t level = 0;
  size_t ce = 0;  // textual CE slot (of `rule`) this node's right input
                  // covers; tokens are indexed by `level`, not by this
  bool negated = false;
  // Head-tuple partition filter (hot-rule replicas only): a level-0
  // activation enters this chain iff HashId(id) % part_mod == part_idx,
  // so the replicas across shards partition a hot rule's instantiations
  // by head tuple while staying disjoint.
  uint32_t part_mod = 1;
  uint32_t part_idx = 0;
  std::unique_ptr<TokenStore> left;
  RightMemory* right = nullptr;  // owned by the shard; possibly shared
  // Equality-join key schema, fixed at compile time (parallel vectors):
  // the LEFT token value at left_key[i] must equal the right tuple's
  // attribute right_attrs[i] for a pair to join. Empty when the node has
  // no equality join test (or indexing is off) — memories are scanned.
  std::vector<TokenKeyCol> left_key;
  std::vector<int> right_attrs;
  // ActivateLeft's probe key, kept so a probe allocates nothing. A
  // probe's visits descend only into deeper nodes, so none of them
  // overwrites it while it is in use.
  std::vector<Value> probe_key;
  // Every test the CE's variables make against earlier levels; a pair
  // joins iff all hold. `never` marks a CE whose first occurrence of an
  // unbound variable is not an equality, which OPS5 cannot satisfy.
  std::vector<Test> tests;
  bool never = false;
  // Looked up by a token in place; the id vector is built only when a
  // new count is stored.
  std::unordered_map<std::vector<TupleId>, int, TupleIdsHash, TupleIdsEq>
      neg_counts;
  std::vector<JoinNode*> children;
  std::vector<int> productions;  // rule indices satisfied at this node

  /// True when the stored token `left` and WM tuple `right` join here.
  bool Joins(TokenView left, const Tuple& right) const {
    if (never) return false;
    for (const Test& t : tests) {
      if (!EvalCompare(right[static_cast<size_t>(t.attr)], t.op,
                       (*left[t.level].tuple)[static_cast<size_t>(
                           t.bound_attr)])) {
        return false;
      }
    }
    return true;
  }
};

/// One working-memory partition's sub-network: its own alpha nodes
/// behind the per-class dispatch step, join nodes with token memories,
/// and — during a parallel batch — a buffer of conflict-set ops the
/// barrier merges in shard order. Everything here is touched by exactly
/// one worker at a time (OnBatch hands each shard to one task; the
/// serial paths run under batch_mu_).
struct ReteNetwork::Shard {
  size_t index = 0;
  std::vector<std::unique_ptr<AlphaNode>> alpha_nodes;
  std::vector<std::unique_ptr<JoinNode>> join_nodes;
  // Class name -> the alpha nodes testing that class, indexed by their
  // constant tests. Shared alpha nodes are added once, when created.
  DispatchMap<AlphaNode*> alpha_by_class;
  // Alpha sharing: signature -> node.
  std::unordered_map<std::string, AlphaNode*> alpha_index;
  // Beta sharing: join-chain prefix signature -> last node of the chain.
  std::unordered_map<std::string, JoinNode*> beta_index;
  // RIGHT memories, each once, and the sharing index over them: (alpha
  // node, CE text, right key attributes) -> memory.
  std::vector<std::unique_ptr<RightMemory>> right_memories;
  std::map<std::tuple<const AlphaNode*, std::string, std::vector<int>>,
           RightMemory*>
      right_index;
  // Conflict-set ops recorded while `buffered` (parallel batches); the
  // barrier replays them into the one ConflictSet in shard order.
  ConflictOpBuffer ops;
  bool buffered = false;
};

ReteNetwork::ReteNetwork(Catalog* catalog, const MatcherSpec& spec,
                         StorageKind aux_storage)
    : Matcher(catalog),
      spec_(spec),
      dbms_backed_(spec.kind == MatcherKind::kReteDbms),
      aux_storage_(aux_storage),
      shard_map_(spec.sharding),
      plans_(catalog, &rules_, spec.planner, &stats_),
      // DBMS-backed memories route every token movement through the
      // shared catalog/buffer-pool/WAL stack; shards still partition the
      // work (and merge deterministically) but execute serially — the
      // conservative gate until that stack is certified for intra-batch
      // parallelism.
      fan_out_(dbms_backed_ ? 1 : FanOut::Workers(spec.sharding)),
      shard_stats_(shard_map_.num_shards()) {
  const size_t n = shard_map_.num_shards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
}

ReteNetwork::~ReteNetwork() = default;

Status ReteNetwork::AddRule(const Rule& rule) {
  int rule_index = static_cast<int>(rules_.size());
  PRODB_RETURN_IF_ERROR(CheckClasses(rule));
  rules_.push_back(rule);
  plans_.AddNewest();
  Status st = BuildRule(rule, rule_index);
  if (st.ok()) {
    if (rule.lhs.conditions.size() >= 2) {
      for (const ConditionSpec& c : rule.lhs.conditions) {
        memory_classes_.insert(c.relation);
      }
    }
    return st;
  }
  // A build can fail after hooking nodes into a shard (a token relation
  // that cannot be created at a later level, or in a later shard). Those
  // nodes would keep receiving activations under the popped rule's
  // index, so put the network back as it was: the teardown drops every
  // token relation the shards own — the failed build's included — and
  // the rules that remain are recompiled and reseeded.
  rules_.pop_back();
  plans_.DropNewest();
  PRODB_RETURN_IF_ERROR(RebuildAndReseed());
  return st;
}

Status ReteNetwork::BuildRule(const Rule& rule, int rule_index) {
  const size_t n = rule.lhs.conditions.size();

  // Join order from the rule's current plan: the planner's cost-based
  // positive order when enabled (§3.2's "fixed access plan" lifted), the
  // syntactic positive-then-negated order otherwise.
  const std::vector<size_t>& order = plans_[static_cast<size_t>(rule_index)].order;
  const size_t num_positive =
      plans_[static_cast<size_t>(rule_index)].num_positive;

  // Per-CE class arities (for relation-backed token rows).
  std::vector<size_t> class_arity(n, 0);
  for (size_t i = 0; i < n; ++i) {
    Relation* rel = catalog_->Get(rule.lhs.conditions[i].relation);
    if (rel == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              rule.lhs.conditions[i].relation);
    }
    class_arity[i] = rel->schema().arity();
  }
  if (num_positive == 0) {
    return Status::InvalidArgument("rule " + rule.name +
                                   ": no positive condition element");
  }
  // Shard placement: a rule compiles into the shard owning its head
  // class (the first positive CE — the chain's level-0 input). A *hot*
  // head class instead replicates the rule into every shard behind a
  // head-tuple partition filter, so its instantiations split across
  // cores by hash while remaining disjoint.
  const std::string& head_cls =
      rule.lhs.conditions[order[0]].relation;
  if (shards_.size() == 1) {
    return BuildRuleInShard(rule, rule_index, order, num_positive,
                            class_arity, shards_[0].get(), /*hot=*/false);
  }
  if (shard_map_.IsHot(head_cls)) {
    for (auto& shard : shards_) {
      PRODB_RETURN_IF_ERROR(BuildRuleInShard(rule, rule_index, order,
                                             num_positive, class_arity,
                                             shard.get(), /*hot=*/true));
    }
    return Status::OK();
  }
  return BuildRuleInShard(rule, rule_index, order, num_positive, class_arity,
                          shards_[shard_map_.ShardOfClass(head_cls)].get(),
                          /*hot=*/false);
}

Status ReteNetwork::BuildRuleInShard(const Rule& rule, int rule_index,
                                     const std::vector<size_t>& order,
                                     size_t num_positive,
                                     const std::vector<size_t>& class_arity,
                                     Shard* shard, bool hot) {
  const size_t n = rule.lhs.conditions.size();

  auto make_store = [&](const std::string& kind, size_t level,
                        std::vector<size_t> arities,
                        const std::vector<TokenKeyCol>& key_cols,
                        std::unique_ptr<TokenStore>* out) -> Status {
    if (!dbms_backed_) {
      *out = std::make_unique<MemoryTokenStore>(arities.size(), key_cols);
      return Status::OK();
    }
    std::unique_ptr<RelationTokenStore> store;
    std::string name = kind + std::to_string(store_counter_++) + "-" +
                       rule.name + "-L" + std::to_string(level);
    PRODB_RETURN_IF_ERROR(RelationTokenStore::Create(
        catalog_, name, std::move(arities), aux_storage_, &store,
        key_cols));
    *out = std::move(store);
    return Status::OK();
  };

  // Per-CE binding attributes (var -> first kEq occurrence), shared by
  // the alpha intra-CE pair builder and the join compilation below.
  std::vector<std::map<int, int>> binder(n);
  for (size_t i = 0; i < n; ++i) {
    binder[i] = FirstEqAttrByVar(rule.lhs.conditions[i]);
  }

  // Join compilation of the node at join-order level `k` covering CE
  // `ce`. A variable is bound by the first positive level (in join
  // order) with an equality occurrence of it — negated levels never
  // widen the token, so they bind nothing for later levels. Each
  // occurrence in `ce` of a variable bound before `k` becomes a test
  // reading the bound value straight from the token's (level, attr);
  // occurrences of variables `ce` binds itself are intra-CE tests, which
  // the alpha node and RIGHT-memory admission already ran.
  //
  // The equality-join key schema: one column pair per variable that has
  // an equality occurrence in `ce` and is bound before `k`. Key positions
  // are join-order *levels* (tokens are level-indexed), so the schema —
  // like the whole chain — is independent of textual CE slots. The probe
  // is a necessary condition — the join tests still run on every visited
  // pair — so extra non-equality tests only make the probe conservative,
  // never wrong.
  auto compile_join = [&](size_t k, size_t ce, JoinNode* node) {
    std::map<int, std::pair<size_t, int>> bound;
    for (size_t j = 0; j < k && j < num_positive; ++j) {
      for (const auto& [var, attr] : binder[order[j]]) {
        bound.emplace(var, std::make_pair(j, attr));
      }
    }
    std::set<int> local;
    for (const VarUse& u : rule.lhs.conditions[ce].var_uses) {
      auto it = bound.find(u.var);
      if (it != bound.end()) {
        node->tests.push_back(
            JoinNode::Test{u.attr, u.op, it->second.first, it->second.second});
      } else if (!local.count(u.var)) {
        // OPS5 binds only on an equality; a first occurrence testing an
        // unbound variable fails every tuple.
        if (u.op != CompareOp::kEq) node->never = true;
        local.insert(u.var);
      }
    }
    if (!spec_.indexes) return;
    for (const auto& [var, attr] : binder[ce]) {
      auto it = bound.find(var);
      if (it == bound.end()) continue;
      node->left_key.push_back(
          TokenKeyCol{it->second.first, it->second.second});
      node->right_attrs.push_back(attr);
    }
  };

  auto hook_alpha = [&](size_t ce_index, JoinNode* node) -> AlphaNode* {
    const ConditionSpec& cond = rule.lhs.conditions[ce_index];
    AlphaNode probe;
    probe.cls = cond.relation;
    probe.tests = cond.constant_tests;
    // Intra-CE constraints: every occurrence after a variable's binding
    // (first kEq) occurrence tests against the binding attribute.
    const std::map<int, int>& first_eq_attr = binder[ce_index];
    std::set<int> bound;
    for (const VarUse& u : cond.var_uses) {
      auto it = first_eq_attr.find(u.var);
      if (it == first_eq_attr.end()) continue;  // never eq-bound in this CE
      if (!bound.count(u.var)) {
        // Occurrences before the binding one are join/deferred tests.
        if (u.op == CompareOp::kEq) bound.insert(u.var);
        continue;
      }
      if (u.attr != it->second) {
        probe.pairs.push_back(AlphaNode::AttrPair{u.attr, u.op, it->second});
      }
    }
    AlphaNode* alpha = nullptr;
    std::string sig = probe.Signature();
    if (spec_.share) {
      auto it = shard->alpha_index.find(sig);
      if (it != shard->alpha_index.end()) alpha = it->second;
    }
    if (alpha == nullptr) {
      auto owned = std::make_unique<AlphaNode>(std::move(probe));
      alpha = owned.get();
      shard->alpha_nodes.push_back(std::move(owned));
      // Indexed by its constant tests; intra-CE attr pairs are
      // unclassifiable and re-checked by Matches on candidates.
      shard->alpha_by_class[cond.relation].Add(alpha, alpha->tests);
      if (spec_.share) shard->alpha_index[sig] = alpha;
    }
    // Deepest level first, stable among equal levels.
    auto pos = std::find_if(
        alpha->successors.begin(), alpha->successors.end(),
        [&](const JoinNode* s) { return s->level < node->level; });
    alpha->successors.insert(pos, node);
    return alpha;
  };

  // The RIGHT memory of `node` at level `k` (> 0): WMEs of `ce`'s class
  // keyed on the node's right attributes. Shared with every node of the
  // shard that reads the same alpha node with the same CE and key, when
  // the spec shares.
  auto attach_right = [&](size_t k, size_t ce, JoinNode* node,
                          AlphaNode* alpha) -> Status {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    auto index_key = std::make_tuple(static_cast<const AlphaNode*>(alpha),
                                     cond.ToString(), node->right_attrs);
    if (spec_.share) {
      auto it = shard->right_index.find(index_key);
      if (it != shard->right_index.end()) {
        node->right = it->second;
        return Status::OK();
      }
    }
    auto memory = std::make_unique<RightMemory>();
    memory->cond = cond;
    memory->num_vars = rule.lhs.num_vars;
    std::vector<TokenKeyCol> key_cols;
    for (int attr : node->right_attrs) key_cols.push_back(TokenKeyCol{0, attr});
    PRODB_RETURN_IF_ERROR(make_store("RIGHT", k, {class_arity[ce]}, key_cols,
                                     &memory->store));
    node->right = memory.get();
    alpha->memories.push_back(memory.get());
    if (spec_.share) shard->right_index[index_key] = memory.get();
    shard->right_memories.push_back(std::move(memory));
    return Status::OK();
  };

  // A node belongs to the shard before any step that can fail, so the
  // teardown after a failed build reaches every store it created.
  auto new_node = [&](size_t k, size_t ce, bool negated) {
    shard->join_nodes.push_back(std::make_unique<JoinNode>());
    JoinNode* node = shard->join_nodes.back().get();
    node->rule = rule_index;
    node->level = k;
    node->ce = ce;
    node->negated = negated;
    return node;
  };

  // Build the positive chain front to back, reusing shared prefixes.
  // A prefix is shareable when the leading condition specs are textually
  // identical *in join order* — the analyzer's first-occurrence variable
  // numbering makes structurally identical prefixes compile identically,
  // and level-indexed tokens make the compiled chain independent of the
  // CEs' textual slots (two rules whose planned prefixes agree share
  // even when the shared CEs sit at different LHS positions; Produce
  // remaps levels to each rule's own slots). Hot (partition-filtered)
  // chains carry a distinct sig prefix so they can never share a level-0
  // node with an unfiltered cold chain.
  JoinNode* tail = nullptr;
  std::string prefix_sig = hot ? "H|" : "";
  for (size_t k = 0; k < num_positive; ++k) {
    size_t ce = order[k];
    prefix_sig += "@" + rule.lhs.conditions[ce].ToString() + "|";
    if (spec_.share) {
      auto it = shard->beta_index.find(prefix_sig);
      if (it != shard->beta_index.end()) {
        tail = it->second;
        continue;  // the whole prefix up to k is already compiled
      }
    }
    JoinNode* node = new_node(k, ce, /*negated=*/false);
    if (k == 0 && hot) {
      node->part_mod = static_cast<uint32_t>(shards_.size());
      node->part_idx = static_cast<uint32_t>(shard->index);
    }
    if (k > 0) {
      compile_join(k, ce, node);
      // LEFT tokens carry one tuple per positive level [0, k).
      std::vector<size_t> arities(k, 0);
      for (size_t p = 0; p < k; ++p) arities[p] = class_arity[order[p]];
      PRODB_RETURN_IF_ERROR(make_store("LEFT", k, std::move(arities),
                                       node->left_key, &node->left));
      tail->children.push_back(node);
    }
    AlphaNode* alpha = hook_alpha(ce, node);
    if (k > 0) {
      PRODB_RETURN_IF_ERROR(attach_right(k, ce, node, alpha));
    }
    tail = node;
    if (spec_.share) shard->beta_index[prefix_sig] = tail;
  }

  // Negated suffix: never shared (per-rule match counts). Left tokens
  // pass through negated nodes unwidened, so they stay at the positive
  // chain's width.
  for (size_t k = num_positive; k < order.size(); ++k) {
    size_t ce = order[k];
    JoinNode* node = new_node(k, ce, /*negated=*/true);
    compile_join(k, ce, node);
    std::vector<size_t> arities(num_positive, 0);
    for (size_t p = 0; p < num_positive; ++p) {
      arities[p] = class_arity[order[p]];
    }
    PRODB_RETURN_IF_ERROR(make_store("LEFT", k, std::move(arities),
                                     node->left_key, &node->left));
    AlphaNode* alpha = hook_alpha(ce, node);
    PRODB_RETURN_IF_ERROR(attach_right(k, ce, node, alpha));
    tail->children.push_back(node);
    tail = node;
  }

  tail->productions.push_back(rule_index);
  return Status::OK();
}

Binding ReteNetwork::BindingOf(int rule, TokenView token) const {
  const Rule& r = rules_[static_cast<size_t>(rule)];
  const auto& order = plans_[static_cast<size_t>(rule)].order;
  Binding binding(static_cast<size_t>(r.lhs.num_vars), std::nullopt);
  for (size_t k = 0; k < token.size() && k < order.size(); ++k) {
    TupleConsistent(r.lhs.conditions[order[k]], *token[k].tuple, &binding);
  }
  return binding;
}

Status ReteNetwork::Produce(Shard* shard, int rule, TokenView token,
                            bool positive) {
  // Reseed replays rebuild the token memories only; the conflict set was
  // never torn down and is already correct.
  if (reseeding_) return Status::OK();
  const Rule& r = rules_[static_cast<size_t>(rule)];
  const auto& order = plans_[static_cast<size_t>(rule)].order;
  const size_t n = r.lhs.conditions.size();
  // Tokens are level-indexed in join order; instantiations are slotted
  // by textual CE position — remap through the rule's order.
  std::vector<TupleId> ids(n, Instantiation::kNoTuple);
  const size_t width = std::min(order.size(), token.size());
  for (size_t k = 0; k < width; ++k) ids[order[k]] = token[k].id;
  ++shard_stats_[shard->index].conflict_ops;
  if (!positive) {
    // A retraction needs only the key: no tuple or binding is copied.
    std::string key = Instantiation::KeyOf(rule, ids);
    if (shard->buffered) {
      shard->ops.RemoveByKey(std::move(key));
    } else {
      conflict_set_.RemoveByKey(key);
    }
    return Status::OK();
  }
  Instantiation inst;
  inst.rule_index = rule;
  inst.rule_name = r.name;
  inst.tuple_ids = std::move(ids);
  inst.tuples.assign(n, Tuple());
  for (size_t k = 0; k < width; ++k) inst.tuples[order[k]] = *token[k].tuple;
  inst.binding = BindingOf(rule, token);
  if (shard->buffered) {
    shard->ops.Add(std::move(inst));
  } else {
    conflict_set_.Add(std::move(inst));
  }
  return Status::OK();
}

Status ReteNetwork::Descend(Shard* shard, JoinNode* node, TokenView token,
                            bool positive) {
  for (int rule : node->productions) {
    PRODB_RETURN_IF_ERROR(Produce(shard, rule, token, positive));
  }
  for (JoinNode* child : node->children) {
    PRODB_RETURN_IF_ERROR(ActivateLeft(shard, child, token, positive));
  }
  return Status::OK();
}

bool ReteNetwork::ProbeKeyFromToken(const JoinNode& node, TokenView token,
                                    std::vector<Value>* key) {
  // Assigned in place: a key value of the previous probe's type keeps
  // its storage.
  key->resize(node.left_key.size());
  for (size_t i = 0; i < node.left_key.size(); ++i) {
    const TokenKeyCol& c = node.left_key[i];
    if (c.pos >= token.size()) return false;
    const Tuple& t = *token[c.pos].tuple;
    if (static_cast<size_t>(c.attr) >= t.arity()) return false;
    (*key)[i] = t[static_cast<size_t>(c.attr)];
  }
  return !key->empty();
}

bool ReteNetwork::ProbeKeyFromTuple(const JoinNode& node, const Tuple& tuple,
                                    std::vector<Value>* key) {
  key->clear();
  key->reserve(node.right_attrs.size());
  for (int attr : node.right_attrs) {
    if (static_cast<size_t>(attr) >= tuple.arity()) return false;
    key->push_back(tuple[static_cast<size_t>(attr)]);
  }
  return !key->empty();
}

Status ReteNetwork::ActivateLeft(Shard* shard, JoinNode* node,
                                 TokenView token, bool positive) {
  ++stats_.propagations;
  const TokenStore& right = *node->right->store;

  // Visits the RIGHT-memory WMEs that can join with `token`: a keyed
  // probe when the node has an equality key derivable from the token,
  // else the §3.2 full scan.
  auto for_each_right = [&](const TokenStore::Visitor& fn) -> Status {
    if (ProbeKeyFromToken(*node, token, &node->probe_key)) {
      ++stats_.index_probes;
      return right.ScanMatching(node->probe_key, [&](TokenView r) {
        ++stats_.probe_tokens_visited;
        return fn(r);
      });
    }
    return right.Scan([&](TokenView r) {
      ++stats_.scan_tokens_visited;
      return fn(r);
    });
  };

  if (positive) {
    PRODB_RETURN_IF_ERROR(node->left->Add(token));
    ++stats_.patterns_stored;
  } else {
    bool found = false;
    PRODB_RETURN_IF_ERROR(node->left->RemoveExact(token, &found));
    if (!found) return Status::OK();
    if (stats_.patterns_stored > 0) --stats_.patterns_stored;
  }

  if (node->negated) {
    if (!positive) {
      auto it = node->neg_counts.find(token);
      int count = it == node->neg_counts.end() ? 0 : it->second;
      if (it != node->neg_counts.end()) node->neg_counts.erase(it);
      if (count == 0) return Descend(shard, node, token, false);
      return Status::OK();
    }
    int count = 0;
    PRODB_RETURN_IF_ERROR(for_each_right([&](TokenView r) {
      ++stats_.tuples_examined;
      if (node->Joins(token, *r[0].tuple)) ++count;
      return Status::OK();
    }));
    node->neg_counts[IdsOf(token)] = count;
    if (count == 0) return Descend(shard, node, token, true);
    return Status::OK();
  }

  // Extend the token by each joining WME and pass the pair on with the
  // token's sign (a retraction retracts every pair it formed).
  std::vector<TokenSlot> merged;
  merged.reserve(token.size() + 1);
  merged.assign(token.begin(), token.end());
  merged.emplace_back();
  return for_each_right([&](TokenView r) {
    ++stats_.tuples_examined;
    if (!node->Joins(token, *r[0].tuple)) return Status::OK();
    merged.back() = r[0];
    return Descend(shard, node, merged, positive);
  });
}

Status ReteNetwork::AdmitRight(RightMemory* memory,
                               const std::vector<RightActivation>& acts) {
  // Each tuple must pass the CE's own tests before entering the memory.
  // Tests against variables bound by earlier CEs cannot be evaluated here
  // (they are join tests); defer-and-discard — the join enforces them.
  memory->effective.clear();
  Binding b;
  std::vector<DeferredTest> deferred;
  for (const RightActivation& a : acts) {
    b.assign(static_cast<size_t>(memory->num_vars), std::nullopt);
    deferred.clear();
    if (!TupleConsistent(memory->cond, a.tuple(), &b, &deferred)) continue;
    const TokenSlot single{a.id, *a.ref};
    if (a.positive) {
      PRODB_RETURN_IF_ERROR(memory->store->Add(TokenView(&single, 1)));
      ++stats_.patterns_stored;
    } else {
      bool found = false;
      PRODB_RETURN_IF_ERROR(
          memory->store->RemoveExact(TokenView(&single, 1), &found));
      if (!found) continue;
      if (stats_.patterns_stored > 0) --stats_.patterns_stored;
    }
    memory->effective.push_back(a);
  }
  return Status::OK();
}

Status ReteNetwork::ActivateHead(Shard* shard, JoinNode* node,
                                 const std::vector<RightActivation>& acts) {
  ++stats_.propagations;
  const Rule& rule = rules_[static_cast<size_t>(node->rule)];
  const ConditionSpec& cond = rule.lhs.conditions[node->ce];
  // Hot-rule replicas accept only their head-tuple partition here — the
  // single filter that keeps replicated chains disjoint across shards.
  Binding b;
  std::vector<TokenSlot> token(1);
  for (const RightActivation& a : acts) {
    if (node->part_mod > 1 &&
        HashId(a.id) % node->part_mod != node->part_idx) {
      continue;
    }
    b.assign(static_cast<size_t>(rule.lhs.num_vars), std::nullopt);
    if (!TupleConsistent(cond, a.tuple(), &b)) continue;
    token[0] = TokenSlot{a.id, *a.ref};
    PRODB_RETURN_IF_ERROR(Descend(shard, node, token, a.positive));
  }
  return Status::OK();
}

Status ReteNetwork::JoinRight(Shard* shard, JoinNode* node) {
  ++stats_.propagations;
  const std::vector<RightActivation>& effective = node->right->effective;
  if (effective.empty()) return Status::OK();

  // Pairs one stored LEFT token with one activation.
  std::vector<TokenSlot> merged;
  auto pair_one = [&](TokenView l, const RightActivation& a) -> Status {
    if (!node->Joins(l, a.tuple())) return Status::OK();
    if (node->negated) {
      auto it = node->neg_counts.find(l);
      if (it == node->neg_counts.end()) {
        it = node->neg_counts.emplace(IdsOf(l), 0).first;
      }
      int& count = it->second;
      if (a.positive) {
        if (++count == 1) {
          PRODB_RETURN_IF_ERROR(Descend(shard, node, l, false));
        }
      } else {
        if (--count == 0) {
          PRODB_RETURN_IF_ERROR(Descend(shard, node, l, true));
        }
      }
      return Status::OK();
    }
    merged.assign(l.begin(), l.end());
    merged.push_back(TokenSlot{a.id, *a.ref});
    return Descend(shard, node, merged, a.positive);
  };

  if (!node->left_key.empty()) {
    // Indexed path: each activation probes the LEFT memory for its
    // join-compatible tokens only — per-delta cost O(matches), not
    // O(|memory|). Activation-major order equals the order the deltas
    // would propagate in one at a time.
    std::vector<Value> key;
    for (const RightActivation& a : effective) {
      if (ProbeKeyFromTuple(*node, a.tuple(), &key)) {
        ++stats_.index_probes;
        PRODB_RETURN_IF_ERROR(
            node->left->ScanMatching(key, [&](TokenView l) {
              ++stats_.probe_tokens_visited;
              ++stats_.tuples_examined;
              return pair_one(l, a);
            }));
      } else {
        PRODB_RETURN_IF_ERROR(node->left->Scan([&](TokenView l) {
          ++stats_.scan_tokens_visited;
          ++stats_.tuples_examined;
          return pair_one(l, a);
        }));
      }
    }
    return Status::OK();
  }

  // Walk the LEFT memory once, pairing every stored token with every
  // activation of the group in delta order — one-delta groups re-scan
  // this memory for each arrival; a larger group pays the scan once.
  return node->left->Scan([&](TokenView l) {
    ++stats_.scan_tokens_visited;
    ++stats_.tuples_examined;
    for (const RightActivation& a : effective) {
      PRODB_RETURN_IF_ERROR(pair_one(l, a));
    }
    return Status::OK();
  });
}

Status ReteNetwork::ActivateAlpha(Shard* shard, AlphaNode* alpha,
                                  const std::vector<RightActivation>& acts) {
  ++stats_.propagations;
  // Every RIGHT memory first, each once however many nodes share it.
  // Then successors deepest level first: a node pairs the new tuples
  // with the LEFT tokens that existed before this activation (its
  // ancestors, being shallower, have not run yet), and its ancestors'
  // new tokens reach it later through ActivateLeft, which probes the
  // already-mutated memory — so each new pair forms exactly once.
  for (RightMemory* memory : alpha->memories) {
    PRODB_RETURN_IF_ERROR(AdmitRight(memory, acts));
  }
  for (JoinNode* node : alpha->successors) {
    PRODB_RETURN_IF_ERROR(node->level == 0 ? ActivateHead(shard, node, acts)
                                           : JoinRight(shard, node));
  }
  return Status::OK();
}

Status ReteNetwork::PropagateGroup(Shard* shard, const std::string& rel,
                                   const std::vector<RightActivation>& group) {
  auto it = shard->alpha_by_class.find(rel);
  if (it == shard->alpha_by_class.end()) return Status::OK();
  const ClassDispatch<AlphaNode*>& dispatch = it->second;
  ShardStats& sstats = shard_stats_[shard->index];
  sstats.deltas_routed += group.size();

  // Tuple-major dispatch into (alpha position, delta) hits; sorted, they
  // give each alpha that some delta passed its run of the group's deltas
  // in order, in registration order within the class. Alpha nodes no
  // delta passed are never activated.
  std::vector<uint32_t> cands;
  std::vector<std::pair<uint32_t, uint32_t>> hits;
  for (uint32_t i = 0; i < group.size(); ++i) {
    const Tuple& t = group[i].tuple();
    sstats.candidates_visited += dispatch.Candidates(
        t, spec_.discriminate, &stats_, &cands);
    for (uint32_t pos : cands) {
      if (dispatch.entries[pos]->Matches(t)) hits.emplace_back(pos, i);
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<RightActivation> passed;
  for (size_t h = 0; h < hits.size();) {
    const uint32_t pos = hits[h].first;
    passed.clear();
    for (; h < hits.size() && hits[h].first == pos; ++h) {
      passed.push_back(group[hits[h].second]);
    }
    PRODB_RETURN_IF_ERROR(
        ActivateAlpha(shard, dispatch.entries[pos], passed));
  }
  return Status::OK();
}

TupleRef ReteNetwork::HandleFor(const std::string& rel, const Tuple& t,
                                bool insert) const {
  if (insert && memory_classes_.count(rel)) {
    return std::make_shared<const Tuple>(t);
  }
  return TupleRef(TupleRef(), &t);
}

Status ReteNetwork::OnBatch(const ChangeSet& batch) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  ++stats_.batches;
  plans_.OnBatch(batch);
  // Group same-relation deltas, preserving their relative order (ids are
  // never reused, so cross-relation reordering cannot invert an
  // insert/delete pair of the same tuple). Groups run in first-appearance
  // order; the conflict set reconciles by instantiation key, so the net
  // result matches propagating the deltas one at a time. Each delta's
  // handle is made here, once, before any shard sees it.
  std::vector<TupleRef> refs;
  refs.reserve(batch.size());
  std::vector<const std::string*> order;
  std::unordered_map<std::string, std::vector<RightActivation>> groups;
  for (const Delta& d : batch) {
    auto [it, inserted] = groups.try_emplace(d.relation);
    if (inserted) order.push_back(&it->first);
    refs.push_back(HandleFor(d.relation, d.tuple, d.is_insert()));
    it->second.push_back(RightActivation{d.id, &refs.back(), d.is_insert()});
  }

  // Every shard walks the grouped deltas (its per-class alpha maps and
  // head-partition filters select its slice). The one shard of an
  // unsharded network writes the conflict set directly; several shards
  // buffer their conflict-set ops, and the join replays the buffers in
  // shard order 0..N-1 — each shard is single-threaded and
  // deterministic, so the merged conflict set (recency stamps included)
  // is byte-identical regardless of thread count or completion order.
  const bool merge = shards_.size() > 1;
  for (auto& shard : shards_) shard->buffered = merge;
  size_t failed = 0;
  Status st = fan_out_.Run(
      shards_.size(),
      [&](size_t i) {
        for (const std::string* rel : order) {
          PRODB_RETURN_IF_ERROR(
              PropagateGroup(shards_[i].get(), *rel, groups.at(*rel)));
        }
        return Status::OK();
      },
      &shard_stats_, &failed);
  if (merge) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard* shard = shards_[i].get();
      shard->buffered = false;
      if (i < failed) {
        conflict_set_.ApplyOps(&shard->ops);
      } else {
        // A failed batch leaves the shards before the failed one
        // applied; its ops and later shards' are dropped.
        shard->ops.clear();
      }
    }
  }
  PRODB_RETURN_IF_ERROR(st);
  return AfterReplan(plans_.MaybeReplan(batch.size()));
}

Status ReteNetwork::ForceReplan() {
  std::lock_guard<std::mutex> lock(batch_mu_);
  if (rules_.empty()) return Status::OK();
  return AfterReplan(plans_.Replan());
}

Status ReteNetwork::AfterReplan(RulePlans::Outcome outcome) {
  if (outcome == RulePlans::Outcome::kKept) return Status::OK();
  // Estimator accounting: compare each rule's live instantiation count
  // against the fresh estimate (same stats either way, so the sample
  // measures the estimator, not plan staleness).
  std::vector<uint64_t> actual = conflict_set_.CountByRule(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    stats_.ObserveCardEstimate(plans_[i].est_final,
                               static_cast<double>(actual[i]));
  }
  // Unchanged orders only refresh the drift snapshots — the compiled
  // network is still the cheapest known, keep its token memories.
  if (outcome != RulePlans::Outcome::kReordered) return Status::OK();
  return RebuildAndReseed();
}

Status ReteNetwork::RebuildAndReseed() {
  // Tear down the compiled network (the per-shard counters live outside
  // it and carry over). The DBMS-backed token relations must be dropped
  // from the catalog before the stores that own them go away.
  for (auto& shard : shards_) {
    if (dbms_backed_) {
      std::vector<TokenStore*> stores;
      for (const auto& node : shard->join_nodes) {
        stores.push_back(node->left.get());
      }
      for (const auto& memory : shard->right_memories) {
        stores.push_back(memory->store.get());
      }
      for (TokenStore* s : stores) {
        auto* rs = dynamic_cast<RelationTokenStore*>(s);
        if (rs != nullptr) {
          PRODB_RETURN_IF_ERROR(
              catalog_->Drop(rs->relation()->schema().name()));
        }
      }
    }
    auto fresh = std::make_unique<Shard>();
    fresh->index = shard->index;
    shard = std::move(fresh);
  }
  // Recompile every rule under its new plan.
  for (size_t i = 0; i < rules_.size(); ++i) {
    PRODB_RETURN_IF_ERROR(BuildRule(rules_[i], static_cast<int>(i)));
  }
  // Reseed token memories by replaying WM through the fresh network with
  // Produce suppressed (the conflict set was never torn down). Replay
  // order across classes is irrelevant: all activations are inserts, and
  // negated-node bookkeeping nets out the same whichever side arrives
  // first.
  reseeding_ = true;
  Status st = ReseedFromRelations();
  reseeding_ = false;
  // patterns_stored is a resident-token gauge; the rebuild dropped the
  // old stores without decrementing it, so recompute from the survivors.
  stats_.patterns_stored.store(TokenCount(), std::memory_order_relaxed);
  return st;
}

Status ReteNetwork::ReseedFromRelations() {
  // Sorted class set: deterministic replay regardless of rule order.
  std::set<std::string> classes;
  for (const Rule& r : rules_) {
    for (const ConditionSpec& c : r.lhs.conditions) classes.insert(c.relation);
  }
  for (const std::string& cls : classes) {
    Relation* rel = catalog_->Get(cls);
    if (rel == nullptr) continue;
    std::vector<std::pair<TupleId, Tuple>> rows;
    rows.reserve(rel->Count());
    PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId id, const Tuple& t) {
      rows.emplace_back(id, t);
      return Status::OK();
    }));
    std::vector<TupleRef> refs;
    refs.reserve(rows.size());
    std::vector<RightActivation> group;
    group.reserve(rows.size());
    for (const auto& [id, t] : rows) {
      refs.push_back(HandleFor(cls, t, /*insert=*/true));
      group.push_back(RightActivation{id, &refs.back(), /*positive=*/true});
    }
    for (auto& shard : shards_) {
      PRODB_RETURN_IF_ERROR(PropagateGroup(shard.get(), cls, group));
    }
  }
  return Status::OK();
}

std::vector<ShardStats> ReteNetwork::ShardStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(batch_mu_);
  if (shards_.size() == 1) return {};
  return shard_stats_;
}

size_t ReteNetwork::AuxiliaryFootprintBytes() const {
  // Every tuple payload counts once, however many tokens and memories
  // hold its handle; a shared RIGHT memory counts once.
  std::unordered_set<const Tuple*> counted;
  size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& node : shard->join_nodes) {
      if (node->left != nullptr) total += node->left->FootprintBytes(&counted);
      for (const auto& [ids, count] : node->neg_counts) {
        (void)count;
        total += ids.capacity() * sizeof(TupleId) + 48;  // approx. map node
      }
    }
    for (const auto& memory : shard->right_memories) {
      total += memory->store->FootprintBytes(&counted);
    }
  }
  return total;
}

ReteTopology ReteNetwork::Topology() const {
  ReteTopology topo;
  topo.production_nodes = rules_.size();
  for (const auto& shard : shards_) {
    topo.alpha_nodes += shard->alpha_nodes.size();
    topo.right_memories += shard->right_memories.size();
    for (const auto& node : shard->join_nodes) {
      if (node->negated) {
        ++topo.negative_nodes;
      } else if (node->level > 0) {
        ++topo.beta_nodes;
      }
    }
  }
  return topo;
}

size_t ReteNetwork::TokenCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& node : shard->join_nodes) {
      if (node->left != nullptr) total += node->left->size();
    }
    for (const auto& memory : shard->right_memories) {
      total += memory->store->size();
    }
  }
  return total;
}

}  // namespace prodb
