#ifndef PRODB_CORE_MATCHER_SPEC_H_
#define PRODB_CORE_MATCHER_SPEC_H_

#include <cstddef>
#include <memory>
#include <string>

#include "db/catalog.h"
#include "match/matcher.h"
#include "match/sharding.h"
#include "plan/planner.h"

namespace prodb {

/// Which matching architecture backs the system (see README table).
enum class MatcherKind {
  kRete,         // in-memory Rete network (§3.1)
  kReteDbms,     // Rete with LEFT/RIGHT memories as relations (§3.2)
  kQuery,        // re-evaluation / simplified algorithm (§4.1)
  kPattern,      // matching patterns in COND relations (§4.2)
};

/// Upper bound on the threads one configuration may ask for: the shard
/// count of a matcher spec and prodb_server's --workers.
inline constexpr size_t kMaxThreads = 256;

/// One matcher configuration: an architecture plus the cross-
/// architecture ablations the experiments and the equivalence suite
/// compare. Every matcher is built from one (ReteNetwork, QueryMatcher
/// and PatternMatcher take it whole); beside the storage that backs its
/// auxiliary relations, nothing else configures a matcher. Named by a
/// string `arch ( "-" mod )*`:
///
///   arch  rete | rete-dbms | query | pattern
///   mod   scan      join-key / WM indexes and constant-test
///                   discrimination off (the linear-walk baseline)
///         nodisc    constant-test discrimination off
///         noshare   no node sharing across rules; not on query or
///                   pattern, which have no network to share
///         plan      cost-based join planning (planner.enable); not
///                   on pattern, which has no join planner
///         shard<N>  N working-memory shards, one thread per shard,
///                   2 <= N <= kMaxThreads
///
/// Each mod appears at most once; scan and nodisc exclude each other.
/// Examples: "rete-dbms-scan", "query-plan-shard8", "rete-noshare".
/// Settings the grammar does not name (a thread count other than one per
/// shard, hot classes, the planner's thresholds) are set on the parsed
/// value.
struct MatcherSpec {
  MatcherKind kind = MatcherKind::kRete;
  /// Equality-join-key indexes on Rete's LEFT/RIGHT memories, and hash
  /// indexes the query and pattern matchers declare on the WM attributes
  /// their rules test for equality (§4.1.2). Off: every access scans.
  bool indexes = true;
  /// Per-class constant-test discrimination of each WM delta (eq-hash /
  /// interval-tree / residual tiers, §2.3 / [STON86a]). Off: a delta is
  /// tested against every alpha node or CE of its class.
  bool discriminate = true;
  /// Rete only: rules with identical class + constant tests share one
  /// alpha node and the RIGHT memories read through it ([SELL86]), and
  /// rules whose leading CEs are identical in join order share the join
  /// chain over them ([SELL88], §3.2's "global compiled plan").
  bool share = true;
  /// Partitioned match (§4.2.3's parallel propagation): Rete's
  /// sub-networks, the query matcher's evaluations and the pattern
  /// matcher's per-class COND propagation fan out over the shards.
  ShardingOptions sharding = {};
  /// Cost-based join orders from catalog statistics (src/plan); off
  /// keeps each rule's textual order. Rete and query only.
  PlannerOptions planner = {};

  /// Parses `name`; InvalidArgument naming the bad token otherwise.
  static Status Parse(const std::string& name, MatcherSpec* out);
  /// Canonical name: arch, then scan or nodisc, then noshare, then plan,
  /// then shard<N>. Parse(Name()) reproduces every field the grammar
  /// sets.
  std::string Name() const;

  bool operator==(const MatcherSpec&) const = default;
};

/// Builds the matcher `spec` names over `catalog`. `aux_storage` backs
/// the auxiliary relations (rete-dbms LEFT/RIGHT memories, pattern COND
/// relations).
std::unique_ptr<Matcher> MakeMatcher(
    const MatcherSpec& spec, Catalog* catalog,
    StorageKind aux_storage = StorageKind::kMemory);

}  // namespace prodb

#endif  // PRODB_CORE_MATCHER_SPEC_H_
