#ifndef PRODB_MATCH_SHARDING_H_
#define PRODB_MATCH_SHARDING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/tuple.h"

namespace prodb {

/// Configuration for partitioned (multi-core) match. Working memory is
/// split into shards — whole classes map to a shard by name hash, and
/// declared *hot* classes are additionally spread across every shard by
/// tuple-id hash — and each shard runs its own alpha dispatch and token
/// memories, with conflict-set deltas merged deterministically at a
/// barrier. num_shards <= 1 keeps today's serial path untouched.
struct ShardingOptions {
  /// Number of working-memory partitions. 0 or 1 disables sharding.
  size_t num_shards = 0;
  /// ThreadPool workers driving the shards. 0 means one per shard.
  size_t threads = 0;
  /// Classes whose churn dominates the workload — the ones worth
  /// splitting finer than class granularity: each is spread across
  /// shards by tuple-id hash instead of pinned to one shard.
  std::vector<std::string> hot_classes;

  bool enabled() const { return num_shards > 1; }
  bool operator==(const ShardingOptions&) const = default;
};

/// Per-shard match counters (satellite view next to the global
/// MatcherStats). Single-writer during a batch: each shard's worker is
/// the only mutator, and the barrier publishes before anyone reads.
struct ShardStats {
  uint64_t deltas_routed = 0;      // deltas this shard dispatched
  uint64_t candidates_visited = 0; // discrimination-index nominations
  uint64_t conflict_ops = 0;       // buffered conflict-set add/removes
  uint64_t merge_wait_ns = 0;      // idle time between shard finish and
                                   // the merge barrier (imbalance cost)
};

/// Mixes a TupleId into a well-distributed 64-bit hash (splitmix64 over
/// the packed page/slot pair). Page-sequential ids must not land on the
/// same shard, which a modulo over raw ids would cause.
inline uint64_t HashId(TupleId id) {
  uint64_t x = (static_cast<uint64_t>(id.page_id) << 32) | id.slot_id;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over a class name (stable across runs — shard assignment is
/// part of the deterministic merge order).
inline uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Max-over-mean of per-shard routed deltas: 1.0 is a perfect split,
/// num_shards is everything-on-one-shard. Surfaced by the scaling bench.
double ShardImbalance(const std::vector<ShardStats>& stats);

/// The one fan-out step of every parallel matcher path: how many
/// workers there are, whether parts run on a pool or inline, the join,
/// the first failure in part order, and the wait each part spends at the
/// join. Rete's shards, the query matcher's seeded evaluations and
/// re-evaluations, and the pattern matcher's per-class propagation all
/// run through one; the serial configurations are the same code with
/// one part, or with no pool.
class FanOut {
 public:
  /// The workers `sharding` asks for: its `threads`, or one per shard
  /// when that is 0; one when sharding is off.
  static size_t Workers(const ShardingOptions& sharding);

  /// A pool of `workers` threads when that is two or more; otherwise
  /// every Run executes its parts inline, in part order.
  explicit FanOut(size_t workers);

  bool parallel() const { return pool_ != nullptr; }

  /// Runs part(0), ..., part(n-1) — on the pool when parallel() and
  /// n > 1, else inline in order — and returns once all have finished.
  /// Every part runs even when an earlier one failed. Returns the first
  /// failure in part order; *failed (when given) receives its part, or
  /// n when every part succeeded. With `stats` (n entries), each part's
  /// wait between its own finish and the join is added to its
  /// merge_wait_ns. A single part runs inline with no clock reads and
  /// no allocation.
  template <typename Part>
  Status Run(size_t n, Part&& part, std::vector<ShardStats>* stats = nullptr,
             size_t* failed = nullptr) {
    if (n == 1) {
      Status st = part(size_t{0});
      if (failed != nullptr) *failed = st.ok() ? 1 : 0;
      return st;
    }
    return RunParts(n, std::ref(part), stats, failed);
  }

 private:
  Status RunParts(size_t n, const std::function<Status(size_t)>& part,
                  std::vector<ShardStats>* stats, size_t* failed);

  std::unique_ptr<ThreadPool> pool_;
};

/// Routing of working-memory deltas to shards: cold classes map whole
/// (by name hash), hot classes split by tuple-id hash.
class ShardMap {
 public:
  ShardMap() = default;
  explicit ShardMap(const ShardingOptions& options)
      : num_shards_(options.num_shards < 2 ? 1 : options.num_shards),
        hot_(options.hot_classes.begin(), options.hot_classes.end()) {}

  size_t num_shards() const { return num_shards_; }
  bool IsHot(const std::string& cls) const {
    return num_shards_ > 1 && hot_.count(cls) > 0;
  }
  size_t ShardOfClass(const std::string& cls) const {
    return static_cast<size_t>(HashName(cls) % num_shards_);
  }
  size_t ShardOfId(TupleId id) const {
    return static_cast<size_t>(HashId(id) % num_shards_);
  }
  /// Shard owning a delta: by tuple id within hot classes, by class
  /// otherwise.
  size_t Route(const Delta& d) const {
    if (num_shards_ == 1) return 0;
    return IsHot(d.relation) ? ShardOfId(d.id) : ShardOfClass(d.relation);
  }

 private:
  size_t num_shards_ = 1;
  std::unordered_set<std::string> hot_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_SHARDING_H_
