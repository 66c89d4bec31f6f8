#ifndef PRODB_ENGINE_STRATEGY_H_
#define PRODB_ENGINE_STRATEGY_H_

#include <vector>

#include "lang/rule.h"
#include "match/conflict_set.h"

namespace prodb {

/// Conflict-resolution strategies for the Select step (§2.1: "one may
/// use user-defined priorities or, in general, order rules according to
/// some static or dynamic criteria").
enum class StrategyKind {
  kFifo,      // oldest instantiation first
  kRecency,   // newest instantiation first (OPS5's LEX leans this way)
  kPriority,  // highest rule priority, recency as tie-break
  kRandom,    // seeded uniform choice (models the paper's "arbitrary"
              // selection in §5.2)
};

const char* StrategyName(StrategyKind kind);

/// Builds a chooser usable with ConflictSet::Take. `rules` backs the
/// priority strategy; `seed` feeds the random strategy (deterministic).
/// Cost per selection over n pending members: FIFO and recency read an
/// end of the conflict set's recency list (O(1)); priority walks all n
/// members (O(n)); random walks the set's key-order index to the drawn
/// k-th member (O(min(k, n - k)); the index, built on the first random
/// pick, then costs O(log n) per add and remove). None copies a member.
ConflictSet::Chooser MakeStrategy(StrategyKind kind,
                                  const std::vector<Rule>* rules,
                                  uint64_t seed = 42);

}  // namespace prodb

#endif  // PRODB_ENGINE_STRATEGY_H_
