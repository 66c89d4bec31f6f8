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
/// Cost per selection over n pending members: FIFO and recency are
/// O(log n) recency-index lookups; priority walks all n members; random
/// walks to the k-th member in key order (O(k)). None copies a member.
ConflictSet::Chooser MakeStrategy(StrategyKind kind,
                                  const std::vector<Rule>* rules,
                                  uint64_t seed = 42);

}  // namespace prodb

#endif  // PRODB_ENGINE_STRATEGY_H_
