#include "engine/strategy.h"

#include <memory>

#include "common/rng.h"

namespace prodb {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFifo: return "fifo";
    case StrategyKind::kRecency: return "recency";
    case StrategyKind::kPriority: return "priority";
    case StrategyKind::kRandom: return "random";
  }
  return "?";
}

ConflictSet::Chooser MakeStrategy(StrategyKind kind,
                                  const std::vector<Rule>* rules,
                                  uint64_t seed) {
  using View = ConflictSet::View;
  switch (kind) {
    case StrategyKind::kFifo:
      return [](const View& view) { return view.Oldest(); };
    case StrategyKind::kRecency:
      return [](const View& view) { return view.Newest(); };
    case StrategyKind::kPriority:
      return [rules](const View& view) {
        auto prio = [&](const Instantiation& inst) {
          return (*rules)[static_cast<size_t>(inst.rule_index)].priority;
        };
        auto best = view.begin();
        for (auto it = view.begin(); it != view.end(); ++it) {
          const Instantiation& a = it->second;
          const Instantiation& b = best->second;
          if (prio(a) > prio(b) ||
              (prio(a) == prio(b) && a.recency > b.recency)) {
            best = it;
          }
        }
        return best;
      };
    case StrategyKind::kRandom: {
      auto rng = std::make_shared<Rng>(seed);
      return [rng](const View& view) {
        if (view.empty()) return view.end();
        return view.NthInKeyOrder(rng->Uniform(view.size()));
      };
    }
  }
  return [](const View& view) { return view.end(); };
}

}  // namespace prodb
