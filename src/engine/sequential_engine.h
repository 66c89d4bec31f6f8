#ifndef PRODB_ENGINE_SEQUENTIAL_ENGINE_H_
#define PRODB_ENGINE_SEQUENTIAL_ENGINE_H_

#include <string>
#include <vector>

#include "engine/actions.h"
#include "engine/strategy.h"
#include "engine/working_memory.h"

namespace prodb {

struct SequentialEngineOptions {
  StrategyKind strategy = StrategyKind::kFifo;
  uint64_t seed = 42;
  /// Safety valve against non-terminating programs.
  size_t max_firings = 1u << 20;
};

struct EngineRunResult {
  size_t firings = 0;
  size_t stale_skipped = 0;   // instantiations invalidated before firing
  bool halted = false;        // a (halt) action fired
  bool exhausted = false;     // hit max_firings
};

/// The serial OPS5 recognize-act cycle (§2.1, §5.1): repeatedly Select
/// one instantiation from the conflict set, Act (run its whole RHS
/// through the shared interpreter, ExecuteRhs), let the triggered
/// maintenance update the conflict set, and loop until the set empties,
/// a firing's RHS held a (halt), or max_firings is reached.
///
/// Fired instantiations are removed from the conflict set, which gives
/// OPS5-style refraction: the same rule re-fires only when new matching
/// WM activity re-derives an instantiation.
class SequentialEngine {
 public:
  /// `matcher` must already hold the program's rules.
  SequentialEngine(Catalog* catalog, Matcher* matcher,
                   SequentialEngineOptions options = {});

  /// Loads a WM element (outside any cycle; triggers matching).
  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr) {
    return wm_.Insert(cls, t, id);
  }

  /// Runs recognize-act to quiescence.
  Status Run(EngineRunResult* result);

  /// Fires exactly one instantiation if available; *fired reports it.
  /// The firing's RHS runs inside a WM batch: relation mutations apply
  /// eagerly, and the matcher receives the whole ∆ in one OnBatch at the
  /// end (the atomic-RHS view §5.2's commit rule requires). A failing
  /// action rolls the batch back and its error is returned: the firing
  /// changes nothing, and its instantiation goes back into the conflict
  /// set (unless the rollback itself failed).
  Status Step(bool* fired, EngineRunResult* result);

  FunctionRegistry& functions() { return functions_; }
  WorkingMemory& working_memory() { return wm_; }

  /// Names of rules in firing order (tests & the equivalence checks).
  const std::vector<std::string>& firing_log() const { return firing_log_; }

 private:
  WorkingMemory wm_;
  Matcher* matcher_;
  SequentialEngineOptions options_;
  ConflictSet::Chooser chooser_;
  FunctionRegistry functions_;
  std::vector<std::string> firing_log_;
};

}  // namespace prodb

#endif  // PRODB_ENGINE_SEQUENTIAL_ENGINE_H_
