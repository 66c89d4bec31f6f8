#include "engine/sequential_engine.h"

namespace prodb {

SequentialEngine::SequentialEngine(Catalog* catalog, Matcher* matcher,
                                   SequentialEngineOptions options)
    : wm_(catalog, matcher),
      matcher_(matcher),
      options_(options),
      chooser_(MakeStrategy(options.strategy, &matcher->rules(),
                            options.seed)) {}

Status SequentialEngine::Step(bool* fired, EngineRunResult* result) {
  *fired = false;
  Instantiation inst;
  while (matcher_->conflict_set().Take(chooser_, &inst)) {
    // Validate: the matcher keeps the set consistent, but a caller could
    // have mutated relations behind our back; be defensive.
    const Rule& rule =
        matcher_->rules()[static_cast<size_t>(inst.rule_index)];
    if (!MatchedTuplesUnchanged(*wm_.catalog(), rule, inst)) {
      ++result->stale_skipped;
      continue;
    }
    bool halted = false;
    wm_.BeginBatch();
    Status st = ExecuteRhs(rule, inst, functions_, &wm_, &halted);
    // A failing action undoes the firing's whole RHS before the matcher
    // sees any of it, as the concurrent engine's abort does. When the
    // rollback went through (AbortBatch then hands the cause back),
    // working memory is as before, so the instantiation holds again.
    if (!st.ok()) {
      Status aborted = wm_.AbortBatch(st);
      if (aborted.code() == st.code() && aborted.message() == st.message()) {
        matcher_->conflict_set().Add(std::move(inst));
      }
      return aborted;
    }
    PRODB_RETURN_IF_ERROR(wm_.CommitBatch());
    firing_log_.push_back(inst.rule_name);
    ++result->firings;
    *fired = true;
    if (halted) result->halted = true;
    return Status::OK();
  }
  return Status::OK();
}

Status SequentialEngine::Run(EngineRunResult* result) {
  *result = EngineRunResult{};
  for (;;) {
    if (result->firings >= options_.max_firings) {
      result->exhausted = true;
      return Status::OK();
    }
    bool fired = false;
    PRODB_RETURN_IF_ERROR(Step(&fired, result));
    if (!fired || result->halted) return Status::OK();
  }
}

}  // namespace prodb
