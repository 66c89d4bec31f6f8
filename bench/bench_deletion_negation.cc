// E10 — Deletion maintenance and negated conditions (§4.2.2).
//
// Paper claims: deletion "is very similar to the insertion algorithm ...
// Mark bits can be easily replaced by counters"; negated conditions are
// supported by inverting defaults. Measure per-operation cost across
// insert/delete mixes, with and without negated CEs in the rule base.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace prodb {
namespace {

WorkloadSpec MixSpec(double negation_prob) {
  WorkloadSpec spec;
  spec.num_classes = 4;
  spec.attrs_per_class = 4;
  spec.num_rules = 32;
  spec.ces_per_rule = 3;
  spec.domain = 16;
  spec.chain_join = true;
  spec.negation_prob = negation_prob;
  spec.seed = 37;
  return spec;
}

void RunMix(benchmark::State& state, const std::string& matcher_name) {
  const int delete_pct = static_cast<int>(state.range(0));
  const bool with_negation = state.range(1) != 0;
  auto setup =
      bench::MakeSetup(MixSpec(with_negation ? 0.5 : 0.0), [&](Catalog* c) {
        return bench::MakeMatcherByName(matcher_name, c);
      });
  bench::Preload(*setup, 32, 3);

  Rng rng(42);
  std::vector<std::pair<std::string, TupleId>> live;
  for (auto _ : state) {
    bool do_delete = !live.empty() &&
                     static_cast<int>(rng.Uniform(100)) < delete_pct;
    if (do_delete) {
      size_t pick = rng.Uniform(live.size());
      bench::Abort(setup->wm->Delete(live[pick].first, live[pick].second),
                   "delete");
      live[pick] = live.back();
      live.pop_back();
    } else {
      std::string cls =
          setup->gen.ClassName(rng.Uniform(setup->gen.spec().num_classes));
      TupleId id;
      bench::Abort(setup->wm->Insert(cls, setup->gen.RandomTuple(&rng), &id),
                   "insert");
      live.emplace_back(std::move(cls), id);
    }
  }
  state.counters["delete_pct"] = delete_pct;
  state.counters["negation"] = with_negation ? 1 : 0;
  state.counters["patterns"] =
      static_cast<double>(setup->matcher->stats().patterns_stored.load());
}

void BM_Mix_Pattern(benchmark::State& state) { RunMix(state, "pattern"); }
void BM_Mix_Rete(benchmark::State& state) { RunMix(state, "rete"); }
void BM_Mix_Query(benchmark::State& state) { RunMix(state, "query"); }

// {delete%, negation?}. Every row runs the same number of operations:
// working memory grows for as long as a row runs, so with an iteration
// count google-benchmark picks, a faster build would run more operations
// over a larger memory and read slower per operation.
constexpr int kMixIterations = 2000;
#define MIX_ARGS                                                           \
  Args({0, 0})->Args({25, 0})->Args({50, 0})->Args({25, 1})->Args({50, 1}) \
      ->Iterations(kMixIterations)

BENCHMARK(BM_Mix_Pattern)->MIX_ARGS;
BENCHMARK(BM_Mix_Rete)->MIX_ARGS;
BENCHMARK(BM_Mix_Query)->MIX_ARGS;

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
