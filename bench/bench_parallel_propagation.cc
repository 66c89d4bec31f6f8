// E16 — Sharded multi-core match: core-count scaling sweep (replaces the
// E5 pattern-matcher-only fan-out bench).
//
// Working memory is partitioned into 8 shards; each benchmark preloads a
// star workload (1e5 or 1e6 WMEs) through batched Apply, then measures
// batched churn (1024 mixed deltas per iteration, half of them crafted
// to match) at 1, 2, 4, and 8 worker threads. Serial baselines run the same
// churn on the unsharded matchers. Per-shard routing counters and the
// shard-imbalance ratio are emitted as benchmark counters.
//
// Thread counts above the machine's core count oversubscribe — results
// are still byte-identical (the ordered merge guarantees it); only the
// wall-clock is then meaningless as a scaling signal. CI runners have a
// handful of vCPUs; see EXPERIMENTS.md E16 for interpretation.
//
// The DBMS-backed Rete is absent by design: its shards execute serially
// (token movements share the catalog/WAL stack), so a thread sweep does
// not apply.

#include <benchmark/benchmark.h>

#include <deque>

#include "bench_util.h"

namespace prodb {
namespace {

// Churn deltas per timed iteration. Sized so one batch's per-shard slice
// is a few hundred µs at 8 threads — enough to amortize the pool's
// dispatch + latch overhead; engine-realistic RHS-sized batches are far
// smaller, but this bench measures the scaling curve, not batch latency.
constexpr size_t kBatch = 1024;

WorkloadSpec StarSpec(size_t wmes) {
  WorkloadSpec spec;
  spec.num_classes = 8;  // head classes spread across all shards
  spec.attrs_per_class = 4;
  spec.num_rules = 16;
  spec.ces_per_rule = 6;  // star width 6
  spec.chain_join = false;
  // Keep per-alpha survivor counts roughly constant as WM grows, so the
  // churn measures propagation cost, not a degenerating join.
  spec.domain = static_cast<int64_t>(
      std::max<size_t>(32, wmes / 512));
  spec.seed = 13;
  return spec;
}

/// Bulk load `wmes` tuples (spread over the classes) through WM batches
/// — chunked so each OnBatch sees a large but bounded ∆.
void PreloadBatched(bench::Setup& setup, size_t wmes, uint64_t seed) {
  Rng rng(seed);
  const size_t classes = setup.gen.spec().num_classes;
  setup.wm->BeginBatch();
  for (size_t i = 0; i < wmes; ++i) {
    bench::Abort(setup.wm->Insert(setup.gen.ClassName(i % classes),
                                  setup.gen.RandomTuple(&rng)),
                 "preload");
    if (setup.wm->pending().size() == 65536) {
      bench::Abort(setup.wm->CommitBatch(), "preload");
      setup.wm->BeginBatch();
    }
  }
  bench::Abort(setup.wm->CommitBatch(), "preload");
}

/// Batched churn: per iteration one BeginBatch/CommitBatch of kBatch
/// deltas — alternating inserts (half crafted to pass a random rule CE's
/// constant test, so real join work flows) and deletes of earlier churn
/// tuples, keeping WM size steady.
void Churn(benchmark::State& state, bench::Setup& setup, size_t skew_class) {
  const size_t classes = setup.gen.spec().num_classes;
  const bool skew = skew_class < classes;
  const std::string skew_name = setup.gen.ClassName(skew ? skew_class : 0);
  // (rule, ce) pairs the matched-insert half draws from; under skew only
  // CEs over the skew class qualify so every delta lands on one class.
  std::vector<std::pair<size_t, size_t>> targets;
  for (size_t r = 0; r < setup.rules.size(); ++r) {
    const auto& conds = setup.rules[r].lhs.conditions;
    for (size_t c = 0; c < conds.size(); ++c) {
      if (!skew || conds[c].relation == skew_name) targets.emplace_back(r, c);
    }
  }
  Rng rng(4242);
  std::deque<std::pair<std::string, TupleId>> live;
  size_t items = 0;
  for (auto _ : state) {
    setup.wm->BeginBatch();
    for (size_t k = 0; k < kBatch; ++k) {
      if (k % 2 == 1 && live.size() > kBatch) {
        auto [cls, id] = live.front();
        live.pop_front();
        bench::Abort(setup.wm->Delete(cls, id), "churn delete");
      } else {
        std::string cls;
        Tuple t;
        if (rng.Chance(0.5) && !targets.empty()) {
          auto [r, ce] = targets[rng.Uniform(targets.size())];
          cls = setup.rules[r].lhs.conditions[ce].relation;
          t = setup.gen.MatchingTuple(setup.rules[r], ce, &rng);
        } else {
          cls = skew ? skew_name
                     : setup.gen.ClassName(rng.Uniform(classes));
          t = setup.gen.RandomTuple(&rng);
        }
        TupleId id;
        bench::Abort(setup.wm->Insert(cls, t, &id), "churn insert");
        live.emplace_back(std::move(cls), id);
      }
      ++items;
    }
    bench::Abort(setup.wm->CommitBatch(), "churn commit");
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));

  std::vector<ShardStats> shard_stats = setup.matcher->ShardStatsSnapshot();
  if (!shard_stats.empty()) {
    uint64_t routed = 0, merge_wait = 0;
    for (const ShardStats& s : shard_stats) {
      routed += s.deltas_routed;
      merge_wait += s.merge_wait_ns;
    }
    state.counters["shards"] = static_cast<double>(shard_stats.size());
    state.counters["deltas_routed"] = static_cast<double>(routed);
    state.counters["imbalance"] = ShardImbalance(shard_stats);
    state.counters["merge_wait_ms"] =
        static_cast<double>(merge_wait) / 1e6;
  }
}

/// `spec_name` names the matcher; the sweep sets its thread count (the
/// pattern matcher's propagation pool, the sharded matchers' shard pool)
/// and, under skew, declares the skewed class hot.
void RunSweep(benchmark::State& state, const std::string& spec_name,
              size_t wmes, size_t threads, bool skew) {
  MatcherSpec spec = bench::ParseSpec(spec_name);
  spec.sharding.threads = threads;
  if (skew) spec.sharding.hot_classes = {"C0"};
  auto setup = bench::MakeSetup(StarSpec(wmes), [&](Catalog* c) {
    return MakeMatcher(spec, c);
  });
  PreloadBatched(*setup, wmes, 3);
  Churn(state, *setup,
        skew ? 0 : setup->gen.spec().num_classes /* no skew */);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wmes"] = static_cast<double>(wmes);
}

// --- Sharded Rete: the headline sweep ---------------------------------
void BM_ShardScalingRete(benchmark::State& state) {
  RunSweep(state, "rete-shard8", static_cast<size_t>(state.range(0)),
           static_cast<size_t>(state.range(1)), /*skew=*/false);
}
BENCHMARK(BM_ShardScalingRete)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Args({1000000, 1})
    ->Args({1000000, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SerialRete(benchmark::State& state) {
  RunSweep(state, "rete", static_cast<size_t>(state.range(0)), 1,
           /*skew=*/false);
}
BENCHMARK(BM_SerialRete)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Skewed churn (every delta on class C0, declared hot): head-tuple hash
// partitioning spreads one class's deltas across all shards.
void BM_HotSkewRete(benchmark::State& state) {
  RunSweep(state, "rete-shard8", 100000,
           static_cast<size_t>(state.range(0)), /*skew=*/true);
}
BENCHMARK(BM_HotSkewRete)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Sharded query matcher --------------------------------------------
void BM_ShardScalingQuery(benchmark::State& state) {
  RunSweep(state, "query-shard8", 100000,
           static_cast<size_t>(state.range(0)), /*skew=*/false);
}
BENCHMARK(BM_ShardScalingQuery)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SerialQuery(benchmark::State& state) {
  RunSweep(state, "query", 100000, 1, /*skew=*/false);
}
BENCHMARK(BM_SerialQuery)->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Pattern matcher (its §4.2.3 per-class fan-out) -------------------
void BM_ShardScalingPattern(benchmark::State& state) {
  RunSweep(state, "pattern-shard8", 100000,
           static_cast<size_t>(state.range(0)), /*skew=*/false);
}
BENCHMARK(BM_ShardScalingPattern)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
