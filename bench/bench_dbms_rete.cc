// E8 — The straightforward DBMS implementation of the Rete network
// (§3.2): LEFT/RIGHT memories as catalog relations.
//
// Paper claims: it offers "simplicity and re-usability of existing
// technology" but "the large number of intermediate relations is not
// realistic" and the storage is redundant. Compare insertion cost and
// memory-relation growth: in-memory Rete vs relation-backed (volatile)
// vs relation-backed on paged secondary storage.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace prodb {
namespace {

WorkloadSpec ReteSpec() {
  WorkloadSpec spec;
  spec.num_classes = 4;
  spec.attrs_per_class = 4;
  spec.num_rules = 16;
  spec.ces_per_rule = 3;
  spec.domain = 32;
  spec.chain_join = true;
  spec.seed = 21;
  return spec;
}

void RunRete(benchmark::State& state, const std::string& spec_name,
             StorageKind memory_storage) {
  const MatcherSpec spec = bench::ParseSpec(spec_name);
  auto setup = bench::MakeSetup(ReteSpec(), [&](Catalog* c) {
    return MakeMatcher(spec, c, memory_storage);
  });
  bench::Preload(*setup, 64, 3);
  auto* rete = static_cast<ReteNetwork*>(setup->matcher.get());

  Rng rng(42);
  for (auto _ : state) {
    size_t cls = rng.Uniform(setup->gen.spec().num_classes);
    Tuple t = setup->gen.RandomTuple(&rng);
    TupleId id;
    bench::Abort(setup->wm->Insert(setup->gen.ClassName(cls), t, &id),
                 "insert");
    bench::Abort(setup->wm->Delete(setup->gen.ClassName(cls), id), "delete");
  }
  state.counters["tokens_resident"] = static_cast<double>(rete->TokenCount());
  state.counters["aux_bytes"] =
      static_cast<double>(rete->AuxiliaryFootprintBytes());
  // Count the LEFT/RIGHT relations the network created (0 when
  // in-memory) — the "large number of intermediate relations" of §4.
  double memory_rels = 0;
  for (const std::string& name : setup->catalog->RelationNames()) {
    if (name.rfind("LEFT", 0) == 0 || name.rfind("RIGHT", 0) == 0) {
      ++memory_rels;
    }
  }
  state.counters["memory_relations"] = memory_rels;
}

void BM_Rete_InMemory(benchmark::State& state) {
  RunRete(state, "rete", StorageKind::kMemory);
}
void BM_Rete_Relations(benchmark::State& state) {
  RunRete(state, "rete-dbms", StorageKind::kMemory);
}
void BM_Rete_RelationsPaged(benchmark::State& state) {
  RunRete(state, "rete-dbms", StorageKind::kPaged);
}

BENCHMARK(BM_Rete_InMemory);
BENCHMARK(BM_Rete_Relations);
BENCHMARK(BM_Rete_RelationsPaged);

// Growth of the LEFT/RIGHT relations with WM volume (§3.2: tuples "can
// never be deleted ... unless there is an explicit deletion").
void BM_Rete_MemoryGrowth(benchmark::State& state) {
  const size_t volume = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto setup = bench::MakeSetup(ReteSpec(), [](Catalog* c) {
      return bench::MakeMatcherByName("rete-dbms", c);
    });
    state.ResumeTiming();
    Rng rng(9);
    for (size_t i = 0; i < volume; ++i) {
      size_t cls = rng.Uniform(setup->gen.spec().num_classes);
      bench::Abort(setup->wm->Insert(setup->gen.ClassName(cls),
                                     setup->gen.RandomTuple(&rng)),
                   "insert");
    }
    auto* rete = static_cast<ReteNetwork*>(setup->matcher.get());
    state.counters["wm_tuples"] = static_cast<double>(volume);
    state.counters["tokens_resident"] =
        static_cast<double>(rete->TokenCount());
  }
}

BENCHMARK(BM_Rete_MemoryGrowth)->Arg(500)->Arg(2000)->Iterations(1);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
