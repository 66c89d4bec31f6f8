// Ablations for the optimization claims of §3.2 / §6.
//
//  * "since multiple conditions ... may share simpler conditions, it
//    would be advantageous to build a global compiled plan" — alpha and
//    beta-prefix sharing in the Rete compiler ([SELL86]/[SELL88]).
//  * "the Rete Network implements only one possible way of processing a
//    set of conditions ... Database technology provides more efficient
//    ways of generating access plans" — the cost-based planner's join
//    order (src/plan) versus fixed LHS order.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "db/executor.h"
#include "plan/planner.h"

namespace prodb {
namespace {

// Rules generated with the same seed share identical leading CEs in
// round-robin classes, so prefix sharing has real material to merge.
WorkloadSpec SharedPrefixSpec(size_t rules) {
  WorkloadSpec spec;
  spec.num_classes = 4;
  spec.attrs_per_class = 4;
  spec.num_rules = rules;
  spec.ces_per_rule = 3;
  spec.domain = 4;  // few distinct constants: prefixes collide often
  spec.chain_join = true;
  spec.seed = 3;
  return spec;
}

void RunSharing(benchmark::State& state, const std::string& spec) {
  const size_t rules = static_cast<size_t>(state.range(0));
  auto setup = bench::MakeSetup(SharedPrefixSpec(rules), [&](Catalog* c) {
    return bench::MakeMatcherByName(spec, c);
  });
  bench::Preload(*setup, 32, 3);
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
  ReteTopology topo = rete->Topology();
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["alpha_nodes"] = static_cast<double>(topo.alpha_nodes);
  state.counters["beta_nodes"] = static_cast<double>(topo.beta_nodes);
  state.counters["right_memories"] = static_cast<double>(topo.right_memories);
  state.counters["tokens"] = static_cast<double>(rete->TokenCount());
  state.counters["aux_bytes"] =
      static_cast<double>(rete->AuxiliaryFootprintBytes());
}

void BM_Rete_Shared(benchmark::State& state) { RunSharing(state, "rete"); }
void BM_Rete_Unshared(benchmark::State& state) {
  RunSharing(state, "rete-noshare");
}

BENCHMARK(BM_Rete_Shared)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Rete_Unshared)->Arg(16)->Arg(64)->Arg(256);

// Plan reordering: a query whose LHS order is pessimal (unselective CE
// first). The planned order, chosen by JoinPlanner from catalog
// statistics, starts from the constant-bound CE.
void RunReorder(benchmark::State& state, bool reorder) {
  Catalog catalog;
  Relation* rel;
  bench::Abort(catalog.CreateRelation(
                   Schema("Big", {{"k", ValueType::kInt},
                                  {"v", ValueType::kInt}}),
                   &rel),
               "create");
  bench::Abort(catalog.CreateRelation(
                   Schema("Small", {{"k", ValueType::kInt},
                                    {"tag", ValueType::kInt}}),
                   &rel),
               "create");
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    TupleId id;
    bench::Abort(catalog.Get("Big")->Insert(
                     Tuple{Value(static_cast<int64_t>(rng.Uniform(1000))),
                           Value(i)},
                     &id),
                 "insert");
  }
  for (int i = 0; i < 50; ++i) {
    TupleId id;
    bench::Abort(catalog.Get("Small")->Insert(
                     Tuple{Value(static_cast<int64_t>(rng.Uniform(1000))),
                           Value(7)},
                     &id),
                 "insert");
  }
  // An index on the join attribute: the reordered plan binds the join
  // variable from the selective CE first and probes; the fixed LHS plan
  // enumerates Big before anything is bound.
  bench::Abort(catalog.Get("Big")->CreateHashIndex(0), "index");
  // LHS order: Big first (pessimal), then the selective Small CE.
  ConjunctiveQuery q;
  ConditionSpec big;
  big.relation = "Big";
  big.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec small;
  small.relation = "Small";
  small.constant_tests.push_back(ConstantTest{1, CompareOp::kEq, Value(7)});
  small.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  q.conditions = {big, small};
  q.num_vars = 1;

  CatalogStats stats;
  stats.Register("Big", catalog.Get("Big"));
  stats.Register("Small", catalog.Get("Small"));
  PlannerOptions po;
  po.enable = true;
  const JoinPlan plan = JoinPlanner(&stats, po).Plan(q);
  if (reorder && !plan.planned) {
    bench::Abort(Status::Internal("planner kept the LHS order"), "plan");
  }

  Executor exec(&catalog);
  for (auto _ : state) {
    std::vector<QueryMatch> matches;
    bench::Abort(exec.Evaluate(q, &matches, reorder ? &plan.order : nullptr),
                 "evaluate");
    benchmark::DoNotOptimize(matches.size());
  }
}

void BM_Plan_LhsOrder(benchmark::State& state) { RunReorder(state, false); }
void BM_Plan_Reordered(benchmark::State& state) { RunReorder(state, true); }

BENCHMARK(BM_Plan_LhsOrder);
BENCHMARK(BM_Plan_Reordered);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
