// E6 — Concurrent versus sequential execution of the conflict set (§5).
//
// Paper claim: "concurrent execution strategies which surpass, in terms
// of performance, the sequential OPS5 execution algorithm"; "in the best
// case ... proportional to the maximum number of updates to any WM
// relation" (§5.2). Each instantiation here carries a small CPU cost (a
// registered `call`), which is where worker parallelism pays off. The
// CPU-bound rows run the serving benchmark's `fire` program, whose
// firings never wait, to price concurrency where it has nothing to
// overlap. The lock-path rows price §5's 2PL wrapper around one
// transaction's writes.

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "engine/concurrent_engine.h"
#include "engine/sequential_engine.h"
#include "lang/analyzer.h"
#include "match/query_matcher.h"
#include "rete/network.h"

namespace prodb {
namespace {

constexpr char kProgram[] = R"(
(literalize Work id payload)
(literalize Done id)
(p consume (Work ^id <x> ^payload <p>) -->
  (remove 1) (call crunch <p>) (make Done ^id <x>))
)";

// Simulated per-instantiation RHS work. The dominant cost the paper's
// setting implies is I/O: selecting the matched tuples from secondary
// storage and writing the RHS changes back. We model it as a short
// blocking wait (a page-fetch latency), which concurrent transactions
// overlap — the §5 win — even on a single CPU; plus a pinch of CPU work.
Status Crunch(const std::vector<Value>& args) {
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  volatile uint64_t acc = static_cast<uint64_t>(args[0].as_int());
  for (int i = 0; i < 2000; ++i) acc = acc * 6364136223846793005ULL + 1;
  benchmark::DoNotOptimize(acc);
  return Status::OK();
}

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

void BM_Sequential(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Catalog catalog;
    std::vector<Rule> rules;
    Check(LoadProgram(kProgram, &catalog, &rules));
    QueryMatcher matcher(&catalog);
    for (const Rule& r : rules) Check(matcher.AddRule(r));
    SequentialEngine engine(&catalog, &matcher);
    engine.functions().Register("crunch", Crunch);
    for (int i = 0; i < items; ++i) {
      Check(engine.Insert("Work", Tuple{Value(i), Value(i * 7)}));
    }
    state.ResumeTiming();
    EngineRunResult result;
    Check(engine.Run(&result));
    if (result.firings != static_cast<size_t>(items)) std::abort();
  }
  state.counters["items"] = static_cast<double>(items);
}

void BM_Concurrent(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  const size_t workers = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Catalog catalog;
    std::vector<Rule> rules;
    Check(LoadProgram(kProgram, &catalog, &rules));
    QueryMatcher matcher(&catalog);
    for (const Rule& r : rules) Check(matcher.AddRule(r));
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = workers;
    ConcurrentEngine engine(&catalog, &matcher, &locks, opts);
    engine.functions().Register("crunch", Crunch);
    for (int i = 0; i < items; ++i) {
      Check(engine.Insert("Work", Tuple{Value(i), Value(i * 7)}));
    }
    state.ResumeTiming();
    ConcurrentRunResult result;
    Check(engine.Run(&result));
    if (result.firings != static_cast<size_t>(items)) std::abort();
    state.counters["deadlock_aborts"] +=
        static_cast<double>(result.deadlock_aborts);
  }
  state.counters["items"] = static_cast<double>(items);
  state.counters["workers"] = static_cast<double>(workers);
}

BENCHMARK(BM_Sequential)->Arg(128)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Concurrent)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Worst case of §5.2: every instantiation updates the same WM tuples —
// concurrency degenerates to serial plus locking overhead.
void BM_ConcurrentContended(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  const char* program = R"(
(literalize Counter id n)
(p bump (Counter ^id hot ^n <x>) -(Counter ^id stop) --> (remove 1))
)";
  for (auto _ : state) {
    state.PauseTiming();
    Catalog catalog;
    std::vector<Rule> rules;
    Check(LoadProgram(program, &catalog, &rules));
    QueryMatcher matcher(&catalog);
    for (const Rule& r : rules) Check(matcher.AddRule(r));
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = workers;
    ConcurrentEngine engine(&catalog, &matcher, &locks, opts);
    for (int i = 0; i < 64; ++i) {
      Check(engine.Insert("Counter", Tuple{Value("hot"), Value(i)}));
    }
    state.ResumeTiming();
    ConcurrentRunResult result;
    Check(engine.Run(&result));
  }
  state.counters["workers"] = static_cast<double>(workers);
}

BENCHMARK(BM_ConcurrentContended)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The CPU-bound case: `fire`'s program (perfbench/src/workloads.cc).
// Each Job passes three Station stages by modify and is then removed,
// so one Job is four firings, none of which waits. Stations are loaded
// once; every iteration adds one batch of Jobs and times the run that
// drains them. Reported as µs per firing. Each run leaves the Jobs' old
// versions behind as dead heap slots, so the iteration count is fixed:
// every row does the same runs on the same growing heap.
constexpr int64_t kStationKinds = 4096;
constexpr int64_t kStages = 3;
constexpr int kJobsPerRun = 128;

std::string CpuBoundProgram() {
  std::string p =
      "(literalize Job id kind stage)\n"
      "(literalize Station kind stage)\n";
  for (int64_t s = 0; s < kStages; ++s) {
    const std::string stage = std::to_string(s);
    p += "(p s" + stage + " (Job ^id <j> ^kind <k> ^stage " + stage +
         ") (Station ^kind <k> ^stage " + stage + ") --> (modify 1 ^stage " +
         std::to_string(s + 1) + "))\n";
  }
  p += "(p done (Job ^stage " + std::to_string(kStages) +
       ") --> (remove 1))\n";
  return p;
}

template <typename Result, typename Engine>
void RunCpuBound(benchmark::State& state, Engine* engine) {
  WorkingMemory& wm = engine->working_memory();
  wm.BeginBatch();
  for (int64_t kind = 0; kind < kStationKinds; ++kind) {
    for (int64_t s = 0; s < kStages; ++s) {
      Check(wm.Insert("Station", Tuple{Value(kind), Value(s)}));
    }
  }
  Check(wm.CommitBatch());
  Rng rng(7);
  int64_t next_job = 0;
  double run_us = 0;
  size_t firings = 0;
  for (auto _ : state) {
    wm.BeginBatch();
    for (int i = 0; i < kJobsPerRun; ++i) {
      const auto kind = static_cast<int64_t>(rng.Uniform(kStationKinds));
      Check(wm.Insert("Job", Tuple{Value(next_job++), Value(kind), Value(0)}));
    }
    Check(wm.CommitBatch());
    const auto start = std::chrono::steady_clock::now();
    Result result;
    Check(engine->Run(&result));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (result.firings != static_cast<size_t>(kJobsPerRun * (kStages + 1))) {
      std::abort();
    }
    state.SetIterationTime(elapsed.count());
    run_us += elapsed.count() * 1e6;
    firings += result.firings;
  }
  state.counters["us_per_firing"] = run_us / static_cast<double>(firings);
}

void BM_SequentialCpuBound(benchmark::State& state) {
  Catalog catalog;
  std::vector<Rule> rules;
  Check(LoadProgram(CpuBoundProgram(), &catalog, &rules));
  ReteNetwork matcher(&catalog);
  for (const Rule& r : rules) Check(matcher.AddRule(r));
  SequentialEngine engine(&catalog, &matcher);
  RunCpuBound<EngineRunResult>(state, &engine);
}

void BM_ConcurrentCpuBound(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  Catalog catalog;
  std::vector<Rule> rules;
  Check(LoadProgram(CpuBoundProgram(), &catalog, &rules));
  ReteNetwork matcher(&catalog);
  for (const Rule& r : rules) Check(matcher.AddRule(r));
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = workers;
  ConcurrentEngine engine(&catalog, &matcher, &locks, opts);
  RunCpuBound<ConcurrentRunResult>(state, &engine);
  state.counters["workers"] = static_cast<double>(workers);
}

constexpr int kCpuBoundRuns = 64;

BENCHMARK(BM_SequentialCpuBound)
    ->Iterations(kCpuBoundRuns)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConcurrentCpuBound)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(kCpuBoundRuns)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The 2PL lock path of one acked batch, on the shape of the serving
// benchmark's `ingest` request: one transaction makes 16 readings and
// removes the 16 oldest of a 65,536-tuple memory relation, then commits
// (no WAL, no matcher). `others` more transactions stay open throughout,
// each holding read locks on 32 tuples the churn never touches, so the
// lock table is larger by their locks; the transaction's own cost,
// release included, should not grow with them. Reported as µs per
// transaction, with the commit (lock release) alone as `commit_us`.
void BM_LockPath(benchmark::State& state) {
  const int others = static_cast<int>(state.range(0));
  constexpr int kWindow = 65536;
  constexpr int kOpsPerSide = 16;
  constexpr int kHeldPerOther = 32;
  Catalog catalog;
  Relation* rel = nullptr;
  Check(catalog.CreateRelation(Schema("Reading", {{"sensor", ValueType::kInt},
                                                  {"kind", ValueType::kInt},
                                                  {"val", ValueType::kInt}}),
                               &rel));
  int64_t next = 0;
  auto reading = [&next] {
    const int64_t n = next++;
    return Tuple{Value(n), Value(n % 32), Value(n % 1000)};
  };
  std::deque<TupleId> window;
  for (int i = 0; i < kWindow; ++i) {
    TupleId id;
    Check(rel->Insert(reading(), &id));
    window.push_back(id);
  }
  LockManager locks;
  TxnManager txns(&catalog, &locks);
  std::vector<std::unique_ptr<Transaction>> open;
  for (int t = 0; t < others; ++t) {
    open.push_back(txns.Begin());
    for (int i = 0; i < kHeldPerOther; ++i) {
      TupleId id;
      Check(rel->Insert(reading(), &id));
      Check(open.back()->ReadLock("Reading", id));
    }
  }
  double commit_us = 0;
  for (auto _ : state) {
    auto txn = txns.Begin();
    for (int i = 0; i < kOpsPerSide; ++i) {
      TupleId id;
      Check(txn->Insert("Reading", reading(), &id));
      window.push_back(id);
    }
    for (int i = 0; i < kOpsPerSide; ++i) {
      Check(txn->Delete("Reading", window.front()));
      window.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    Check(txns.Commit(txn.get()));
    const std::chrono::duration<double, std::micro> commit =
        std::chrono::steady_clock::now() - start;
    commit_us += commit.count();
  }
  for (auto& txn : open) Check(txns.Commit(txn.get()));
  if (locks.LockedResourceCount() != 0) std::abort();
  state.counters["others"] = static_cast<double>(others);
  state.counters["commit_us"] =
      commit_us / static_cast<double>(state.iterations());
}

BENCHMARK(BM_LockPath)->Arg(0)->Arg(64)->Unit(benchmark::kMicrosecond);

// The Select step alone: drain `pending` instantiations of a rule whose
// RHS only retracts its own tuple, so a firing is Take + one Rete delete.
// The pending sets run well past the 128 a serving `fire` cycle holds;
// FIFO and recency read an end of the recency list and should cost the
// same per firing at every size; priority walks the set, and random
// walks the key-order index to its pick.
void BM_SequentialSelection(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  const auto strategy = static_cast<StrategyKind>(state.range(1));
  constexpr char kDrain[] = R"(
(literalize Work id)
(p drain (Work ^id <x>) --> (remove 1))
)";
  double run_us = 0;
  size_t firings = 0;
  for (auto _ : state) {
    Catalog catalog;
    std::vector<Rule> rules;
    Check(LoadProgram(kDrain, &catalog, &rules));
    ReteNetwork matcher(&catalog);
    for (const Rule& r : rules) Check(matcher.AddRule(r));
    SequentialEngineOptions opts;
    opts.strategy = strategy;
    SequentialEngine engine(&catalog, &matcher, opts);
    for (int i = 0; i < pending; ++i) {
      Check(engine.Insert("Work", Tuple{Value(i)}));
    }
    const auto start = std::chrono::steady_clock::now();
    EngineRunResult result;
    Check(engine.Run(&result));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (result.firings != static_cast<size_t>(pending)) std::abort();
    state.SetIterationTime(elapsed.count());
    run_us += elapsed.count() * 1e6;
    firings += result.firings;
  }
  state.SetLabel(StrategyName(strategy));
  state.counters["pending"] = static_cast<double>(pending);
  state.counters["us_per_firing"] = run_us / static_cast<double>(firings);
}

BENCHMARK(BM_SequentialSelection)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (StrategyKind kind :
           {StrategyKind::kFifo, StrategyKind::kRecency,
            StrategyKind::kPriority, StrategyKind::kRandom}) {
        for (int pending : {64, 256, 1024, 4096}) {
          b->Args({pending, static_cast<int>(kind)});
        }
      }
    })
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
