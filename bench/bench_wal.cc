// WAL cost accounting (E14).
//
// Four questions the durability work raises for the performance story:
// (1) what a commit costs as a function of how much work it carries —
// group commit amortizes the log force, so batch size is the lever;
// (2) what write-ahead logging costs a paged transactional churn
// workload end-to-end versus the same workload with WAL off; (3) what
// restart recovery costs as a function of log length, since recovery
// runs on every open of an existing image; (4) whether a logged modify's
// cost stays flat as the heap outgrows the buffer pool, in memory and
// over a real file.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "storage/recovery.h"
#include "txn/transaction.h"

namespace prodb {
namespace {

CatalogOptions WalOptions(DiskManager* disk, bool wal) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 64;
  copts.disk = disk;
  copts.enable_wal = wal;
  return copts;
}

// Attaches the catalog's durability counters to the benchmark row, so
// the report shows *why* a configuration costs what it costs (bytes
// logged, forces taken, pages stolen, checkpoint work).
void ReportDurability(benchmark::State& state, Catalog* catalog) {
  DurabilityStats ds = catalog->GetDurabilityStats();
  state.counters["wal_bytes_appended"] =
      benchmark::Counter(static_cast<double>(ds.wal_bytes_appended));
  state.counters["wal_flushes"] =
      benchmark::Counter(static_cast<double>(ds.wal_flushes));
  state.counters["pages_stolen"] =
      benchmark::Counter(static_cast<double>(ds.pages_stolen));
  state.counters["checkpoints_taken"] =
      benchmark::Counter(static_cast<double>(ds.checkpoints_taken));
  state.counters["log_pages_recycled"] =
      benchmark::Counter(static_cast<double>(ds.log_pages_recycled));
}

Schema WalSchema() {
  return Schema("W", {{"a", ValueType::kInt}, {"b", ValueType::kSymbol}});
}

// One transaction of `batch` inserts per iteration, committed through
// the group-commit path: the commit's single log force carries the whole
// batch, so time/op should fall as the batch widens.
void BM_CommitBatch(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  MemoryDiskManager disk;
  Catalog catalog(WalOptions(&disk, /*wal=*/true));
  LockManager locks;
  Relation* rel = nullptr;
  bench::Abort(catalog.CreateRelation(WalSchema(), StorageKind::kPaged, &rel),
               "relation");
  TxnManager tm(&catalog, &locks);
  int64_t n = 0;
  for (auto _ : state) {
    auto txn = tm.Begin();
    for (size_t i = 0; i < batch; ++i) {
      TupleId id;
      bench::Abort(txn->Insert("W", Tuple{Value(n++), Value("payload")}, &id),
                   "insert");
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  ReportDurability(state, &catalog);
}
BENCHMARK(BM_CommitBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Transactional insert/delete churn, WAL off (arg 0) vs on (arg 1): the
// difference is the whole durability tax — record encoding, page LSN
// stamping, no-steal bookkeeping, and one log force per commit.
void BM_TxnChurn(benchmark::State& state) {
  bool wal = state.range(0) != 0;
  constexpr size_t kTxns = 64;
  constexpr size_t kOpsPerTxn = 8;
  DurabilityStats last;
  for (auto _ : state) {
    state.PauseTiming();
    MemoryDiskManager disk;
    Catalog catalog(WalOptions(&disk, wal));
    LockManager locks;
    Relation* rel = nullptr;
    bench::Abort(
        catalog.CreateRelation(WalSchema(), StorageKind::kPaged, &rel),
        "relation");
    TxnManager tm(&catalog, &locks);
    Rng rng(17);
    std::vector<TupleId> ids;
    state.ResumeTiming();
    int64_t n = 0;
    for (size_t t = 0; t < kTxns; ++t) {
      auto txn = tm.Begin();
      for (size_t i = 0; i < kOpsPerTxn; ++i) {
        if (ids.size() > 32 && rng.Chance(0.4)) {
          size_t pick = rng.Uniform(ids.size());
          bench::Abort(txn->Delete("W", ids[pick]), "delete");
          ids.erase(ids.begin() + static_cast<long>(pick));
        } else {
          TupleId id;
          bench::Abort(
              txn->Insert("W", Tuple{Value(n++), Value("payload")}, &id),
              "insert");
          ids.push_back(id);
        }
      }
      bench::Abort(tm.Commit(txn.get()), "commit");
    }
    last = catalog.GetDurabilityStats();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kTxns * kOpsPerTxn));
  state.SetLabel(wal ? "wal" : "no-wal");
  state.counters["wal_bytes_appended"] =
      benchmark::Counter(static_cast<double>(last.wal_bytes_appended));
  state.counters["wal_flushes"] =
      benchmark::Counter(static_cast<double>(last.wal_flushes));
  state.counters["pages_stolen"] =
      benchmark::Counter(static_cast<double>(last.pages_stolen));
}
BENCHMARK(BM_TxnChurn)->Arg(0)->Arg(1);

// Restart recovery over a crash image whose log holds `commits`
// committed transactions. The timed region is exactly what Catalog runs
// on open: scan, redo, truncate, flush.
void BM_Recovery(benchmark::State& state) {
  size_t commits = static_cast<size_t>(state.range(0));

  // Build the image once: commit `commits` transactions, then drop the
  // catalog (and its dirty pool) so only disk + log survive.
  MemoryDiskManager master;
  {
    Catalog catalog(WalOptions(&master, /*wal=*/true));
    LockManager locks;
    Relation* rel = nullptr;
    bench::Abort(
        catalog.CreateRelation(WalSchema(), StorageKind::kPaged, &rel),
        "relation");
    TxnManager tm(&catalog, &locks);
    int64_t n = 0;
    for (size_t t = 0; t < commits; ++t) {
      auto txn = tm.Begin();
      for (size_t i = 0; i < 4; ++i) {
        TupleId id;
        bench::Abort(
            txn->Insert("W", Tuple{Value(n++), Value("payload")}, &id),
            "insert");
      }
      bench::Abort(tm.Commit(txn.get()), "commit");
    }
  }

  char buf[kPageSize];
  for (auto _ : state) {
    state.PauseTiming();
    MemoryDiskManager img;
    for (uint32_t p = 0; p < master.PageCount(); ++p) {
      uint32_t pid;
      bench::Abort(img.AllocatePage(&pid), "alloc");
      bench::Abort(master.ReadPage(p, buf), "read");
      bench::Abort(img.WritePage(p, buf), "write");
    }
    BufferPool pool(64, &img);
    state.ResumeTiming();
    RecoveryResult rr;
    bench::Abort(RecoverLog(&pool, &rr), "recover");
    benchmark::DoNotOptimize(rr.records_redone);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(commits));
}
BENCHMARK(BM_Recovery)->Arg(16)->Arg(64)->Arg(256);

// Random modifies of a paged heap holding `live` tuples behind a
// 256-frame pool, one logged transaction (Transaction::Modify: delete,
// then insert) per modify. Choosing the insert's page must not cost
// O(pages), and the new version should land on the page its delete just
// fetched, so time, pages fetched and evictions per modify should stay
// flat from a heap inside the pool to one ~3x larger. A new version as
// large as the old one goes into the bytes its delete freed, so
// compactions per modify stay far below one.
void PagedModifyChurn(benchmark::State& state, DiskManager* disk) {
  const size_t live = static_cast<size_t>(state.range(0));
  CatalogOptions copts = WalOptions(disk, /*wal=*/true);
  copts.buffer_pool_frames = 256;
  Catalog catalog(copts);
  LockManager locks;
  Relation* rel = nullptr;
  const Schema schema("Acct", {{"id", ValueType::kInt},
                               {"branch", ValueType::kInt},
                               {"bal", ValueType::kInt}});
  bench::Abort(catalog.CreateRelation(schema, StorageKind::kPaged, &rel),
               "relation");
  TxnManager tm(&catalog, &locks);
  Rng rng(23);
  auto account = [&](size_t i) {
    return Tuple{Value(static_cast<int64_t>(i)),
                 Value(static_cast<int64_t>(rng.Uniform(64))),
                 Value(static_cast<int64_t>(rng.Uniform(10000)))};
  };
  std::vector<TupleId> ids(live);
  for (size_t i = 0; i < live;) {
    auto txn = tm.Begin();
    for (size_t end = std::min(live, i + 256); i < end; ++i) {
      bench::Abort(txn->Insert("Acct", account(i), &ids[i]), "preload");
    }
    bench::Abort(tm.Commit(txn.get()), "preload commit");
  }
  const BufferPoolStats before = catalog.buffer_pool()->stats();
  const uint64_t compactions_before = rel->compaction_count();
  for (auto _ : state) {
    const size_t pick = rng.Uniform(live);
    auto txn = tm.Begin();
    bench::Abort(txn->Modify("Acct", ids[pick], account(pick), &ids[pick]),
                 "modify");
    bench::Abort(tm.Commit(txn.get()), "commit");
    benchmark::DoNotOptimize(ids[pick]);
  }
  const BufferPoolStats& after = catalog.buffer_pool()->stats();
  const double ops = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["pages_fetched_per_op"] =
      static_cast<double>(after.hits + after.misses - before.hits -
                          before.misses) /
      ops;
  state.counters["evictions_per_op"] =
      static_cast<double>(after.evictions - before.evictions) / ops;
  state.counters["compactions_per_op"] =
      static_cast<double>(rel->compaction_count() - compactions_before) / ops;
  state.counters["heap_pages"] =
      static_cast<double>(rel->FootprintBytes() / kPageSize);
}

// Every modify adds a 4-byte dead slot (ids are never reused), so the
// heap grows for as long as a row runs; with an iteration count
// google-benchmark picks, a faster build would run more modifies over a
// larger heap. Every churn row runs the same fixed count instead.
constexpr int kChurnIterations = 100000;

void BM_PagedModifyChurn(benchmark::State& state) {
  MemoryDiskManager disk;
  PagedModifyChurn(state, &disk);
}
BENCHMARK(BM_PagedModifyChurn)
    ->Arg(1000)
    ->Arg(16000)
    ->Arg(100000)
    ->Iterations(kChurnIterations);

// The same churn over a FileDiskManager temp file: the pool's misses,
// writebacks and log forces are pread/pwrite calls into the OS page
// cache (no fsync), as on the served `durable` workload.
void BM_PagedModifyChurnFile(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("prodb_bench_wal_" + std::to_string(::getpid()) + ".db"))
          .string();
  {
    std::unique_ptr<FileDiskManager> disk;
    bench::Abort(FileDiskManager::Open(path, /*truncate=*/true, &disk),
                 "open");
    PagedModifyChurn(state, disk.get());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_PagedModifyChurnFile)->Arg(100000)->Iterations(kChurnIterations);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
