// Checkpoint economics (E15).
//
// Three claims the fuzzy-checkpoint + log-truncation work must support:
// (1) restart time after a crash is bounded by the checkpoint interval,
// not by total history — without checkpoints recovery replays the whole
// log, with them it replays a constant-size suffix; (2) a checkpoint
// itself is cheap (a bounded page write-back, one record, one anchor
// rewrite) so it can run frequently; (3) steal lets one transaction's
// write set exceed the buffer pool, which the old no-steal design
// rejected outright.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "storage/recovery.h"
#include "txn/transaction.h"

namespace prodb {
namespace {

CatalogOptions CkptOptions(DiskManager* disk, size_t frames = 16) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = frames;
  copts.disk = disk;
  copts.enable_wal = true;
  return copts;
}

Schema CkptSchema() {
  return Schema("C", {{"a", ValueType::kInt}, {"b", ValueType::kSymbol}});
}

// Runs `rounds` update-churn transactions over a small row set,
// checkpointing every 8 commits when `checkpoint` is set. Returns the
// disk so the caller can measure what a restart over it costs.
void Churn(Catalog* catalog, size_t rounds, bool checkpoint) {
  LockManager locks;
  Relation* rel = nullptr;
  bench::Abort(
      catalog->CreateRelation(CkptSchema(), StorageKind::kPaged, &rel),
      "relation");
  TxnManager tm(catalog, &locks);
  std::vector<TupleId> ids;
  {
    auto txn = tm.Begin();
    for (int i = 0; i < 16; ++i) {
      TupleId id;
      bench::Abort(txn->Insert("C",
                               Tuple{Value(static_cast<int64_t>(i)),
                                     Value(std::string(64, 's'))},
                               &id),
                   "seed");
      ids.push_back(id);
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
  }
  for (size_t r = 0; r < rounds; ++r) {
    auto txn = tm.Begin();
    for (size_t i = 0; i < ids.size(); ++i) {
      TupleId moved;
      bench::Abort(txn->Modify("C", ids[i],
                               Tuple{Value(static_cast<int64_t>(r)),
                                     Value(std::string(64, 'u'))},
                               &moved),
                   "update");
      ids[i] = moved;
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
    if (checkpoint && r % 8 == 7) {
      bench::Abort(catalog->Checkpoint(), "checkpoint");
    }
  }
}

// Restart recovery over a crash image after `rounds` of churn, with and
// without periodic checkpoints. Without them, time/op grows linearly in
// `rounds`; with them it stays flat — the E15 headline.
void BM_RestartAfterChurn(benchmark::State& state) {
  size_t rounds = static_cast<size_t>(state.range(0));
  bool checkpoint = state.range(1) != 0;

  MemoryDiskManager master;
  {
    Catalog catalog(CkptOptions(&master));
    Churn(&catalog, rounds, checkpoint);
    // Catalog (and dirty pool) die here: the crash image is the disk.
  }

  char buf[kPageSize];
  uint64_t redone = 0;
  uint64_t log_pages = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MemoryDiskManager img;
    for (uint32_t p = 0; p < master.PageCount(); ++p) {
      uint32_t pid;
      bench::Abort(img.AllocatePage(&pid), "alloc");
      bench::Abort(master.ReadPage(p, buf), "read");
      bench::Abort(img.WritePage(p, buf), "write");
    }
    BufferPool pool(16, &img);
    state.ResumeTiming();
    RecoveryResult rr;
    bench::Abort(RecoverLog(&pool, &rr), "recover");
    benchmark::DoNotOptimize(rr.records_redone);
    redone = rr.records_redone;
    log_pages = rr.log_pages.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rounds));
  state.SetLabel(checkpoint ? "ckpt" : "no-ckpt");
  state.counters["records_redone"] =
      benchmark::Counter(static_cast<double>(redone));
  state.counters["live_log_pages"] =
      benchmark::Counter(static_cast<double>(log_pages));
}
BENCHMARK(BM_RestartAfterChurn)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// Cost of one Checkpoint() call while the engine churns: write back the
// aged dirty pages, append + force one record, rewrite the anchor,
// recycle dead log pages.
void BM_CheckpointCall(benchmark::State& state) {
  MemoryDiskManager disk;
  Catalog catalog(CkptOptions(&disk));
  LockManager locks;
  Relation* rel = nullptr;
  bench::Abort(
      catalog.CreateRelation(CkptSchema(), StorageKind::kPaged, &rel),
      "relation");
  TxnManager tm(&catalog, &locks);
  std::vector<TupleId> ids;
  {
    auto txn = tm.Begin();
    for (int i = 0; i < 16; ++i) {
      TupleId id;
      bench::Abort(txn->Insert("C",
                               Tuple{Value(static_cast<int64_t>(i)),
                                     Value(std::string(64, 's'))},
                               &id),
                   "seed");
      ids.push_back(id);
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
  }
  int64_t r = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto txn = tm.Begin();
    for (size_t i = 0; i < ids.size(); ++i) {
      TupleId moved;
      bench::Abort(txn->Modify("C", ids[i],
                               Tuple{Value(r), Value(std::string(64, 'u'))},
                               &moved),
                   "update");
      ids[i] = moved;
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
    ++r;
    state.ResumeTiming();
    bench::Abort(catalog.Checkpoint(), "checkpoint");
  }
  DurabilityStats ds = catalog.GetDurabilityStats();
  state.counters["log_pages_recycled"] =
      benchmark::Counter(static_cast<double>(ds.log_pages_recycled));
  state.counters["live_log_pages"] =
      benchmark::Counter(static_cast<double>(ds.wal_live_pages));
}
BENCHMARK(BM_CheckpointCall);

// One transaction inserting `n` tuples through a 16-frame pool: past a
// few dozen tuples the write set exceeds the pool and commits only
// because eviction steals dirty pages (the no-steal design aborted
// here). Cost should stay linear in `n` across the capacity boundary.
void BM_BigTxnCommit(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint64_t stolen = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MemoryDiskManager disk;
    Catalog catalog(CkptOptions(&disk));
    LockManager locks;
    Relation* rel = nullptr;
    bench::Abort(
        catalog.CreateRelation(CkptSchema(), StorageKind::kPaged, &rel),
        "relation");
    TxnManager tm(&catalog, &locks);
    state.ResumeTiming();
    auto txn = tm.Begin();
    for (size_t i = 0; i < n; ++i) {
      TupleId id;
      bench::Abort(txn->Insert("C",
                               Tuple{Value(static_cast<int64_t>(i)),
                                     Value(std::string(120, 'b'))},
                               &id),
                   "insert");
    }
    bench::Abort(tm.Commit(txn.get()), "commit");
    state.PauseTiming();
    stolen = catalog.GetDurabilityStats().pages_stolen;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["pages_stolen"] =
      benchmark::Counter(static_cast<double>(stolen));
}
BENCHMARK(BM_BigTxnCommit)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
