// The benchmark's own tests: seeded request streams are reproducible, every
// output check rejects a perturbed state, and the in-process replay walks
// the live server's path (equal conflict-delta digests).
//
// Run through `python3 perfbench/run.py --self-test` (working directory
// .bench_build/run; the server binary path is compiled in).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "live.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Standing WM shrunk 16x so the whole suite runs in seconds.
constexpr uint32_t kScale = 16;
constexpr int kRequests = 24;

class PerWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override {
    for (const std::string& path : files_) std::filesystem::remove(path);
  }
  /// A fresh file path, removed when the test ends.
  std::string File(const std::string& tag) {
    files_.push_back("perfbench_test_" + GetParam() + "_" + tag);
    std::filesystem::remove(files_.back());
    return files_.back();
  }

 private:
  std::vector<std::string> files_;
};

/// Preloads and replays kRequests requests in-process.
struct Replayed {
  std::unique_ptr<Workload> w;
  std::unique_ptr<ReplayServer> server;
  Digest digest;
  std::string request_bytes;  // every EncodeBatch payload sent
};

void Replay(const std::string& name, uint64_t seed, const std::string& db,
            Replayed* r) {
  r->w = MakeWorkload(name, seed, kScale);
  ASSERT_NE(r->w, nullptr);
  r->server = std::make_unique<ReplayServer>(*r->w, db);
  ASSERT_TRUE(r->server->Start().ok());
  ASSERT_TRUE(Preload(r->w.get(), r->server.get(), &r->digest).ok());
  for (int i = 0; i < kRequests; ++i) {
    Request req = r->w->NextRequest();
    for (const Step& step : req.steps) {
      if (step.kind != Step::kBatch) continue;
      std::string payload;
      net::EncodeBatch(step.batch, &payload);
      r->request_bytes += payload;
    }
    Outcome o = Execute(r->w.get(), r->server.get(), req, &r->digest);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
  }
}

std::map<std::string, net::WireDumpReply> FinalDumps(Replayed* r) {
  std::map<std::string, net::WireDumpReply> dumps;
  for (const std::string& cls : r->w->FinalDumpClasses()) {
    EXPECT_TRUE(r->server->Dump(cls, &dumps[cls]).ok());
  }
  return dumps;
}

TEST_P(PerWorkload, SameSeedSameRequestStream) {
  Replayed a, b, c;
  Replay(GetParam(), 7, File("a.db"), &a);
  Replay(GetParam(), 7, File("b.db"), &b);
  Replay(GetParam(), 8, File("c.db"), &c);
  ASSERT_FALSE(a.request_bytes.empty());
  EXPECT_EQ(a.request_bytes, b.request_bytes);
  EXPECT_NE(a.request_bytes, c.request_bytes);
  EXPECT_EQ(a.digest.value(), b.digest.value());
}

TEST_P(PerWorkload, FinalCheckPassesAndRejectsPerturbedState) {
  Replayed r;
  Replay(GetParam(), 3, File("check.db"), &r);
  std::map<std::string, net::WireDumpReply> dumps = FinalDumps(&r);
  ASSERT_TRUE(r.w->CheckFinal(dumps).ok());

  // A changed tuple in any dumped class fails the check.
  for (auto& [cls, dump] : dumps) {
    if (dump.tuples.empty()) continue;
    auto bad = dumps;
    Tuple& t = bad[cls].tuples.back().second;
    t[t.arity() - 1] = prodb::Value(t[t.arity() - 1].as_int() + 1);
    EXPECT_FALSE(r.w->CheckFinal(bad).ok()) << cls;
    bad = dumps;
    bad[cls].tuples.pop_back();
    EXPECT_FALSE(r.w->CheckFinal(bad).ok()) << cls;
  }
  // A conflict set that lost an instantiation fails the check.
  if (!r.w->tracker().live().empty()) {
    r.w->tracker().Erase(r.w->tracker().live().begin()->first);
    EXPECT_FALSE(r.w->CheckFinal(dumps).ok());
  }
}

TEST_P(PerWorkload, ReplayDigestEqualsLiveDigest) {
  const std::string name = GetParam();
  std::unique_ptr<Workload> w = MakeWorkload(name, 11, kScale);
  const std::string rules = File("program.ops");
  {
    std::ofstream out(rules);
    out << w->Program();
  }
  const std::string db = File("live.db");
  ServerProcess server;
  ASSERT_TRUE(server.Spawn(PRODB_SERVER_BIN, ServerArgs(*w, rules, db)).ok());
  LiveExecutor live;
  ASSERT_TRUE(live.Connect(server.port()).ok());
  Digest live_digest;
  ASSERT_TRUE(Preload(w.get(), &live, &live_digest).ok());
  for (int i = 0; i < kRequests; ++i) {
    Outcome o = Execute(w.get(), &live, w->NextRequest(), &live_digest);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
  }
  EXPECT_TRUE(CheckFinal(w.get(), &live).ok());
  server.Kill();

  Replayed r;
  Replay(name, 11, File("replay.db"), &r);
  EXPECT_EQ(r.digest.value(), live_digest.value());
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) { return info.param; });

TEST(FireChecks, RejectWrongRunResultsAndSurvivingJobs) {
  std::unique_ptr<Workload> w = MakeWorkload("fire", 1, kScale);
  Request req = w->NextRequest();
  const Step& run = req.steps[1];
  ASSERT_EQ(run.kind, Step::kRun);
  net::WireRunResult r;
  r.firings = 512;
  EXPECT_TRUE(w->OnRun(run, r).ok());
  r.firings = 511;
  EXPECT_FALSE(w->OnRun(run, r).ok());
  r.firings = 512;
  r.halted = true;
  EXPECT_FALSE(w->OnRun(run, r).ok());

  const Step& dump = req.steps.back();
  ASSERT_EQ(dump.kind, Step::kDump);
  net::WireDumpReply jobs;
  EXPECT_TRUE(w->OnDump(dump, jobs).ok());
  jobs.tuples.emplace_back(TupleId{1, 0}, Tuple{prodb::Value(1)});
  EXPECT_FALSE(w->OnDump(dump, jobs).ok());
}

TEST(DurableChecks, RejectNonDurableAck) {
  std::unique_ptr<Workload> w = MakeWorkload("durable", 1, kScale);
  net::WireBatch batch;
  ASSERT_TRUE(w->NextPreload(&batch));
  net::WireBatchAck ack;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    ack.insert_ids.push_back(TupleId{static_cast<uint32_t>(i), 0});
  }
  EXPECT_FALSE(w->OnPreloadAck(batch, ack).ok());
}

TEST(ConflictTrackerTest, RejectsInconsistentDeltas) {
  ConflictTracker t;
  net::WireConflictDelta add{true, "r", "0|1.0"};
  net::WireConflictDelta remove{false, "", "0|1.0"};
  EXPECT_TRUE(t.Apply({add}).ok());
  EXPECT_FALSE(t.Apply({add}).ok());
  EXPECT_TRUE(t.Apply({remove}).ok());
  EXPECT_FALSE(t.Apply({remove}).ok());
}

}  // namespace
}  // namespace perfbench
