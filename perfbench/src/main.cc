// perfbench — serving benchmark for prodb_server.
//
//   perfbench --workload ingest|join|durable|fire --seed N --seconds S
//             --trace 0|1 --run-dir DIR [--meta key=value ...]
//
// --trace 0 spawns the real server, drives one closed-loop client through
// S seconds' worth of requests after a warm-up, checks the server's final
// state and prints the end-to-end metrics. Spare servers are set up
// between slices of the timed phase (setup_s is the median); `durable`
// also times crash-restarts (recovery_s) and is checked after one.
// --trace 1 drives the live server once, with a quarter of the requests,
// then replays the identical request stream in-process through each
// layer's public calls with spans, interleaved with an untraced replay,
// and prints the per-layer metrics. Both replays' conflict-delta digests
// must equal the live server's.
//
// Every run ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. The exit code is non-zero when an output check fails.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "closed_loop.h"
#include "live.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string run_dir = ".";
  std::vector<std::pair<std::string, std::string>> meta;
};

// Shape of a run. The timed phase follows an untimed warm-up of one
// second's requests and is cut into slices; set-up is repeated between the
// slices so setup_s is a median; durable's recovery_s is the median of
// several crash-restarts.
constexpr uint64_t kSlices = 10;
constexpr int kRestarts = 3;
constexpr double kWarmupSeconds = 1.0;
// A phase that takes this many times its nominal length is cut short, so
// a much slower server still ends within the run's time limit.
constexpr double kMaxStretch = 4.0;
constexpr int kPings = 2000;
constexpr size_t kReplayChunk = 32;

const char* const kFlushPolicy =
    "one WAL force per durable ack: std::fstream write + flush = write(2) "
    "into the OS page cache, no fsync; latencies are page-cache numbers";

std::string Num(double v) {
  // A failed request's latency is +inf; JSON has no infinity.
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  if (std::isnan(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile; failed requests sit at +inf.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string FsType(const std::string& path) {
  struct statfs s;
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
}

/// The metric lines, then the result line the gate reads.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  PrintMetrics(metrics);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintMeta(const Args& a, const Workload& w,
               const std::vector<std::string>& server_args) {
  std::string json = "{";
  auto add = [&](const std::string& k, const std::string& v) {
    if (json.size() > 1) json += ", ";
    json += Quote(k) + ": " + v;
  };
  for (const auto& [k, v] : a.meta) add(k, Quote(v));
  add("build_type", Quote(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  add("ndebug", "true");
#else
  add("ndebug", "false");
#endif
  add("compiler", Quote(PERFBENCH_COMPILER));
  add("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  add("workload", Quote(a.workload));
  add("seed", std::to_string(a.seed));
  add("seconds", Num(a.seconds));
  add("trace", std::to_string(a.trace));
  std::string sizes = "{";
  for (const auto& [k, v] : w.Sizes()) {
    if (sizes.size() > 1) sizes += ", ";
    sizes += Quote(k) + ": " + std::to_string(v);
  }
  add("sizes", sizes + "}");
  add("requests_per_second", std::to_string(w.requests_per_second()));
  std::string flags = "[";
  for (const std::string& f : server_args) {
    if (flags.size() > 1) flags += ", ";
    flags += Quote(f);
  }
  add("server_flags", flags + "]");
  add("client", Quote("one closed-loop RuleClient over TCP loopback"));
  add("db_filesystem", Quote(w.durable() ? FsType(a.run_dir) : "none"));
  add("flush_policy", Quote(w.durable() ? kFlushPolicy : "no WAL"));
  std::printf("META %s}\n", json.c_str());
}

// ---------------------------------------------------------------------------
// Live run

struct LiveRun {
  std::vector<double> setup_s;
  std::vector<double> latencies_us;  // timed requests; failed = +inf
  std::vector<double> slice_rates;  // ops/s per slice of the timed phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t requests = 0;  // sent after preload, warm-up included
  uint64_t planned = 0;   // timed requests the run was to send
  uint64_t timed_ops = 0;
  double timed_wall = 0;
  double cpu_us = 0;
  double rss_mb = 0;
  double disk_mb = 0;
  std::vector<double> recovery_s;
  double restart_after_run_s = 0;  // durable: the verification restart
  std::vector<double> ping_us;
  uint64_t frames_rejected = 0;
  uint64_t deadlock_retries = 0;
  uint64_t digest = 0;
  std::string error;  // first failure; empty when every check passed
};

class Live {
 public:
  Live(const Args& a, bool traced) : a_(a), traced_(traced) {
    db_ = a.run_dir + "/" + a.workload + ".db";
    spare_db_ = a.run_dir + "/" + a.workload + "-spare.db";
    rules_ = a.run_dir + "/" + a.workload + ".ops";
  }

  /// A non-OK status means the run could not be carried out at all.
  Status Run(LiveRun* out) {
    std::unique_ptr<Workload> w = MakeWorkload(a_.workload, a_.seed);
    {
      std::ofstream rules(rules_);
      rules << w->Program();
      if (!rules) return Status::IOError("cannot write " + rules_);
    }
    PrintMeta(a_, *w, ServerArgs(*w, rules_, db_));

    // Crash-restarts over the standing WM alone, on a spare server, so
    // recovery_s covers the same history on every run however fast the
    // timed phase goes, and the timed phase runs on a server that never
    // crashed.
    if (w->durable() && !traced_) {
      PRODB_RETURN_IF_ERROR(SpareSetUp(kRestarts, out));
    }
    Digest digest;
    PRODB_RETURN_IF_ERROR(SetUp(db_, w.get(), &server_, &ex_, &digest, out));

    const double rate = static_cast<double>(w->requests_per_second());
    Loop(w.get(), &digest, std::llround(rate * kWarmupSeconds),
         kWarmupSeconds, /*timed=*/false, out);
    if (!out->error.empty()) return Finish(out);
    net::WireStatsReply stats0, stats1;
    PRODB_RETURN_IF_ERROR(ex_.client().GetStats(&stats0));
    const double cpu0 = server_.CpuMicros();
    // A traced run only needs a stream to replay; a quarter of the
    // requests keeps its two replays about as long as an untraced run.
    const double seconds = traced_ ? a_.seconds / 4 : a_.seconds;
    out->planned = std::max<uint64_t>(1, std::llround(rate * seconds));
    for (uint64_t i = 0; i < kSlices && out->error.empty(); ++i) {
      // The other set-up samples fall between the slices, on a spare
      // server, so setup_s sees the host over the whole run rather than
      // over a second of it. The timed server sits idle meanwhile.
      if (i > 0 && !traced_) PRODB_RETURN_IF_ERROR(SpareSetUp(0, out));
      Loop(w.get(), &digest,
           out->planned * (i + 1) / kSlices - out->planned * i / kSlices,
           seconds / kSlices, /*timed=*/true, out);
    }
    out->cpu_us = server_.CpuMicros() - cpu0;
    out->rss_mb = server_.PeakRssMb();
    if (!out->error.empty()) return Finish(out);
    PRODB_RETURN_IF_ERROR(ex_.client().GetStats(&stats1));
    out->frames_rejected = StatValue(stats1, "frames_rejected") -
                           StatValue(stats0, "frames_rejected");
    out->deadlock_retries = StatValue(stats1, "deadlock_retries") -
                            StatValue(stats0, "deadlock_retries");
    out->digest = digest.value();
    if (traced_) {
      for (int i = 0; i < kPings; ++i) {
        const double t = NowSeconds();
        PRODB_RETURN_IF_ERROR(ex_.client().Ping());
        out->ping_us.push_back((NowSeconds() - t) * 1e6);
      }
    }
    if (w->durable()) {
      std::error_code ec;
      out->disk_mb = static_cast<double>(std::filesystem::file_size(db_, ec)) /
                     (1024.0 * 1024.0);
    }

    // Output checks. A durable server is checked after a crash-restart:
    // every acked modify must be back. A volatile one is checked live.
    if (w->durable() && !traced_) {
      PRODB_RETURN_IF_ERROR(Restart(*w, db_, &server_, &ex_,
                                    &out->restart_after_run_s));
    }
    Check(w.get(), out);
    return Finish(out);
  }

 private:
  /// Spawns a server on `db` and sends it the standing WM: one setup_s
  /// sample.
  Status SetUp(const std::string& db, Workload* w, ServerProcess* server,
               LiveExecutor* ex, Digest* digest, LiveRun* out) {
    std::filesystem::remove(db);
    const double t0 = NowSeconds();
    PRODB_RETURN_IF_ERROR(
        server->Spawn(PRODB_SERVER_BIN, ServerArgs(*w, rules_, db)));
    PRODB_RETURN_IF_ERROR(ex->Connect(server->port()));
    PRODB_RETURN_IF_ERROR(Preload(w, ex, digest));
    out->setup_s.push_back(NowSeconds() - t0);
    return Status::OK();
  }

  /// A set-up sample on a server of its own, which then takes `restarts`
  /// timed crash-restarts (recovery_s) and is stopped.
  Status SpareSetUp(int restarts, LiveRun* out) {
    std::unique_ptr<Workload> w = MakeWorkload(a_.workload, a_.seed);
    ServerProcess server;
    LiveExecutor ex;
    Digest digest;
    PRODB_RETURN_IF_ERROR(
        SetUp(spare_db_, w.get(), &server, &ex, &digest, out));
    for (int r = 0; r < restarts; ++r) {
      out->recovery_s.push_back(0);
      PRODB_RETURN_IF_ERROR(
          Restart(*w, spare_db_, &server, &ex, &out->recovery_s.back()));
    }
    server.Kill();
    std::filesystem::remove(spare_db_);
    return Status::OK();
  }

  /// Stops the server. A failed request or check fails the whole run:
  /// every request counts as failed, and no later step runs.
  Status Finish(LiveRun* out) {
    if (!out->error.empty()) out->failed = out->attempted;
    server_.Kill();
    std::filesystem::remove(db_);
    return Status::OK();
  }

  /// SIGKILL, restart with --open_existing on `db`, and time until the
  /// new server answers a ping.
  Status Restart(const Workload& w, const std::string& db,
                 ServerProcess* server, LiveExecutor* ex, double* seconds) {
    std::vector<std::string> args = ServerArgs(w, rules_, db);
    args.push_back("--open_existing");
    server->Kill();
    const double t0 = NowSeconds();
    PRODB_RETURN_IF_ERROR(server->Spawn(PRODB_SERVER_BIN, args));
    PRODB_RETURN_IF_ERROR(ex->Connect(server->port()));
    PRODB_RETURN_IF_ERROR(ex->client().Ping());
    *seconds = NowSeconds() - t0;
    return Status::OK();
  }

  void Check(Workload* w, LiveRun* out) {
    Status st = CheckFinal(w, &ex_);
    if (!st.ok()) out->error = "output check: " + st.ToString();
  }

  /// Closed loop of `requests` requests, cut short after kMaxStretch x
  /// `seconds`; stops at the first failed request. A timed loop is one
  /// slice of the timed phase.
  void Loop(Workload* w, Digest* digest, uint64_t requests, double seconds,
            bool timed, LiveRun* out) {
    const double start = NowSeconds();
    double now = start;
    uint64_t ops = 0;
    for (uint64_t i = 0; i < requests && now - start < kMaxStretch * seconds;
         ++i) {
      Outcome o = Execute(w, &ex_, w->NextRequest(), digest);
      now = NowSeconds();
      ++out->attempted;
      ++out->requests;
      if (!o.status.ok()) {
        ++out->failed;
        if (timed) {
          out->latencies_us.push_back(std::numeric_limits<double>::infinity());
        }
        out->error = "request " + std::to_string(out->requests) + ": " +
                     o.status.ToString();
        return;
      }
      if (!timed) continue;
      out->latencies_us.push_back(o.latency_us);
      ops += o.ops;
    }
    if (!timed || now == start) return;
    out->timed_ops += ops;
    out->timed_wall += now - start;
    out->slice_rates.push_back(static_cast<double>(ops) / (now - start));
  }

  const Args& a_;
  bool traced_;
  std::string db_, spare_db_, rules_;
  ServerProcess server_;
  LiveExecutor ex_;
};

/// Set-up samples, the timed requests sent against those planned, and
/// ops/s per slice, so drift within a run is visible.
void PrintShape(const LiveRun& r) {
  std::printf("setup_s samples:");
  for (double v : r.setup_s) std::printf(" %s", Num(v).c_str());
  std::printf("\n");
  std::printf("timed requests: %zu of %llu planned, %s s\n",
              r.latencies_us.size(), static_cast<unsigned long long>(r.planned),
              Num(r.timed_wall).c_str());
  if (r.slice_rates.empty()) return;
  std::vector<double> s = r.slice_rates;
  std::sort(s.begin(), s.end());
  std::printf("slices ops_per_s: n=%zu min=%s median=%s max=%s (spread %s%%)\n",
              s.size(), Num(s.front()).c_str(), Num(Median(s)).c_str(),
              Num(s.back()).c_str(),
              Num(100.0 * (s.back() - s.front()) / Median(s)).c_str());
}

int RunEndToEnd(const Args& a) {
  LiveRun r;
  Status st = Live(a, /*traced=*/false).Run(&r);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  PrintShape(r);
  const bool ok = r.error.empty();
  if (!ok) std::printf("FAILED: %s\n", r.error.c_str());
  // A failed run reads worst on every metric, so that none of its
  // figures can pass for a gain.
  auto lower = [ok](double v) {
    return ok ? v : std::numeric_limits<double>::infinity();
  };
  // Printed, not gated: on this class of host their run-to-run spread is
  // wider than any bound the gate could hold (see perfbench/README.md).
  std::vector<Metric> printed = {
      {"ops_per_s", ok ? r.timed_ops / std::max(r.timed_wall, 1e-9) : 0,
       "1/s"},
      {"latency_p90_us", lower(Percentile(r.latencies_us, 90)), "us"},
      {"latency_p99_us", lower(Percentile(r.latencies_us, 99)), "us"},
      {"failed_share",
       r.attempted ? static_cast<double>(r.failed) / r.attempted : 0, "ratio"},
      {"frames_rejected", static_cast<double>(r.frames_rejected), "count"},
      {"deadlock_retries", static_cast<double>(r.deadlock_retries), "count"}};
  if (!r.recovery_s.empty()) {
    printed.push_back({"recovery_s", lower(Median(r.recovery_s)), "s"});
    printed.push_back(
        {"restart_after_run_s", lower(r.restart_after_run_s), "s"});
    printed.push_back({"disk_mb", lower(r.disk_mb), "MB"});
  }
  PrintMetrics(printed);
  const double ops = static_cast<double>(std::max<uint64_t>(r.timed_ops, 1));
  PrintResult(ok, r.attempted, r.failed,
              {{"setup_s", lower(Median(r.setup_s)), "s"},
               {"latency_p50_us", lower(Percentile(r.latencies_us, 50)), "us"},
               {"server_cpu_us_per_op", lower(r.cpu_us / ops), "us"},
               {"peak_rss_mb", lower(r.rss_mb), "MB"}});
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run

std::vector<std::string> ProgramClasses(const prodb::Catalog& catalog,
                                        const std::string& program) {
  std::vector<std::string> out;
  for (const std::string& name : catalog.RelationNames()) {
    if (program.find("(literalize " + name + " ") != std::string::npos) {
      out.push_back(name);
    }
  }
  return out;
}

/// Rebuilds the replay's final state the way a server restart does —
/// recovery + ReseedMatcher on the durable file, or the same one-batch WM
/// replay into a fresh matcher for a volatile store — and checks it.
Status MeasureRestart(Workload* w, const std::string& db,
                      const std::vector<std::pair<std::string, Tuple>>& wm,
                      size_t conflict_size, double* recover_s,
                      double* reseed_s) {
  prodb::ProductionSystemOptions o = ReplayServer::Options(*w, db);
  std::unique_ptr<prodb::ProductionSystem> fresh;
  double t = NowSeconds();
  if (w->durable()) {
    o.open_existing = true;
    fresh = std::make_unique<prodb::ProductionSystem>(o);
    prodb::RecoveryResult recovered;
    PRODB_RETURN_IF_ERROR(fresh->catalog().Recover(&recovered));
    *recover_s = NowSeconds() - t;
    PRODB_RETURN_IF_ERROR(fresh->LoadString(w->Program()));
    t = NowSeconds();
    PRODB_RETURN_IF_ERROR(fresh->ReseedMatcher());
    *reseed_s = NowSeconds() - t;
    std::map<std::string, net::WireDumpReply> dumps;
    for (const std::string& cls : w->FinalDumpClasses()) {
      PRODB_RETURN_IF_ERROR(DumpRelation(fresh->catalog(), cls, &dumps[cls]));
    }
    PRODB_RETURN_IF_ERROR(w->CheckFinal(dumps));
  } else {
    fresh = std::make_unique<prodb::ProductionSystem>(o);
    PRODB_RETURN_IF_ERROR(fresh->LoadString(w->Program()));
    prodb::ChangeSet batch;
    for (const auto& [cls, tuple] : wm) {
      TupleId id;
      PRODB_RETURN_IF_ERROR(fresh->catalog().Get(cls)->Insert(tuple, &id));
      batch.AddInsert(cls, tuple, id);
    }
    t = NowSeconds();
    PRODB_RETURN_IF_ERROR(fresh->matcher().OnBatch(batch));
    *reseed_s = NowSeconds() - t;
  }
  if (fresh->conflict_set().size() != conflict_size) {
    return Status::Corruption(
        "reseeded conflict set holds " +
        std::to_string(fresh->conflict_set().size()) + ", the replay held " +
        std::to_string(conflict_size));
  }
  return Status::OK();
}

int RunTraced(const Args& a) {
  LiveRun live;
  Status st = Live(a, /*traced=*/true).Run(&live);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  std::string error = live.error;

  // Two replays of the same stream, one with spans and one without, fed
  // alternately in chunks so host drift hits both alike.
  const std::string traced_db = a.run_dir + "/" + a.workload + "-traced.db";
  const std::string plain_db = a.run_dir + "/" + a.workload + "-plain.db";
  std::filesystem::remove(traced_db);
  std::filesystem::remove(plain_db);
  std::unique_ptr<Workload> wt = MakeWorkload(a.workload, a.seed);
  std::unique_ptr<Workload> wp = MakeWorkload(a.workload, a.seed);
  auto traced = std::make_unique<ReplayServer>(*wt, traced_db);
  auto plain = std::make_unique<ReplayServer>(*wp, plain_db);
  Digest dt, dp;
  double t = NowSeconds();
  st = traced->Start();
  const double load_s = NowSeconds() - t;
  if (st.ok()) st = plain->Start();
  t = NowSeconds();
  if (st.ok()) st = Preload(wt.get(), traced.get(), &dt);
  const double preload_s = NowSeconds() - t;
  if (st.ok()) st = Preload(wp.get(), plain.get(), &dp);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: replay set-up: %s\n",
                 st.ToString().c_str());
    return 2;
  }

  prodb::ProductionSystem& sys = traced->system();
  const bool durable = wt->durable();
  traced->ResetCounts();
  const prodb::MatcherStats m0 = sys.matcher().stats();
  prodb::DurabilityStats d0, d1;
  prodb::BufferPoolStats b0, b1;
  if (durable) {
    d0 = sys.catalog().GetDurabilityStats();
    b0 = sys.catalog().buffer_pool()->stats();
  }
  traced->set_tracing(true);
  double traced_s = 0, plain_s = 0;
  for (uint64_t done = 0; done < live.requests && error.empty();) {
    const uint64_t n = std::min<uint64_t>(kReplayChunk, live.requests - done);
    for (auto [w, ex, digest, total] :
         {std::tuple{wt.get(), static_cast<Executor*>(traced.get()), &dt,
                     &traced_s},
          std::tuple{wp.get(), static_cast<Executor*>(plain.get()), &dp,
                     &plain_s}}) {
      const double c0 = NowSeconds();
      for (uint64_t i = 0; i < n && error.empty(); ++i) {
        Outcome o = Execute(w, ex, w->NextRequest(), digest);
        if (!o.status.ok()) error = "replay: " + o.status.ToString();
      }
      *total += NowSeconds() - c0;
    }
    done += n;
  }
  traced->set_tracing(false);
  const prodb::MatcherStats m1 = sys.matcher().stats();
  if (durable) {
    d1 = sys.catalog().GetDurabilityStats();
    b1 = sys.catalog().buffer_pool()->stats();
  }
  if (error.empty() && (dt.value() != live.digest || dp.value() != live.digest)) {
    error = "replay digest differs from the live server's";
  }
  if (error.empty()) {
    st = CheckFinal(wt.get(), traced.get());
    if (st.ok()) st = CheckFinal(wp.get(), plain.get());
    if (!st.ok()) error = "replay output check: " + st.ToString();
  }
  std::printf("digest: live=%016llx traced=%016llx untraced=%016llx "
              "requests=%llu\n",
              static_cast<unsigned long long>(live.digest),
              static_cast<unsigned long long>(dt.value()),
              static_cast<unsigned long long>(dp.value()),
              static_cast<unsigned long long>(live.requests));

  // db layer: the WM classes' live tuples and dead heap slots. The final
  // WM itself is kept for the restart measurement.
  double live_tuples = 0, dead_slots = 0;
  std::vector<std::pair<std::string, Tuple>> final_wm;
  for (const std::string& cls : ProgramClasses(sys.catalog(), wt->Program())) {
    const prodb::Relation* rel = sys.catalog().Get(cls);
    live_tuples += static_cast<double>(rel->live_tuple_count());
    dead_slots += static_cast<double>(rel->dead_slot_count());
    Status scan = rel->Scan([&](TupleId, const Tuple& tuple) {
      final_wm.emplace_back(cls, tuple);
      return Status::OK();
    });
    if (!scan.ok() && error.empty()) error = "scan: " + scan.ToString();
  }
  const double aux_mb =
      static_cast<double>(sys.matcher().AuxiliaryFootprintBytes()) /
      (1024.0 * 1024.0);
  const size_t conflict_size = sys.conflict_set().size();
  const ReplayCounts c = traced->counts();

  // Span totals. A frame span's self time is what no layer span covers;
  // fire's per-cycle Job dump is a check and has no frame span.
  std::vector<double> span_us(kNumSpanNames, 0);
  for (const Span& s : traced->spans()) {
    span_us[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  double children_us = 0;
  for (int n = 0; n < kNumSpanNames; ++n) {
    if (n != kSpanFrame && n != kSpanDump) children_us += span_us[n];
  }
  {
    const std::string path = a.run_dir + "/trace-" + a.workload + ".tsv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "request\tspan\tstart_ns\tend_ns\n");
      for (const Span& s : traced->spans()) {
        std::fprintf(f, "%llu\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.request),
                     SpanLabel(s.name), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
      std::fclose(f);
      std::printf("spans: %zu written to %s\n", traced->spans().size(),
                  path.c_str());
    }
  }

  // Restart path: both replays are closed first so the traced database
  // is reopened from its file.
  traced.reset();
  plain.reset();
  double recover_s = 0, reseed_s = 0;
  if (error.empty()) {
    st = MeasureRestart(wt.get(), traced_db, final_wm, conflict_size,
                        &recover_s, &reseed_s);
    if (!st.ok()) error = "restart: " + st.ToString();
  }
  std::filesystem::remove(traced_db);
  std::filesystem::remove(plain_db);

  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto delta = [](const std::atomic<uint64_t>& after,
                  const std::atomic<uint64_t>& before) {
    return static_cast<double>(after.load() - before.load());
  };
  const double reqs = static_cast<double>(c.requests);
  const double firings =
      static_cast<double>(c.serial_firings + c.concurrent_firings);
  const double ops = wt->ops_are_firings() ? firings
                                           : static_cast<double>(c.ops);
  const double runs = static_cast<double>(c.serial_runs + c.concurrent_runs);
  const double pool_refs = static_cast<double>((b1.hits - b0.hits) +
                                               (b1.misses - b0.misses));

  // Metrics that only workloads reaching the layer have: printed here,
  // not in the result line, which carries every per-layer metric for
  // every workload.
  std::vector<Metric> reached_only;
  if (durable) reached_only.push_back({"storage.recover_s", recover_s, "s"});
  if (c.serial_firings > 0) {
    reached_only.push_back(
        {"engine.serial_us_per_firing",
         per(span_us[kSpanRunSerial], static_cast<double>(c.serial_firings)),
         "us"});
  }
  if (c.concurrent_firings > 0) {
    reached_only.push_back({"engine.concurrent_us_per_firing",
                            per(span_us[kSpanRunConcurrent],
                                static_cast<double>(c.concurrent_firings)),
                            "us"});
  }
  PrintMetrics(reached_only);
  const double frame_us = span_us[kSpanFrame];
  for (int n = 1; n < kNumSpanNames; ++n) {
    if (span_us[n] <= 0 || n == kSpanDump) continue;
    std::printf("span %-22s %12s us/req  %6s%% of frame time\n",
                SpanLabel(static_cast<SpanName>(n)),
                Num(per(span_us[n], reqs)).c_str(),
                Num(100.0 * per(span_us[n], frame_us)).c_str());
  }
  std::printf("span %-22s %12s us/req  %6s%% of frame time\n",
              "(unattributed)",
              Num(per(frame_us - children_us, reqs)).c_str(),
              Num(100.0 * per(frame_us - children_us, frame_us)).c_str());
  if (!error.empty()) std::printf("FAILED: %s\n", error.c_str());

  const bool correct = error.empty();
  const uint64_t attempted = live.attempted;
  PrintResult(
      correct, attempted, correct ? live.failed : attempted,
      {{"net.ping_p50_us", Percentile(live.ping_us, 50), "us"},
       {"net.decode_us_per_req", per(span_us[kSpanDecode], reqs), "us"},
       {"net.encode_ack_us_per_req", per(span_us[kSpanEncode], reqs), "us"},
       {"net.req_bytes", per(static_cast<double>(c.req_bytes), reqs), "bytes"},
       {"net.ack_bytes", per(static_cast<double>(c.ack_bytes), reqs), "bytes"},
       {"net.frames_rejected", static_cast<double>(live.frames_rejected),
        "count"},
       {"txn.begin_us_per_req", per(span_us[kSpanBegin], reqs), "us"},
       {"txn.write_us_per_op",
        per(span_us[kSpanWrites], static_cast<double>(c.ops)), "us"},
       {"txn.commit_us_per_req", per(span_us[kSpanCommit], reqs), "us"},
       {"txn.deadlock_retries", static_cast<double>(live.deadlock_retries),
        "count"},
       {"db.live_tuples", live_tuples, "count"},
       {"db.dead_slot_ratio", per(dead_slots, dead_slots + live_tuples),
        "ratio"},
       {"match.on_batch_us_per_req", per(span_us[kSpanOnBatch], reqs), "us"},
       {"match.tuples_examined_per_op",
        per(delta(m1.tuples_examined, m0.tuples_examined), ops), "count"},
       {"match.propagations_per_op",
        per(delta(m1.propagations, m0.propagations), ops), "count"},
       {"match.index_probes_per_op",
        per(delta(m1.index_probes, m0.index_probes), ops), "count"},
       {"match.probe_tokens_visited_per_op",
        per(delta(m1.probe_tokens_visited, m0.probe_tokens_visited), ops),
        "count"},
       {"match.scan_tokens_visited_per_op",
        per(delta(m1.scan_tokens_visited, m0.scan_tokens_visited), ops),
        "count"},
       {"match.alpha_tests_per_op",
        per(delta(m1.alpha_tests_evaluated, m0.alpha_tests_evaluated), ops),
        "count"},
       {"match.dispatch_precision",
        per(delta(m1.alpha_tests_evaluated, m0.alpha_tests_evaluated),
            delta(m1.candidates_visited, m0.candidates_visited)),
        "ratio"},
       {"match.conflict_deltas_per_req",
        per(static_cast<double>(c.conflict_deltas), reqs), "count"},
       {"match.replans", delta(m1.replans, m0.replans), "count"},
       {"match.aux_mb", aux_mb, "MB"},
       {"storage.wal_bytes_per_op",
        per(static_cast<double>(d1.wal_bytes_appended - d0.wal_bytes_appended),
            ops),
        "bytes"},
       {"storage.wal_flushes_per_req",
        per(static_cast<double>(d1.wal_flushes - d0.wal_flushes), reqs),
        "count"},
       {"storage.wal_pages_written_per_req",
        per(static_cast<double>(d1.wal_pages_written - d0.wal_pages_written),
            reqs),
        "count"},
       {"storage.pool_hit_ratio",
        per(static_cast<double>(b1.hits - b0.hits), pool_refs), "ratio"},
       {"storage.evictions_per_op",
        per(static_cast<double>(b1.evictions - b0.evictions), ops), "count"},
       {"storage.dirty_writebacks_per_op",
        per(static_cast<double>(b1.dirty_writebacks - b0.dirty_writebacks),
            ops),
        "count"},
       {"storage.pages_stolen_per_op",
        per(static_cast<double>(d1.pages_stolen - d0.pages_stolen), ops),
        "count"},
       {"storage.log_forces_per_op",
        per(static_cast<double>(d1.log_forces - d0.log_forces), ops),
        "count"},
       {"storage.wal_live_pages", static_cast<double>(d1.wal_live_pages),
        "count"},
       {"storage.db_file_mb", live.disk_mb, "MB"},
       {"engine.firings_per_req", per(firings, reqs), "count"},
       {"engine.pending_at_run",
        per(static_cast<double>(c.pending_at_run), runs), "count"},
       {"engine.stale_ratio",
        per(static_cast<double>(c.stale),
            firings + static_cast<double>(c.stale)),
        "ratio"},
       {"engine.deadlock_abort_ratio",
        per(static_cast<double>(c.deadlock_aborts),
            firings + static_cast<double>(c.deadlock_aborts)),
        "ratio"},
       {"core.load_s", load_s, "s"},
       {"core.preload_s", preload_s, "s"},
       {"core.reseed_s", reseed_s, "s"},
       {"trace.overhead_pct", 100.0 * per(traced_s - plain_s, plain_s), "%"},
       {"trace.unattributed_us_per_req", per(frame_us - children_us, reqs),
        "us"}});
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = std::stoi(v);
    } else if (k == "--run-dir") {
      a->run_dir = v;
    } else if (k == "--meta") {
      size_t eq = v.find('=');
      if (eq == std::string::npos) return false;
      a->meta.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else {
      return false;
    }
  }
  return MakeWorkload(a->workload, a->seed) != nullptr && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool ok = false;
  try {
    ok = perfbench::ParseArgs(argc, argv, &args);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|join|durable|fire "
                 "--seed N --seconds S --trace 0|1 [--run-dir DIR] "
                 "[--meta key=value]...\n");
    return 2;
  }
  std::filesystem::create_directories(args.run_dir);
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunEndToEnd(args);
}
