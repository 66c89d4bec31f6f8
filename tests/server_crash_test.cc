// Kill-after-ack durability proof: a positively acknowledged batch must
// survive SIGKILL. Drives the real prodb_server binary (path baked in
// via PRODB_SERVER_BIN): start durable server -> apply batches over a
// unix socket, collecting acks -> SIGKILL with no warning -> restart on
// the same database -> every acked tuple must be back, and the reseeded
// conflict set must fire exactly the instantiations those tuples imply.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"

namespace prodb {
namespace net {
namespace {

struct ServerProc {
  pid_t pid = -1;

  ServerProc() = default;
  ServerProc(ServerProc&& o) noexcept : pid(o.pid) { o.pid = -1; }
  ServerProc& operator=(ServerProc&& o) noexcept {
    if (this != &o) {
      Kill();
      pid = o.pid;
      o.pid = -1;
    }
    return *this;
  }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  void Kill() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
  ~ServerProc() { Kill(); }
};

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + std::to_string(::getpid())))
      .string();
}

// Starts the server; with `out_fd` >= 0 its stdout and stderr go there.
ServerProc Spawn(const std::vector<std::string>& args, int out_fd = -1) {
  std::vector<std::string> argv_strings = args;
  argv_strings.insert(argv_strings.begin(), PRODB_SERVER_BIN);
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  ServerProc proc;
  proc.pid = ::fork();
  if (proc.pid == 0) {
    if (out_fd >= 0) {
      ::dup2(out_fd, STDOUT_FILENO);
      ::dup2(out_fd, STDERR_FILENO);
    }
    ::execv(PRODB_SERVER_BIN, argv.data());
    _exit(127);
  }
  return proc;
}

// Runs the server with stdout and stderr sent to `log` until it exits,
// for at most 5 s. Returns the exit status, or -1 when it was still
// running (it is then killed) or died by a signal.
int RunToExit(const std::vector<std::string>& args, const std::string& log) {
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ServerProc proc = Spawn(args, fd);
  ::close(fd);
  int status = 0;
  for (int i = 0; i < 200; ++i) {
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return -1;
}

Status ConnectWithRetry(RuleClient* client, const std::string& path) {
  Status st;
  for (int i = 0; i < 200; ++i) {
    st = client->ConnectUnix(path);
    if (st.ok()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return st;
}

TEST(ServerCrashTest, AckedBatchesSurviveSigkill) {
  const std::string db = TempPath("prodb_crash_db_");
  const std::string sock = TempPath("prodb_crash_sock_");
  const std::string rules = TempPath("prodb_crash_rules_");
  std::filesystem::remove(db);
  std::filesystem::remove(sock);
  {
    std::ofstream out(rules);
    out << "(literalize Job v state)\n"
        << "(p start (Job ^v <x> ^state 1) --> "
        << "(modify 1 ^state 2))\n";
  }

  std::vector<std::string> base_args = {
      "--unix=" + sock, "--db=" + db, "--durable", "--rules=" + rules};

  constexpr size_t kBatches = 24;
  constexpr size_t kOps = 4;
  std::vector<int64_t> acked_values;
  {
    ServerProc server = Spawn(base_args);
    ASSERT_GT(server.pid, 0);
    RuleClient client;
    ASSERT_TRUE(ConnectWithRetry(&client, sock).ok());
    ASSERT_TRUE(client.server_durable());

    for (size_t b = 0; b < kBatches; ++b) {
      WireBatch batch;
      for (size_t k = 0; k < kOps; ++k) {
        WireOp op;
        op.kind = kOpMake;
        op.cls = "Job";
        int64_t v = static_cast<int64_t>(b * kOps + k);
        op.tuple = Tuple{Value(v), Value(int64_t{1})};
        batch.ops.push_back(std::move(op));
      }
      WireBatchAck ack;
      ASSERT_TRUE(client.Apply(batch, &ack).ok());
      ASSERT_TRUE(ack.durable);
      ASSERT_GT(ack.durable_lsn, 0u);
      ASSERT_EQ(ack.conflict.size(), kOps);  // every make matches `start`
      for (size_t k = 0; k < kOps; ++k) {
        acked_values.push_back(static_cast<int64_t>(b * kOps + k));
      }
    }
    // The ack for the last batch has arrived; kill with no warning.
    server.Kill();
  }

  // Restart over the surviving database image.
  std::vector<std::string> restart_args = base_args;
  restart_args.push_back("--open_existing");
  ServerProc server = Spawn(restart_args);
  ASSERT_GT(server.pid, 0);
  RuleClient client;
  ASSERT_TRUE(ConnectWithRetry(&client, sock).ok());

  WireDumpReply dump;
  ASSERT_TRUE(client.DumpClass("Job", &dump).ok());
  std::vector<int64_t> recovered;
  for (const auto& [id, t] : dump.tuples) {
    ASSERT_EQ(t.arity(), 2u);
    ASSERT_EQ(t[1].as_int(), 1);  // nothing ran; all still state 1
    recovered.push_back(t[0].as_int());
  }
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, acked_values)
      << "acked tuples must survive SIGKILL + restart recovery";

  // ReseedMatcher rebuilt the conflict set: a run must fire once per
  // recovered tuple (each `start` modifies its Job to state 2).
  WireRunResult run;
  ASSERT_TRUE(client.Run(/*concurrent=*/false, &run).ok());
  EXPECT_EQ(run.firings, acked_values.size());
  WireDumpReply after;
  ASSERT_TRUE(client.DumpClass("Job", &after).ok());
  ASSERT_EQ(after.tuples.size(), acked_values.size());
  for (const auto& [id, t] : after.tuples) {
    EXPECT_EQ(t[1].as_int(), 2);
  }

  server.Kill();
  std::filesystem::remove(db);
  std::filesystem::remove(sock);
  std::filesystem::remove(rules);
}

// Crash mid-stream: batches keep flowing until the server dies under
// them. Everything acked before the kill must be present after restart
// (unacked in-flight batches may or may not be — only the ack promises).
TEST(ServerCrashTest, KillUnderLoadKeepsAckedPrefix) {
  const std::string db = TempPath("prodb_crash2_db_");
  const std::string sock = TempPath("prodb_crash2_sock_");
  const std::string rules = TempPath("prodb_crash2_rules_");
  std::filesystem::remove(db);
  std::filesystem::remove(sock);
  {
    std::ofstream out(rules);
    out << "(literalize Evt v)\n";
  }
  std::vector<std::string> base_args = {
      "--unix=" + sock, "--db=" + db, "--durable", "--rules=" + rules};

  std::vector<int64_t> acked;
  {
    ServerProc server = Spawn(base_args);
    ASSERT_GT(server.pid, 0);
    RuleClient client;
    ASSERT_TRUE(ConnectWithRetry(&client, sock).ok());
    // Kill the server from another thread while acks stream back.
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      server.Kill();
    });
    for (int64_t v = 0;; ++v) {
      WireBatch batch;
      WireOp op;
      op.kind = kOpMake;
      op.cls = "Evt";
      op.tuple = Tuple{Value(v)};
      batch.ops.push_back(std::move(op));
      WireBatchAck ack;
      if (!client.Apply(batch, &ack).ok()) break;  // server died
      acked.push_back(v);
    }
    killer.join();
  }
  ASSERT_FALSE(acked.empty()) << "server died before any ack";

  std::vector<std::string> restart_args = base_args;
  restart_args.push_back("--open_existing");
  ServerProc server = Spawn(restart_args);
  RuleClient client;
  ASSERT_TRUE(ConnectWithRetry(&client, sock).ok());
  WireDumpReply dump;
  ASSERT_TRUE(client.DumpClass("Evt", &dump).ok());
  std::vector<int64_t> recovered;
  for (const auto& [id, t] : dump.tuples) recovered.push_back(t[0].as_int());
  std::sort(recovered.begin(), recovered.end());
  // Every acked value is present; at most one unacked in-flight value
  // may additionally have reached the log.
  ASSERT_GE(recovered.size(), acked.size());
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_EQ(recovered[i], acked[i]);
  }
  EXPECT_LE(recovered.size(), acked.size() + 1);

  server.Kill();
  std::filesystem::remove(db);
  std::filesystem::remove(sock);
  std::filesystem::remove(rules);
}

// A stop signal must only ever be consumed by main's sigwait. Every other
// thread — the accept threads and the session threads they spawn — has
// to block SIGINT and SIGTERM, or a signal the kernel routes to one of
// them while main is outside sigwait kills the process without Stop().
TEST(ServerCrashTest, StopSignalsBlockedOffMainThread) {
  const std::string sock = TempPath("prodb_signal_sock_");
  std::filesystem::remove(sock);
  ServerProc server = Spawn({"--unix=" + sock, "--tcp_port=0"});
  ASSERT_GT(server.pid, 0);
  RuleClient client;
  ASSERT_TRUE(ConnectWithRetry(&client, sock).ok());
  ASSERT_TRUE(client.Ping().ok());  // this session's thread is serving

  const uint64_t kStopSignals =
      (uint64_t{1} << (SIGINT - 1)) | (uint64_t{1} << (SIGTERM - 1));
  const std::string main_tid = std::to_string(server.pid);
  size_t threads = 0;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + main_tid + "/task")) {
    const std::string tid = task.path().filename().string();
    if (tid == main_tid) continue;
    std::ifstream status(task.path() / "status");
    std::string line;
    while (std::getline(status, line) && line.rfind("SigBlk:", 0) != 0) {
    }
    ASSERT_EQ(line.rfind("SigBlk:", 0), 0u) << "thread " << tid;
    const uint64_t blocked = std::stoull(line.substr(7), nullptr, 16);
    EXPECT_EQ(blocked & kStopSignals, kStopSignals)
        << "thread " << tid << " " << line;
    ++threads;
  }
  EXPECT_GE(threads, 3u);  // tcp + unix accept threads, one session

  ASSERT_EQ(::kill(server.pid, SIGTERM), 0);
  int status = 0;
  pid_t waited = 0;
  for (int i = 0; i < 400 && waited == 0; ++i) {
    waited = ::waitpid(server.pid, &status, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_EQ(waited, server.pid) << "no exit within 10 s of SIGTERM";
  server.pid = -1;
  ASSERT_TRUE(WIFEXITED(status)) << "wait status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove(sock);
}

// A malformed flag must stop the server before it serves anything: the
// usage text and exit status 2, never a LISTENING line. Numeric flags
// parse the whole value in base 10 and in range; the matcher spec goes
// through MatcherSpec::Parse, and the server accepts no ablation mods.
TEST(ServerCrashTest, MalformedFlagsExitWithUsage) {
  const std::string sock = TempPath("prodb_flags_sock_");
  const std::string db = TempPath("prodb_flags_db_");
  const std::vector<std::vector<std::string>> bad = {
      {"--workers=0"}, {"--workers=abc"}, {"--workers=-1"},
      {"--workers=2x"}, {"--workers=257"},
      {"--tcp_port=70000"}, {"--tcp_port=abc"}, {"--tcp_port=-1"},
      {"--db=" + db, "--frames=0"}, {"--frames=abc"},
      // The removed flags: the spec's -shard<N> replaces them.
      {"--shards=abc"}, {"--shards=4"}, {"--shard_threads=2"},
      {"--matcher=bogus"}, {"--matcher=rete-shard0"},
      {"--matcher=rete-shard257"}, {"--matcher=rete-shardx"},
      {"--matcher=rete-scan"}, {"--matcher=query-nodisc"},
      {"--matcher=rete-noshare"},
      // The pattern matcher has no join planner, under either spelling.
      {"--matcher=pattern-plan"}, {"--matcher=pattern", "--planner"},
  };
  const std::string log = TempPath("prodb_flags_log_");
  for (const std::vector<std::string>& flags : bad) {
    std::filesystem::remove(sock);
    std::filesystem::remove(db);
    std::vector<std::string> args = {"--unix=" + sock};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EQ(RunToExit(args, log), 2) << flags.back();
    std::ifstream in(log);
    const std::string output(std::istreambuf_iterator<char>(in), {});
    EXPECT_EQ(output.find("LISTENING"), std::string::npos) << flags.back();
  }
  // A spec the server accepts, with the --planner alias beside it.
  std::filesystem::remove(sock);
  ServerProc server = Spawn({"--unix=" + sock, "--workers=2",
                             "--matcher=rete-plan-shard2", "--planner"});
  RuleClient client;
  EXPECT_TRUE(ConnectWithRetry(&client, sock).ok());
  server.Kill();
  for (const std::string& path : {sock, db, log}) {
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace net
}  // namespace prodb
