// The real prodb_server as a child process, and a RuleClient executor.

#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "closed_loop.h"
#include "net/client.h"

namespace perfbench {

/// Owns one spawned server; the destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` and waits for its "LISTENING tcp=<port>" line.
  Status Spawn(const std::string& binary, const std::vector<std::string>& args);
  /// SIGKILL, then waits for the process to end. The benchmark never
  /// needs a clean shutdown, and tools/server_main.cc blocks SIGTERM only
  /// after printing its banner, so a SIGTERM right after a restart races
  /// the server's start-up.
  void Kill();

  int port() const { return port_; }
  /// User + system CPU of every server thread so far, in microseconds.
  double CpuMicros() const;
  /// VmHWM, in MB.
  double PeakRssMb() const;

 private:
  /// The process has been reaped: drop its pid and banner pipe.
  void Forget();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = -1;
};

class LiveExecutor : public Executor {
 public:
  Status Connect(int port);
  Status Apply(const net::WireBatch& batch, net::WireBatchAck* ack) override {
    return client_.Apply(batch, ack);
  }
  Status Run(bool concurrent, net::WireRunResult* result) override {
    return client_.Run(concurrent, result);
  }
  Status Dump(const std::string& cls, net::WireDumpReply* reply) override {
    return client_.DumpClass(cls, reply);
  }
  net::RuleClient& client() { return client_; }

 private:
  net::RuleClient client_;
};

/// The benchmark's server command line: `--tcp_port=0 --matcher=rete
/// --planner --rules=<rules>` plus the workload's own flags.
std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& rules,
                                    const std::string& db);

/// One kStats counter, or 0 when absent.
uint64_t StatValue(const net::WireStatsReply& stats, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
