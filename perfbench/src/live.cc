#include "live.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

constexpr int kListenTimeoutMs = 120000;

}  // namespace

Status ServerProcess::Spawn(const std::string& binary,
                            const std::vector<std::string>& args) {
  Kill();
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<std::string> argv_strings = args;
  argv_strings.insert(argv_strings.begin(), binary);
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];

  std::string line;
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    int r = ::poll(&p, 1, kListenTimeoutMs);
    if (r < 0 && errno == EINTR) continue;
    char buf[256];
    ssize_t n = r > 0 ? ::read(out_fd_, buf, sizeof(buf)) : 0;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Kill();
      return Status::IOError("server exited or stalled before listening: " +
                             binary);
    }
    line.append(buf, static_cast<size_t>(n));
  }
  if (std::sscanf(line.c_str(), "LISTENING tcp=%d", &port_) != 1 ||
      port_ <= 0) {
    Kill();
    return Status::IOError("unexpected server banner: " + line);
  }
  return Status::OK();
}

void ServerProcess::Forget() {
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  port_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  Forget();
}

double ServerProcess::CpuMicros() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

Status LiveExecutor::Connect(int port) {
  client_.Close();
  return client_.ConnectTcp("127.0.0.1", port);
}

std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& rules,
                                    const std::string& db) {
  std::vector<std::string> args = {"--tcp_port=0", "--matcher=rete",
                                   "--planner", "--rules=" + rules};
  for (const std::string& f : w.ServerFlags(db)) args.push_back(f);
  return args;
}

uint64_t StatValue(const net::WireStatsReply& stats, const std::string& key) {
  for (const auto& [k, v] : stats.counters) {
    if (k == key) return v;
  }
  return 0;
}

}  // namespace perfbench
