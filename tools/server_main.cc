// prodb_server — the rule-engine server binary.
//
//   prodb_server --tcp_port=0 --db=/tmp/wm.db --wal --durable
//                --rules=program.ops --matcher=rete-plan-shard4
//
// Prints one "LISTENING tcp=<port> unix=<path>" line on stdout once the
// listeners are open (test harnesses and the bench driver parse it),
// then serves until SIGINT/SIGTERM. --tcp_port=0 binds an ephemeral
// port; the printed line carries the resolved one. A malformed flag
// prints the usage text and exits 2.

#include <signal.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "net/server.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

bool ParseBoolFlag(const char* arg, const char* name) {
  return std::string(arg) == std::string("--") + name;
}

// The whole of `s`, base 10, within [lo, hi].
bool ParseCount(const std::string& s, size_t lo, size_t hi, size_t* out) {
  const char* last = s.data() + s.size();
  auto [end, ec] = std::from_chars(s.data(), last, *out);
  return ec == std::errc() && end == last && *out >= lo && *out <= hi;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--tcp_port=0..65535] [--tcp_host=H] [--unix=PATH]\n"
      "          [--db=PATH] [--open_existing] [--wal] [--durable]\n"
      "          [--rules=FILE] [--matcher=SPEC] [--planner]\n"
      "          [--workers=1..%zu] [--frames=N>=1] [--no_load]\n"
      "  SPEC = ARCH[-plan][-shard<N>], ARCH = rete|rete-dbms|query|pattern,\n"
      "  2 <= N <= %zu; --planner is an alias for -plan; pattern takes\n"
      "  neither; the ablation mods scan, nodisc and noshare are refused\n",
      argv0, prodb::kMaxThreads, prodb::kMaxThreads);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  prodb::net::RuleServerOptions opts;
  prodb::MatcherSpec spec;
  spec.kind = opts.system.matcher;
  bool planner = false;
  std::string rules_path;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "tcp_port", &v)) {
      size_t port = 0;
      if (!ParseCount(v, 0, 65535, &port)) return Usage(argv[0]);
      opts.tcp_port = static_cast<int>(port);
    } else if (ParseFlag(a, "tcp_host", &v)) {
      opts.tcp_host = v;
    } else if (ParseFlag(a, "unix", &v)) {
      opts.unix_path = v;
    } else if (ParseFlag(a, "db", &v)) {
      opts.system.db_path = v;
      opts.system.wm_storage = prodb::StorageKind::kPaged;
    } else if (ParseBoolFlag(a, "open_existing")) {
      opts.system.open_existing = true;
    } else if (ParseBoolFlag(a, "wal")) {
      opts.system.enable_wal = true;
    } else if (ParseBoolFlag(a, "durable")) {
      opts.system.enable_wal = true;
      opts.system.durable_directory = true;
    } else if (ParseFlag(a, "rules", &v)) {
      rules_path = v;
    } else if (ParseFlag(a, "matcher", &v)) {
      // The server's options carry no ablation switches: scan, nodisc
      // and noshare are experiment configurations, not deployments.
      if (!prodb::MatcherSpec::Parse(v, &spec).ok() || !spec.indexes ||
          !spec.discriminate || !spec.share) {
        return Usage(argv[0]);
      }
    } else if (ParseBoolFlag(a, "planner")) {
      planner = true;
    } else if (ParseFlag(a, "workers", &v)) {
      if (!ParseCount(v, 1, prodb::kMaxThreads, &opts.system.workers)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(a, "frames", &v)) {
      if (!ParseCount(v, 1, SIZE_MAX, &opts.system.buffer_pool_frames)) {
        return Usage(argv[0]);
      }
    } else if (ParseBoolFlag(a, "no_load")) {
      opts.allow_load = false;
    } else {
      return Usage(argv[0]);
    }
  }
  if (planner) {
    if (spec.kind == prodb::MatcherKind::kPattern) return Usage(argv[0]);
    spec.planner.enable = true;
  }
  opts.system.matcher = spec.kind;
  opts.system.sharding = spec.sharding;
  opts.system.planner = spec.planner;
  if (!rules_path.empty()) {
    std::ifstream in(rules_path);
    if (!in) {
      std::fprintf(stderr, "cannot read rules file %s\n",
                   rules_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    opts.preload = ss.str();
  }

  // Block the stop signals before Start() spawns any thread: threads
  // inherit the mask, so the only way SIGINT/SIGTERM is consumed is the
  // sigwait below, and a signal can never land on (and kill the process
  // through) an accept or session thread.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  const std::string unix_path = opts.unix_path;
  prodb::net::RuleServer server(std::move(opts));
  prodb::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING tcp=%d unix=%s\n", server.tcp_port(),
              unix_path.c_str());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  server.Stop();
  return 0;
}
