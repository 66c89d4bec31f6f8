// The closed loop shared by the live load generator and the in-process
// replay: one request at a time, the next sent only after the previous
// reply, every reply fed back to the workload model and into the digest.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Where requests go: the live server over TCP, or the in-process replay.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual Status Apply(const net::WireBatch& batch,
                       net::WireBatchAck* ack) = 0;
  virtual Status Run(bool concurrent, net::WireRunResult* result) = 0;
  virtual Status Dump(const std::string& cls, net::WireDumpReply* reply) = 0;
  /// Marks the start of a request (the replay tags its spans with it).
  virtual void BeginRequest() {}
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sends the workload's whole standing WM.
Status Preload(Workload* w, Executor* ex, Digest* digest);

struct Outcome {
  Status status;           // first failure; OK when every step passed
  double latency_us = 0;   // timed steps only
  uint64_t ops = 0;        // acked WM ops, or firings
};

/// Executes one request. Execution stops at the first failing step.
Outcome Execute(Workload* w, Executor* ex, const Request& req,
                Digest* digest);

/// Runs the final output check against `ex`'s state.
Status CheckFinal(Workload* w, Executor* ex);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
