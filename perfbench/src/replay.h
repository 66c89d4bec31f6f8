// In-process replay of the server's request path, with spans.
//
// Mirrors RuleServer::ApplyBatchOnce (src/net/server.cc) call for call:
// DecodeBatch -> TxnManager::Begin -> Transaction::Insert/Read/Delete
// building the ChangeSet -> delta listener + Matcher::OnBatch ->
// TxnManager::Commit -> EncodeBatchAck; kRun goes to
// ProductionSystem::Run / RunConcurrent. Each call is wrapped in a span
// whose parent is its frame's span; spans carry the request id and stay
// in memory until written out.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/production_system.h"
#include "closed_loop.h"

namespace perfbench {

/// kSpanFrame covers the server-side handling of one frame, from decode
/// to reply encode; the layer spans are its children.
enum SpanName : uint8_t {
  kSpanFrame,
  kSpanDecode,
  kSpanBegin,
  kSpanWrites,
  kSpanOnBatch,
  kSpanCommit,
  kSpanEncode,
  kSpanRunSerial,
  kSpanRunConcurrent,
  kSpanDump,
  kNumSpanNames,
};
const char* SpanLabel(SpanName name);

struct Span {
  SpanName name;
  uint64_t request;  // the request the frame belongs to
  int64_t start_ns;
  int64_t end_ns;
};

/// Counts the replay takes at the layer boundaries.
struct ReplayCounts {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t ops = 0;            // WM ops in batches
  uint64_t req_bytes = 0;      // request frames, header included
  uint64_t ack_bytes = 0;      // reply frames, header included
  uint64_t conflict_deltas = 0;
  uint64_t serial_runs = 0, concurrent_runs = 0;
  uint64_t serial_firings = 0, concurrent_firings = 0;
  uint64_t pending_at_run = 0;  // summed over runs
  uint64_t stale = 0, deadlock_aborts = 0;
};

/// All tuples of one class, the way kDump returns them.
Status DumpRelation(const prodb::Catalog& catalog, const std::string& cls,
                    net::WireDumpReply* reply);

class ReplayServer : public Executor {
 public:
  /// `db_path` is used only when the workload is durable.
  ReplayServer(const Workload& workload, std::string db_path);

  /// Builds the system and installs the program (what --rules does).
  Status Start();

  Status Apply(const net::WireBatch& batch, net::WireBatchAck* ack) override;
  Status Run(bool concurrent, net::WireRunResult* result) override;
  Status Dump(const std::string& cls, net::WireDumpReply* reply) override;
  void BeginRequest() override {
    ++request_id_;
    ++counts_.requests;
  }

  /// Spans are recorded only while tracing is on.
  void set_tracing(bool on) { tracing_ = on; }

  prodb::ProductionSystem& system() { return *system_; }
  static prodb::ProductionSystemOptions Options(const Workload& workload,
                                                const std::string& db_path);
  const std::vector<Span>& spans() const { return spans_; }
  const ReplayCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = ReplayCounts{}; }

 private:
  int64_t Now() const;
  void Record(SpanName name, int64_t start, int64_t end) {
    if (tracing_) spans_.push_back(Span{name, request_id_, start, end});
  }
  Status ApplyOnce(const net::WireBatch& batch, net::WireBatchAck* ack);

  prodb::ProductionSystemOptions options_;
  std::string program_;
  std::unique_ptr<prodb::ProductionSystem> system_;
  bool tracing_ = false;
  uint64_t request_id_ = 0;
  std::vector<Span> spans_;
  ReplayCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
