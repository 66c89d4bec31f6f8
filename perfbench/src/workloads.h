// Seeded client-side models of the four serving workloads.
//
// A model generates the standing working memory and the request stream
// from its seed, absorbs every reply (assigned tuple ids, conflict-set
// deltas, run results) and checks the server's final state against what
// it expects. The live load generator and the in-process replay drive the
// same model, so both send byte-identical requests.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace perfbench {

using prodb::Status;
using prodb::Tuple;
using prodb::TupleId;
namespace net = prodb::net;

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int64_t Uniform(uint64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// FNV-1a over reply bytes: the conflict-delta digest that ties the
/// in-process replay to the live server.
class Digest {
 public:
  void Add(const std::string& bytes);
  void AddU64(uint64_t v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// One wire exchange of a request.
struct Step {
  enum Kind { kBatch, kRun, kDump };
  Kind kind = kBatch;
  net::WireBatch batch;     // kBatch
  bool concurrent = false;  // kRun
  std::string cls;          // kDump
  /// Whether the step counts toward the request's latency (fire's
  /// per-cycle Job dump is a check, not part of the cycle).
  bool timed = true;
};

/// One unit of closed-loop work: a single kBatch, or one fire cycle.
struct Request {
  std::vector<Step> steps;
};

/// The conflict set as a client sees it: instantiation key -> rule,
/// maintained from the deltas every ack carries.
class ConflictTracker {
 public:
  /// Fails on an add of a present key or a remove of an absent one —
  /// either means the acks disagree with each other.
  Status Apply(const std::vector<net::WireConflictDelta>& deltas);
  size_t size() const { return live_.size(); }
  std::map<std::string, uint64_t> PerRule() const;
  void Erase(const std::string& key) { live_.erase(key); }
  const std::unordered_map<std::string, std::string>& live() const {
    return live_;
  }

 private:
  std::unordered_map<std::string, std::string> live_;
};

/// Adds a whole step reply to a digest, in the form the live client and
/// the in-process replay both see.
void DigestAck(const net::WireBatchAck& ack, Digest* d);
void DigestRun(const Step& step, const net::WireRunResult& r, Digest* d);

class Workload {
 public:
  virtual ~Workload() = default;

  /// The rule program the server is started with (--rules).
  virtual std::string Program() const = 0;
  /// Server flags beyond the shared `--tcp_port=0 --matcher=rete
  /// --planner --rules=<program>`; `db_path` is used only by `durable`.
  virtual std::vector<std::string> ServerFlags(
      const std::string& db_path) const = 0;
  virtual bool durable() const { return false; }
  /// Whether an op is a firing (fire) rather than an acked WM op.
  virtual bool ops_are_firings() const { return false; }
  virtual std::vector<std::pair<std::string, uint64_t>> Sizes() const = 0;
  /// Requests a run sends per second of --seconds. A run's work is fixed,
  /// not its length, so a faster server does not end a run with a longer
  /// firing log or a larger database file than a slower one. The rates
  /// are set so the reference container (4 vCPUs) needs about 0.8 s for
  /// a second's requests.
  virtual uint64_t requests_per_second() const = 0;

  /// Standing WM, one batch at a time; false once it is all sent.
  virtual bool NextPreload(net::WireBatch* batch) = 0;
  virtual Status OnPreloadAck(const net::WireBatch& batch,
                              const net::WireBatchAck& ack) = 0;

  virtual Request NextRequest() = 0;
  /// Reply hooks; a non-OK status fails the request.
  virtual Status OnAck(const Step& step, const net::WireBatchAck& ack) = 0;
  virtual Status OnRun(const Step& step, const net::WireRunResult& r);
  virtual Status OnDump(const Step& step, const net::WireDumpReply& r);

  /// Classes whose final kDump CheckFinal needs.
  virtual std::vector<std::string> FinalDumpClasses() const = 0;
  /// The run's output check, against the final dumps.
  virtual Status CheckFinal(
      const std::map<std::string, net::WireDumpReply>& dumps) const = 0;

  ConflictTracker& tracker() { return tracker_; }

 protected:
  explicit Workload(std::string name, uint64_t seed)
      : name_(std::move(name)), rng_(seed) {}

  std::string name_;
  Rng rng_;
  ConflictTracker tracker_;
};

/// `ingest`, `join`, `durable` or `fire`; nullptr for another name.
/// `scale` divides every standing-WM size (tests use small worlds).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, uint32_t scale = 1);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
