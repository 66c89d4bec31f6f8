#include "workloads.h"

#include <algorithm>
#include <deque>
#include <functional>

namespace perfbench {

using prodb::Value;

void Digest::Add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddU64(uint64_t v) {
  std::string bytes;
  net::PutU64(&bytes, v);
  Add(bytes);
}

Status ConflictTracker::Apply(
    const std::vector<net::WireConflictDelta>& deltas) {
  for (const net::WireConflictDelta& d : deltas) {
    if (d.added) {
      if (!live_.emplace(d.key, d.rule).second) {
        return Status::Corruption("ack re-adds live instantiation " + d.key);
      }
    } else if (live_.erase(d.key) == 0) {
      return Status::Corruption("ack removes unknown instantiation " + d.key);
    }
  }
  return Status::OK();
}

std::map<std::string, uint64_t> ConflictTracker::PerRule() const {
  std::map<std::string, uint64_t> out;
  for (const auto& [key, rule] : live_) ++out[rule];
  return out;
}

void DigestAck(const net::WireBatchAck& ack, Digest* d) {
  std::string bytes;
  net::EncodeConflictDeltas(ack.conflict, &bytes);
  d->Add(bytes);
}

void DigestRun(const Step& step, const net::WireRunResult& r, Digest* d) {
  d->AddU64(r.firings);
  d->AddU64(r.halted ? 1 : 0);
  std::vector<std::string> fired = r.fired;
  // Concurrent workers commit in thread-timing order; the multiset is
  // what is deterministic.
  if (step.concurrent) std::sort(fired.begin(), fired.end());
  for (const std::string& name : fired) d->Add(name + "\n");
}

Status Workload::OnRun(const Step&, const net::WireRunResult&) {
  return Status::InvalidArgument(name_ + " sends no kRun");
}

Status Workload::OnDump(const Step&, const net::WireDumpReply&) {
  return Status::InvalidArgument(name_ + " sends no per-request kDump");
}

namespace {

constexpr size_t kPreloadBatchOps = 1024;

/// Compares a dump against expected (id, tuple) rows, order-insensitive.
Status CompareDump(const std::string& cls, const net::WireDumpReply& got,
                   std::vector<std::pair<TupleId, Tuple>> want) {
  std::vector<std::pair<TupleId, Tuple>> have = got.tuples;
  auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(have.begin(), have.end(), by_id);
  std::sort(want.begin(), want.end(), by_id);
  if (have.size() != want.size()) {
    return Status::Corruption(cls + ": server holds " +
                              std::to_string(have.size()) +
                              " tuples, expected " +
                              std::to_string(want.size()));
  }
  for (size_t i = 0; i < have.size(); ++i) {
    if (have[i].first != want[i].first || have[i].second != want[i].second) {
      return Status::Corruption(
          cls + ": server has " + have[i].first.ToString() + " " +
          have[i].second.ToString() + ", expected " +
          want[i].first.ToString() + " " + want[i].second.ToString());
    }
  }
  return Status::OK();
}

net::WireOp Make(const std::string& cls, Tuple t) {
  net::WireOp op;
  op.kind = net::kOpMake;
  op.cls = cls;
  op.tuple = std::move(t);
  return op;
}

net::WireOp Remove(const std::string& cls, TupleId id) {
  net::WireOp op;
  op.kind = net::kOpRemove;
  op.cls = cls;
  op.id = id;
  return op;
}

net::WireOp Modify(const std::string& cls, TupleId id, Tuple t) {
  net::WireOp op;
  op.kind = net::kOpModify;
  op.cls = cls;
  op.id = id;
  op.tuple = std::move(t);
  return op;
}

int64_t At(const Tuple& t, size_t i) { return t[i].as_int(); }

/// The ids an ack assigned, paired with the makes/modifies that got them.
Status ForEachInsert(
    const net::WireBatch& batch, const net::WireBatchAck& ack,
    const std::function<void(const net::WireOp&, TupleId)>& fn) {
  auto is_insert = [](const net::WireOp& op) {
    return op.kind != net::kOpRemove;
  };
  const size_t inserts = static_cast<size_t>(
      std::count_if(batch.ops.begin(), batch.ops.end(), is_insert));
  if (inserts != ack.insert_ids.size()) {
    return Status::Corruption("ack carries " +
                              std::to_string(ack.insert_ids.size()) +
                              " ids for " + std::to_string(inserts) +
                              " inserts");
  }
  size_t next = 0;
  for (const net::WireOp& op : batch.ops) {
    if (is_insert(op)) fn(op, ack.insert_ids[next++]);
  }
  return Status::OK();
}

/// Distinct uniform picks from [0, n).
std::vector<size_t> Distinct(Rng* rng, size_t n, size_t k) {
  std::vector<size_t> out;
  while (out.size() < k) {
    size_t v = static_cast<size_t>(rng->Uniform(n));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

// ingest: a sliding window of sensor readings. Each request makes 16 new
// readings and removes the 16 oldest, so WM and the conflict set stay the
// same size; the 32 alarm rules hit the equality and range tiers of the
// discrimination index and ~1% of readings instantiate one.
class Ingest : public Workload {
 public:
  static constexpr int64_t kKinds = 32;
  static constexpr int64_t kVals = 1000;
  static constexpr int64_t kAlarmAbove = 990;
  static constexpr size_t kPerRequest = 16;

  Ingest(uint64_t seed, uint32_t scale)
      : Workload("ingest", seed), window_size_(65536 / scale) {}

  std::string Program() const override {
    std::string p = "(literalize Reading sensor kind val)\n";
    for (int64_t k = 0; k < kKinds; ++k) {
      p += "(p alarm" + std::to_string(k) + " (Reading ^kind " +
           std::to_string(k) + " ^val > " + std::to_string(kAlarmAbove) +
           ") --> (remove 1))\n";
    }
    return p;
  }
  std::vector<std::string> ServerFlags(const std::string&) const override {
    return {};
  }
  std::vector<std::pair<std::string, uint64_t>> Sizes() const override {
    return {{"window_readings", window_size_},
            {"rules", kKinds},
            {"makes_per_request", kPerRequest},
            {"removes_per_request", kPerRequest}};
  }
  uint64_t requests_per_second() const override { return 10000; }

  bool NextPreload(net::WireBatch* batch) override {
    if (preloaded_ >= window_size_) return false;
    batch->ops.clear();
    while (preloaded_ < window_size_ && batch->ops.size() < kPreloadBatchOps) {
      batch->ops.push_back(Make("Reading", NewReading()));
      ++preloaded_;
    }
    return true;
  }
  Status OnPreloadAck(const net::WireBatch& batch,
                      const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    return ForEachInsert(batch, ack, [&](const net::WireOp& op, TupleId id) {
      window_.emplace_back(id, op.tuple);
    });
  }

  Request NextRequest() override {
    Request req;
    Step step;
    for (size_t i = 0; i < kPerRequest; ++i) {
      step.batch.ops.push_back(Make("Reading", NewReading()));
    }
    for (size_t i = 0; i < kPerRequest; ++i) {
      step.batch.ops.push_back(Remove("Reading", window_[i].first));
    }
    req.steps.push_back(std::move(step));
    return req;
  }
  Status OnAck(const Step& step, const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<ptrdiff_t>(kPerRequest));
    return ForEachInsert(step.batch, ack,
                         [&](const net::WireOp& op, TupleId id) {
                           window_.emplace_back(id, op.tuple);
                         });
  }

  std::vector<std::string> FinalDumpClasses() const override {
    return {"Reading"};
  }
  Status CheckFinal(const std::map<std::string, net::WireDumpReply>& dumps)
      const override {
    auto it = dumps.find("Reading");
    if (it == dumps.end()) return Status::NotFound("no Reading dump");
    PRODB_RETURN_IF_ERROR(CompareDump(
        "Reading", it->second, {window_.begin(), window_.end()}));
    size_t alarms = static_cast<size_t>(
        std::count_if(window_.begin(), window_.end(), [](const auto& r) {
          return At(r.second, 2) > kAlarmAbove;
        }));
    if (tracker_.size() != alarms) {
      return Status::Corruption(
          "conflict set from acks holds " + std::to_string(tracker_.size()) +
          " instantiations, window implies " + std::to_string(alarms));
    }
    return Status::OK();
  }

 private:
  Tuple NewReading() {
    return Tuple{Value(next_sensor_++), Value(rng_.Uniform(kKinds)),
                 Value(rng_.Uniform(kVals))};
  }

  size_t window_size_;
  size_t preloaded_ = 0;
  int64_t next_sensor_ = 0;
  std::deque<std::pair<TupleId, Tuple>> window_;
};

// join: a three-way equi-join Order ⋈ Customer ⋈ Item per customer tier,
// with the region equality closing the cycle. Item modifies are right
// activations into ~50 Order⋈Customer tokens each; order makes/removes
// are left activations.
class Join : public Workload {
 public:
  static constexpr int64_t kRegions = 16;
  static constexpr int64_t kTiers = 8;
  static constexpr size_t kItemModifies = 8;
  static constexpr size_t kOrderChurn = 4;

  Join(uint64_t seed, uint32_t scale)
      : Workload("join", seed),
        num_customers_(5000 / scale),
        num_items_(1000 / scale),
        num_orders_(50000 / scale) {}

  std::string Program() const override {
    std::string p =
        "(literalize Customer id region tier)\n"
        "(literalize Item id region)\n"
        "(literalize Order id cust item)\n";
    for (int64_t k = 0; k < kTiers; ++k) {
      p += "(p ship" + std::to_string(k) +
           " (Order ^cust <c> ^item <i>)"
           " (Customer ^id <c> ^region <r> ^tier " +
           std::to_string(k) +
           ") (Item ^id <i> ^region <r>) --> (remove 1))\n";
    }
    return p;
  }
  std::vector<std::string> ServerFlags(const std::string&) const override {
    return {};
  }
  std::vector<std::pair<std::string, uint64_t>> Sizes() const override {
    return {{"customers", num_customers_}, {"items", num_items_},
            {"orders", num_orders_},       {"regions", kRegions},
            {"rules", kTiers},             {"item_modifies_per_request",
                                            kItemModifies},
            {"order_makes_per_request", kOrderChurn},
            {"order_removes_per_request", kOrderChurn}};
  }
  uint64_t requests_per_second() const override { return 800; }

  bool NextPreload(net::WireBatch* batch) override {
    batch->ops.clear();
    while (batch->ops.size() < kPreloadBatchOps) {
      if (sent_customers_ < num_customers_) {
        batch->ops.push_back(
            Make("Customer", Tuple{Value(static_cast<int64_t>(sent_customers_)),
                                   Value(rng_.Uniform(kRegions)),
                                   Value(rng_.Uniform(kTiers))}));
        ++sent_customers_;
      } else if (sent_items_ < num_items_) {
        batch->ops.push_back(
            Make("Item", Tuple{Value(static_cast<int64_t>(sent_items_)),
                               Value(rng_.Uniform(kRegions))}));
        ++sent_items_;
      } else if (sent_orders_ < num_orders_) {
        batch->ops.push_back(Make("Order", NewOrder()));
        ++sent_orders_;
      } else {
        break;
      }
    }
    return !batch->ops.empty();
  }
  Status OnPreloadAck(const net::WireBatch& batch,
                      const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    return ForEachInsert(batch, ack, [&](const net::WireOp& op, TupleId id) {
      if (op.cls == "Customer") {
        customers_.push_back(op.tuple);
      } else if (op.cls == "Item") {
        items_.emplace_back(id, op.tuple);
      } else {
        orders_.emplace_back(id, op.tuple);
      }
    });
  }

  Request NextRequest() override {
    Step step;
    for (size_t i : Distinct(&rng_, items_.size(), kItemModifies)) {
      const auto& [id, item] = items_[i];
      int64_t region =
          (At(item, 1) + 1 + rng_.Uniform(kRegions - 1)) % kRegions;
      step.batch.ops.push_back(
          Modify("Item", id, Tuple{item[0], Value(region)}));
    }
    for (size_t i = 0; i < kOrderChurn; ++i) {
      step.batch.ops.push_back(Make("Order", NewOrder()));
    }
    for (size_t i = 0; i < kOrderChurn; ++i) {
      step.batch.ops.push_back(Remove("Order", orders_[i].first));
    }
    Request req;
    req.steps.push_back(std::move(step));
    return req;
  }
  Status OnAck(const Step& step, const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    orders_.erase(orders_.begin(),
                  orders_.begin() + static_cast<ptrdiff_t>(kOrderChurn));
    return ForEachInsert(step.batch, ack,
                         [&](const net::WireOp& op, TupleId id) {
                           if (op.cls == "Item") {
                             items_[static_cast<size_t>(At(op.tuple, 0))] = {
                                 id, op.tuple};
                           } else {
                             orders_.emplace_back(id, op.tuple);
                           }
                         });
  }

  std::vector<std::string> FinalDumpClasses() const override { return {}; }
  Status CheckFinal(
      const std::map<std::string, net::WireDumpReply>&) const override {
    std::map<std::string, uint64_t> want;
    for (int64_t k = 0; k < kTiers; ++k) want["ship" + std::to_string(k)] = 0;
    for (const auto& [id, order] : orders_) {
      const Tuple& c = customers_[static_cast<size_t>(At(order, 1))];
      const Tuple& i = items_[static_cast<size_t>(At(order, 2))].second;
      if (At(c, 1) == At(i, 1)) ++want["ship" + std::to_string(At(c, 2))];
    }
    std::map<std::string, uint64_t> got = want;
    for (auto& [rule, n] : got) n = 0;
    for (const auto& [rule, n] : tracker_.PerRule()) got[rule] = n;
    for (const auto& [rule, n] : want) {
      if (got[rule] != n) {
        return Status::Corruption("rule " + rule + ": acks hold " +
                                  std::to_string(got[rule]) +
                                  " instantiations, the join implies " +
                                  std::to_string(n));
      }
    }
    if (got.size() != want.size()) {
      return Status::Corruption("acks hold instantiations of unknown rules");
    }
    return Status::OK();
  }

 private:
  Tuple NewOrder() {
    return Tuple{Value(next_order_++),
                 Value(rng_.Uniform(static_cast<uint64_t>(num_customers_))),
                 Value(rng_.Uniform(static_cast<uint64_t>(num_items_)))};
  }

  size_t num_customers_, num_items_, num_orders_;
  size_t sent_customers_ = 0, sent_items_ = 0, sent_orders_ = 0;
  int64_t next_order_ = 0;
  std::vector<Tuple> customers_;                     // index = id
  std::vector<std::pair<TupleId, Tuple>> items_;     // index = id
  std::deque<std::pair<TupleId, Tuple>> orders_;     // oldest first
};

// durable: uniformly random account modifies on a paged, WAL-backed WM
// larger than the buffer pool; every ack waits for a log force.
class Durable : public Workload {
 public:
  static constexpr int64_t kBranches = 64;
  static constexpr int64_t kBalLow = -50;
  static constexpr int64_t kBalSpan = 10000;
  static constexpr size_t kPerRequest = 16;
  static constexpr size_t kFrames = 256;

  Durable(uint64_t seed, uint32_t scale)
      : Workload("durable", seed), num_accounts_(100000 / scale) {}

  std::string Program() const override {
    return "(literalize Account id branch bal)\n"
           "(p overdrawn (Account ^bal < 0) --> (remove 1))\n";
  }
  std::vector<std::string> ServerFlags(
      const std::string& db_path) const override {
    return {"--db=" + db_path, "--durable",
            "--frames=" + std::to_string(kFrames)};
  }
  bool durable() const override { return true; }
  std::vector<std::pair<std::string, uint64_t>> Sizes() const override {
    return {{"accounts", num_accounts_},
            {"buffer_pool_frames", kFrames},
            {"modifies_per_request", kPerRequest}};
  }
  uint64_t requests_per_second() const override { return 1800; }

  bool NextPreload(net::WireBatch* batch) override {
    if (preloaded_ >= num_accounts_) return false;
    batch->ops.clear();
    while (preloaded_ < num_accounts_ && batch->ops.size() < kPreloadBatchOps) {
      batch->ops.push_back(
          Make("Account", NewAccount(static_cast<int64_t>(preloaded_++))));
    }
    return true;
  }
  Status OnPreloadAck(const net::WireBatch& batch,
                      const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(CheckDurable(ack));
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    return ForEachInsert(batch, ack, [&](const net::WireOp& op, TupleId id) {
      accounts_.emplace_back(id, op.tuple);
    });
  }

  Request NextRequest() override {
    Step step;
    for (size_t i : Distinct(&rng_, accounts_.size(), kPerRequest)) {
      step.batch.ops.push_back(Modify("Account", accounts_[i].first,
                                      NewAccount(static_cast<int64_t>(i))));
    }
    Request req;
    req.steps.push_back(std::move(step));
    return req;
  }
  Status OnAck(const Step& step, const net::WireBatchAck& ack) override {
    PRODB_RETURN_IF_ERROR(CheckDurable(ack));
    PRODB_RETURN_IF_ERROR(tracker_.Apply(ack.conflict));
    return ForEachInsert(step.batch, ack,
                         [&](const net::WireOp& op, TupleId id) {
                           accounts_[static_cast<size_t>(At(op.tuple, 0))] = {
                               id, op.tuple};
                         });
  }

  std::vector<std::string> FinalDumpClasses() const override {
    return {"Account"};
  }
  Status CheckFinal(const std::map<std::string, net::WireDumpReply>& dumps)
      const override {
    auto it = dumps.find("Account");
    if (it == dumps.end()) return Status::NotFound("no Account dump");
    PRODB_RETURN_IF_ERROR(CompareDump("Account", it->second, accounts_));
    size_t overdrawn = static_cast<size_t>(
        std::count_if(accounts_.begin(), accounts_.end(),
                      [](const auto& a) { return At(a.second, 2) < 0; }));
    if (tracker_.size() != overdrawn) {
      return Status::Corruption(
          "conflict set from acks holds " + std::to_string(tracker_.size()) +
          " instantiations, accounts imply " + std::to_string(overdrawn));
    }
    return Status::OK();
  }

 private:
  static Status CheckDurable(const net::WireBatchAck& ack) {
    if (!ack.durable || ack.durable_lsn == 0) {
      return Status::Corruption("batch acked without durability");
    }
    return Status::OK();
  }
  Tuple NewAccount(int64_t id) {
    return Tuple{Value(id), Value(rng_.Uniform(kBranches)),
                 Value(kBalLow + rng_.Uniform(kBalSpan))};
  }

  size_t num_accounts_;
  size_t preloaded_ = 0;
  std::vector<std::pair<TupleId, Tuple>> accounts_;  // index = account id
};

// fire: jobs pass three station stages and are removed; each cycle runs
// one batch through the serial recognize-act cycle and one through the
// concurrent transactional engine.
class Fire : public Workload {
 public:
  static constexpr int64_t kStages = 3;
  static constexpr size_t kJobsPerBatch = 128;
  static constexpr uint64_t kFiringsPerRun = kJobsPerBatch * (kStages + 1);

  Fire(uint64_t seed, uint32_t scale)
      : Workload("fire", seed), kinds_(4096 / scale) {}

  std::string Program() const override {
    std::string p =
        "(literalize Job id kind stage)\n"
        "(literalize Station kind stage)\n";
    for (int64_t s = 0; s < kStages; ++s) {
      p += "(p s" + std::to_string(s) + " (Job ^id <j> ^kind <k> ^stage " +
           std::to_string(s) + ") (Station ^kind <k> ^stage " +
           std::to_string(s) + ") --> (modify 1 ^stage " +
           std::to_string(s + 1) + "))\n";
    }
    p += "(p done (Job ^stage " + std::to_string(kStages) +
         ") --> (remove 1))\n";
    return p;
  }
  std::vector<std::string> ServerFlags(const std::string&) const override {
    return {"--workers=2"};
  }
  bool ops_are_firings() const override { return true; }
  std::vector<std::pair<std::string, uint64_t>> Sizes() const override {
    return {{"station_kinds", kinds_},
            {"stations", kinds_ * kStages},
            {"jobs_per_batch", kJobsPerBatch},
            {"firings_per_run", kFiringsPerRun}};
  }
  uint64_t requests_per_second() const override { return 11; }

  bool NextPreload(net::WireBatch* batch) override {
    const size_t total = kinds_ * kStages;
    if (sent_ >= total) return false;
    batch->ops.clear();
    while (sent_ < total && batch->ops.size() < kPreloadBatchOps) {
      batch->ops.push_back(
          Make("Station", Tuple{Value(static_cast<int64_t>(sent_ / kStages)),
                                Value(static_cast<int64_t>(sent_ % kStages))}));
      ++sent_;
    }
    return true;
  }
  Status OnPreloadAck(const net::WireBatch& batch,
                      const net::WireBatchAck& ack) override {
    return ForEachInsert(batch, ack, [&](const net::WireOp& op, TupleId id) {
      stations_.emplace_back(id, op.tuple);
    });
  }

  Request NextRequest() override {
    Request req;
    for (bool concurrent : {false, true}) {
      Step batch;
      for (size_t i = 0; i < kJobsPerBatch; ++i) {
        batch.batch.ops.push_back(
            Make("Job", Tuple{Value(next_job_++),
                              Value(rng_.Uniform(kinds_)), Value(0)}));
      }
      req.steps.push_back(std::move(batch));
      Step run;
      run.kind = Step::kRun;
      run.concurrent = concurrent;
      req.steps.push_back(std::move(run));
    }
    Step dump;
    dump.kind = Step::kDump;
    dump.cls = "Job";
    dump.timed = false;
    req.steps.push_back(std::move(dump));
    return req;
  }
  Status OnAck(const Step& step, const net::WireBatchAck& ack) override {
    // Every new job matches exactly one stage-0 station.
    size_t s0_adds = static_cast<size_t>(std::count_if(
        ack.conflict.begin(), ack.conflict.end(),
        [](const net::WireConflictDelta& d) { return d.added && d.rule == "s0"; }));
    if (ack.conflict.size() != step.batch.ops.size() ||
        s0_adds != step.batch.ops.size() ||
        ack.insert_ids.size() != step.batch.ops.size()) {
      return Status::Corruption("job batch ack carries " +
                                std::to_string(ack.conflict.size()) +
                                " deltas for " +
                                std::to_string(step.batch.ops.size()) +
                                " jobs");
    }
    return Status::OK();
  }
  Status OnRun(const Step& step, const net::WireRunResult& r) override {
    if (r.firings != kFiringsPerRun || r.halted) {
      return Status::Corruption(
          std::string(step.concurrent ? "concurrent" : "serial") +
          " run fired " + std::to_string(r.firings) + " (halted=" +
          (r.halted ? "true" : "false") + "), expected " +
          std::to_string(kFiringsPerRun));
    }
    return Status::OK();
  }
  Status OnDump(const Step&, const net::WireDumpReply& r) override {
    if (!r.tuples.empty()) {
      return Status::Corruption(std::to_string(r.tuples.size()) +
                                " Job tuples survived the cycle");
    }
    return Status::OK();
  }

  std::vector<std::string> FinalDumpClasses() const override {
    return {"Job", "Station"};
  }
  Status CheckFinal(const std::map<std::string, net::WireDumpReply>& dumps)
      const override {
    auto job = dumps.find("Job");
    auto station = dumps.find("Station");
    if (job == dumps.end() || station == dumps.end()) {
      return Status::NotFound("missing final dumps");
    }
    PRODB_RETURN_IF_ERROR(CompareDump("Job", job->second, {}));
    return CompareDump("Station", station->second, stations_);
  }

 private:
  uint64_t kinds_;
  size_t sent_ = 0;
  int64_t next_job_ = 0;
  std::vector<std::pair<TupleId, Tuple>> stations_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest", "join", "durable",
                                                 "fire"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, uint32_t scale) {
  if (scale == 0) scale = 1;
  // Salt the seed per workload so workloads never share a stream.
  if (name == "ingest") return std::make_unique<Ingest>(seed * 4 + 0, scale);
  if (name == "join") return std::make_unique<Join>(seed * 4 + 1, scale);
  if (name == "durable") return std::make_unique<Durable>(seed * 4 + 2, scale);
  if (name == "fire") return std::make_unique<Fire>(seed * 4 + 3, scale);
  return nullptr;
}

}  // namespace perfbench
