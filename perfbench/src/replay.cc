#include "replay.h"

#include <chrono>

#include "net/protocol.h"

namespace perfbench {

using prodb::ChangeSet;
using prodb::Instantiation;

const char* SpanLabel(SpanName name) {
  static const char* const kLabels[kNumSpanNames] = {
      "frame",         "net.decode",      "txn.begin",
      "txn.writes",    "match.on_batch",  "txn.commit",
      "net.encode_ack", "engine.run_serial", "engine.run_concurrent",
      "db.dump"};
  return kLabels[name];
}

ReplayServer::ReplayServer(const Workload& workload, std::string db_path)
    : options_(Options(workload, db_path)), program_(workload.Program()) {}

prodb::ProductionSystemOptions ReplayServer::Options(
    const Workload& workload, const std::string& db_path) {
  // The server's flags, translated the way tools/server_main.cc does.
  prodb::ProductionSystemOptions o;
  o.matcher = prodb::MatcherKind::kRete;
  o.planner.enable = true;
  for (const std::string& flag : workload.ServerFlags(db_path)) {
    if (flag.rfind("--db=", 0) == 0) {
      o.db_path = flag.substr(5);
      o.wm_storage = prodb::StorageKind::kPaged;
    } else if (flag == "--durable") {
      o.enable_wal = true;
      o.durable_directory = true;
    } else if (flag.rfind("--frames=", 0) == 0) {
      o.buffer_pool_frames = std::stoul(flag.substr(9));
    } else if (flag.rfind("--workers=", 0) == 0) {
      o.workers = std::stoul(flag.substr(10));
    }
  }
  return o;
}

Status ReplayServer::Start() {
  system_ = std::make_unique<prodb::ProductionSystem>(options_);
  return system_->LoadString(program_);
}

int64_t ReplayServer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ReplayServer::Apply(const net::WireBatch& batch,
                           net::WireBatchAck* ack) {
  // What the client puts on the wire; encoding it is client work.
  std::string payload;
  net::EncodeBatch(batch, &payload);
  counts_.req_bytes += net::kFrameHeaderBytes + payload.size();

  const int64_t frame = Now();
  int64_t t = frame;
  net::WireBatch decoded;
  Status st = net::DecodeBatch(payload, &decoded);
  Record(kSpanDecode, t, Now());
  PRODB_RETURN_IF_ERROR(st);
  if (decoded.ops.empty()) {
    return Status::InvalidArgument("the replay does not model barriers");
  }
  *ack = net::WireBatchAck{};
  PRODB_RETURN_IF_ERROR(ApplyOnce(decoded, ack));
  ++counts_.batches;
  counts_.ops += decoded.ops.size();
  counts_.conflict_deltas += ack->conflict.size();

  t = Now();
  std::string reply;
  net::EncodeBatchAck(*ack, &reply);
  Record(kSpanEncode, t, Now());
  Record(kSpanFrame, frame, Now());
  counts_.ack_bytes += net::kFrameHeaderBytes + reply.size();
  return Status::OK();
}

Status ReplayServer::ApplyOnce(const net::WireBatch& batch,
                               net::WireBatchAck* ack) {
  prodb::ConcurrentEngine& engine = system_->concurrent_engine();
  int64_t t = Now();
  auto txn = engine.txn_manager().Begin();
  Record(kSpanBegin, t, Now());

  // A failure here is a benchmark failure, not a path to measure: roll
  // back through the transaction manager and report it.
  auto fail = [&](Status st) {
    Status undone = engine.txn_manager().Abort(txn.get());
    return undone.ok() ? st : undone;
  };

  t = Now();
  ChangeSet delta;
  std::vector<TupleId> insert_ids;
  for (const net::WireOp& op : batch.ops) {
    switch (op.kind) {
      case net::kOpMake: {
        TupleId id;
        Status st = txn->Insert(op.cls, op.tuple, &id);
        if (!st.ok()) return fail(st);
        delta.AddInsert(op.cls, op.tuple, id);
        insert_ids.push_back(id);
        break;
      }
      case net::kOpRemove: {
        Tuple old;
        Status st = txn->Read(op.cls, op.id, &old);
        if (st.ok()) st = txn->Delete(op.cls, op.id);
        if (!st.ok()) return fail(st);
        delta.AddDelete(op.cls, op.id, old);
        break;
      }
      case net::kOpModify: {
        Tuple old;
        Status st = txn->Read(op.cls, op.id, &old);
        if (st.ok()) st = txn->Delete(op.cls, op.id);
        if (!st.ok()) return fail(st);
        TupleId id;
        st = txn->Insert(op.cls, op.tuple, &id);
        if (!st.ok()) return fail(st);
        delta.AddModify(op.cls, op.id, old, op.tuple, id);
        insert_ids.push_back(id);
        break;
      }
      default:
        return fail(Status::InvalidArgument("unknown batch op kind"));
    }
  }
  Record(kSpanWrites, t, Now());

  t = Now();
  prodb::ConflictSet& cs = system_->conflict_set();
  cs.SetDeltaListener([&](bool added, const std::string& key,
                          const Instantiation* inst) {
    net::WireConflictDelta cd;
    cd.added = added;
    cd.key = key;
    if (inst != nullptr) cd.rule = inst->rule_name;
    ack->conflict.push_back(std::move(cd));
  });
  Status st = system_->matcher().OnBatch(delta);
  cs.SetDeltaListener(nullptr);
  Record(kSpanOnBatch, t, Now());
  if (!st.ok()) return fail(st);

  t = Now();
  st = engine.txn_manager().Commit(txn.get());
  Record(kSpanCommit, t, Now());
  if (!st.ok()) return fail(st);

  ack->txn_id = txn->id();
  if (prodb::LogManager* wal = system_->catalog().wal()) {
    ack->durable = true;
    ack->durable_lsn = wal->flushed_lsn();
  }
  ack->insert_ids = std::move(insert_ids);
  return Status::OK();
}

Status ReplayServer::Run(bool concurrent, net::WireRunResult* result) {
  counts_.req_bytes += net::kFrameHeaderBytes + 1;
  counts_.pending_at_run += system_->conflict_set().size();
  *result = net::WireRunResult{};
  const int64_t frame = Now();
  int64_t t = frame;
  Status st;
  if (concurrent) {
    prodb::ConcurrentRunResult r;
    st = system_->RunConcurrent(&r);
    result->firings = r.firings;
    result->halted = r.halted;
    if (st.ok()) result->fired = system_->concurrent_engine().commit_log();
    counts_.stale += r.stale_skipped;
    counts_.deadlock_aborts += r.deadlock_aborts;
    ++counts_.concurrent_runs;
    counts_.concurrent_firings += r.firings;
  } else {
    const auto& log = system_->sequential_engine().firing_log();
    const size_t before = log.size();
    prodb::EngineRunResult r;
    st = system_->Run(&r);
    result->firings = r.firings;
    result->halted = r.halted;
    if (st.ok()) {
      result->fired.assign(log.begin() + static_cast<ptrdiff_t>(before),
                           log.end());
    }
    counts_.stale += r.stale_skipped;
    ++counts_.serial_runs;
    counts_.serial_firings += r.firings;
  }
  Record(concurrent ? kSpanRunConcurrent : kSpanRunSerial, t, Now());
  PRODB_RETURN_IF_ERROR(st);
  t = Now();
  std::string reply;
  net::EncodeRunResult(*result, &reply);
  Record(kSpanEncode, t, Now());
  Record(kSpanFrame, frame, Now());
  counts_.ack_bytes += net::kFrameHeaderBytes + reply.size();
  return Status::OK();
}

Status DumpRelation(const prodb::Catalog& catalog, const std::string& cls,
                    net::WireDumpReply* reply) {
  reply->tuples.clear();
  const prodb::Relation* rel = catalog.Get(cls);
  if (rel == nullptr) return Status::NotFound("class " + cls);
  return rel->Scan([&](TupleId id, const Tuple& tuple) {
    reply->tuples.emplace_back(id, tuple);
    return Status::OK();
  });
}

Status ReplayServer::Dump(const std::string& cls, net::WireDumpReply* reply) {
  int64_t t = Now();
  Status st = DumpRelation(system_->catalog(), cls, reply);
  Record(kSpanDump, t, Now());
  return st;
}

}  // namespace perfbench
