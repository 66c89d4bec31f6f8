#include "net/server.h"

#include <sys/socket.h>

#include <utility>

#include "storage/wal.h"

namespace prodb {
namespace net {

RuleServer::RuleServer(RuleServerOptions options)
    : options_(std::move(options)) {}

RuleServer::~RuleServer() { Stop(); }

Status RuleServer::Start() {
  if (options_.tcp_port < 0 && options_.unix_path.empty()) {
    return Status::InvalidArgument(
        "server needs a TCP port or a unix socket path");
  }
  system_ = std::make_unique<ProductionSystem>(options_.system);
  if (!options_.preload.empty()) {
    PRODB_RETURN_IF_ERROR(system_->LoadString(options_.preload));
  }
  if (options_.system.open_existing && options_.system.durable_directory) {
    // Reopened durable database: recovery rebuilt the WM relations, the
    // preload reinstalled the rules — replay WM into the matcher so the
    // conflict set matches the pre-crash acked state.
    PRODB_RETURN_IF_ERROR(system_->ReseedMatcher());
  }
  if (options_.tcp_port >= 0) {
    PRODB_RETURN_IF_ERROR(ListenTcp(options_.tcp_host, options_.tcp_port,
                                    options_.backlog, &tcp_listener_,
                                    &tcp_port_));
  }
  if (!options_.unix_path.empty()) {
    PRODB_RETURN_IF_ERROR(
        ListenUnix(options_.unix_path, options_.backlog, &unix_listener_));
  }
  running_.store(true);
  if (tcp_listener_.valid()) {
    accept_threads_.emplace_back([this] { AcceptLoop(&tcp_listener_); });
  }
  if (unix_listener_.valid()) {
    accept_threads_.emplace_back([this] { AcceptLoop(&unix_listener_); });
  }
  return Status::OK();
}

void RuleServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock the accept() calls, then the session reads.
  if (tcp_listener_.valid()) ::shutdown(tcp_listener_.fd(), SHUT_RDWR);
  if (unix_listener_.valid()) ::shutdown(unix_listener_.fd(), SHUT_RDWR);
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  tcp_listener_.Close();
  unix_listener_.Close();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    if (s->sock.valid()) ::shutdown(s->sock.fd(), SHUT_RDWR);
  }
  for (auto& s : sessions) {
    if (s->thread.joinable()) s->thread.join();
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void RuleServer::AcceptLoop(Socket* listener) {
  while (running_.load()) {
    Socket conn;
    Status st = Accept(*listener, &conn);
    if (!st.ok()) {
      if (!running_.load()) return;
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_unique<Session>();
    session->sock = std::move(conn);
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      // Reap finished sessions so a long-lived server with connection
      // churn does not accumulate joinable threads.
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load()) {
          (*it)->thread.join();
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void RuleServer::SendError(Socket* sock, const Status& st) {
  stats_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
  std::string payload;
  EncodeError(st, &payload);
  // A failed send just means the peer is gone; the session loop notices
  // on its next read.
  Status sent = sock->SendFrame(MsgType::kError, payload);
  (void)sent;
}

void RuleServer::SessionLoop(Session* session) {
  stats_.sessions_active.fetch_add(1, std::memory_order_relaxed);
  Socket* sock = &session->sock;

  // Handshake: the first frame must be kHello carrying the magic, so a
  // client that dialed the wrong port fails loudly instead of having its
  // first request misparsed.
  MsgType type;
  std::string payload;
  Status st = sock->RecvFrame(&type, &payload);
  bool handshaken = false;
  if (st.ok() && type == MsgType::kHello) {
    size_t off = 0;
    uint32_t magic = 0;
    if (GetU32(payload.data(), payload.size(), &off, &magic) &&
        magic == kHelloMagic) {
      std::string reply;
      PutU8(&reply, options_.system.enable_wal ? 1 : 0);
      handshaken = sock->SendFrame(MsgType::kHelloOk, reply).ok();
    } else {
      SendError(sock, Status::InvalidArgument("bad hello magic"));
    }
  } else if (st.ok()) {
    SendError(sock, Status::InvalidArgument(
                        "expected hello as the first frame"));
  }

  while (handshaken && running_.load()) {
    st = sock->RecvFrame(&type, &payload);
    if (st.IsNotFound()) break;  // clean close at a frame boundary
    if (!st.ok()) {
      if (st.IsInvalidArgument()) {
        // Oversize or malformed header: the stream cannot be
        // resynchronized — report and hang up.
        SendError(sock, st);
      }
      break;
    }
    Status io = Status::OK();
    switch (type) {
      case MsgType::kBatch:
        io = HandleBatch(sock, payload);
        break;
      case MsgType::kRun:
        io = HandleRun(sock, payload);
        break;
      case MsgType::kLoad:
        io = HandleLoad(sock, payload);
        break;
      case MsgType::kDump:
        io = HandleDump(sock, payload);
        break;
      case MsgType::kStats:
        io = HandleStats(sock);
        break;
      case MsgType::kPing:
        io = sock->SendFrame(MsgType::kPong, "");
        break;
      default:
        // Unknown-but-intact frame: recoverable; the session continues.
        SendError(sock, Status::InvalidArgument(
                            "unexpected frame type " +
                            std::to_string(static_cast<int>(type))));
        break;
    }
    if (!io.ok()) break;  // reply did not reach the peer
  }
  // Shutdown, not Close: Stop() may still address this socket by fd to
  // unblock it. Closing here would race on fd_ and — if the kernel
  // recycled the number for a newly accepted connection — let Stop()
  // shut down an unrelated descriptor. The fd stays owned by the
  // Session and is closed by its destructor, which only runs after
  // this thread is joined (AcceptLoop reap or Stop).
  if (sock->valid()) ::shutdown(sock->fd(), SHUT_RDWR);
  stats_.sessions_active.fetch_sub(1, std::memory_order_relaxed);
  session->done.store(true);
}

Status RuleServer::ApplyBatchOnce(const WireBatch& batch,
                                  WireBatchAck* ack) {
  TxnManager& txns = system_->concurrent_engine().txn_manager();
  auto txn = txns.Begin();
  std::vector<TupleId> insert_ids;

  // RHS verbs under 2PL write locks; the transaction records the batch's
  // whole ∆. Any failure aborts through the one compensation.
  for (const WireOp& op : batch.ops) {
    Status st;
    TupleId id;
    switch (op.kind) {
      case kOpMake:
        st = txn->Insert(op.cls, op.tuple, &id);
        break;
      case kOpRemove:
        st = txn->Delete(op.cls, op.id);
        break;
      case kOpModify:
        st = txn->Modify(op.cls, op.id, op.tuple, &id);
        break;
      default:
        st = Status::InvalidArgument("unknown batch op kind");
        break;
    }
    if (!st.ok()) return txns.Abort(txn.get(), st);
    if (op.kind != kOpRemove) insert_ids.push_back(id);
  }

  // The commit point. Maintenance runs under the server's maintenance
  // mutex: the delta-listener bracket must capture exactly this batch's
  // conflict-set mutations, and no other session (or a kRun drain) may
  // interleave an OnBatch. The commit force runs after the mutex is
  // released, so concurrently acking sessions share one log force (group
  // commit). On an error the ack is discarded (HandleBatch).
  PRODB_RETURN_IF_ERROR(txns.Commit(txn.get(), [&](const ChangeSet& delta) {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    ConflictSet& cs = system_->conflict_set();
    cs.SetDeltaListener([&](bool added, const std::string& key,
                            const Instantiation* inst) {
      WireConflictDelta cd;
      cd.added = added;
      cd.key = key;
      if (inst != nullptr) cd.rule = inst->rule_name;
      ack->conflict.push_back(std::move(cd));
    });
    Status st = system_->matcher().OnBatch(delta);
    cs.SetDeltaListener(nullptr);
    return st;
  }));

  ack->txn_id = txn->id();
  if (LogManager* wal = system_->catalog().wal()) {
    ack->durable = true;
    ack->durable_lsn = wal->flushed_lsn();
  }
  ack->insert_ids = std::move(insert_ids);
  return Status::OK();
}

Status RuleServer::HandleBatch(Socket* sock, const std::string& payload) {
  WireBatch batch;
  Status st = DecodeBatch(payload, &batch);
  if (!st.ok()) {
    SendError(sock, st);  // intact but malformed: session continues
    return Status::OK();
  }

  WireBatchAck ack;
  if (batch.ops.empty()) {
    // Empty batch = durability barrier: force everything buffered so
    // far (auto-commit mutations, directory entries) and ack the LSN.
    Lsn lsn = 0;
    st = system_->catalog().ForceDurable(&lsn);
    if (!st.ok()) {
      SendError(sock, st);
      return Status::OK();
    }
    ack.durable = options_.system.enable_wal;
    ack.durable_lsn = lsn;
  } else {
    for (size_t attempt = 0;; ++attempt) {
      ack = WireBatchAck{};
      st = ApplyBatchOnce(batch, &ack);
      if (st.ok()) break;
      if (st.IsDeadlock() && attempt < options_.deadlock_retries) {
        stats_.deadlock_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      SendError(sock, st);
      return Status::OK();
    }
    stats_.batches_applied.fetch_add(1, std::memory_order_relaxed);
    stats_.ops_applied.fetch_add(batch.ops.size(),
                                 std::memory_order_relaxed);
  }
  std::string reply;
  EncodeBatchAck(ack, &reply);
  return sock->SendFrame(MsgType::kBatchAck, reply);
}

Status RuleServer::HandleRun(Socket* sock, const std::string& payload) {
  size_t off = 0;
  uint8_t mode = 0;
  if (!GetU8(payload.data(), payload.size(), &off, &mode) || mode > 1) {
    SendError(sock, Status::InvalidArgument("bad run mode"));
    return Status::OK();
  }
  stats_.runs.fetch_add(1, std::memory_order_relaxed);
  WireRunResult result;
  Status st;
  {
    std::lock_guard<std::mutex> run(run_mu_);
    if (mode == 1) {
      // Workers take 2PL locks, so the maintenance mutex is taken per
      // firing, at its commit, like a session's (see maintenance_mu_).
      // This session thread is worker 0.
      ConcurrentEngine& engine = system_->concurrent_engine();
      ConcurrentRunResult r;
      st = engine.Run(&r, &maintenance_mu_);
      result.firings = r.firings;
      result.halted = r.halted;
      if (st.ok()) result.fired = engine.commit_log();
    } else {
      std::lock_guard<std::mutex> lock(maintenance_mu_);
      const size_t before =
          system_->sequential_engine().firing_log().size();
      EngineRunResult r;
      st = system_->Run(&r);
      result.firings = r.firings;
      result.halted = r.halted;
      if (st.ok()) {
        const auto& log = system_->sequential_engine().firing_log();
        result.fired.assign(log.begin() + static_cast<ptrdiff_t>(before),
                            log.end());
      }
    }
  }
  if (!st.ok()) {
    SendError(sock, st);
    return Status::OK();
  }
  std::string reply;
  EncodeRunResult(result, &reply);
  return sock->SendFrame(MsgType::kRunResult, reply);
}

Status RuleServer::HandleLoad(Socket* sock, const std::string& payload) {
  if (!options_.allow_load) {
    SendError(sock, Status::NotSupported("kLoad disabled on this server"));
    return Status::OK();
  }
  size_t off = 0;
  std::string source;
  if (!GetString(payload.data(), payload.size(), &off, &source)) {
    SendError(sock, Status::InvalidArgument("truncated load payload"));
    return Status::OK();
  }
  Status st;
  {
    // A concurrent run reads the rules outside maintenance_mu_, so an
    // install waits for it through run_mu_.
    std::lock_guard<std::mutex> run(run_mu_);
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    st = system_->LoadString(source);
  }
  if (st.ok() && options_.system.enable_wal) {
    // New class declarations wrote directory entries; make them durable
    // before telling the client its classes exist.
    st = system_->catalog().ForceDurable();
  }
  if (!st.ok()) {
    SendError(sock, st);
    return Status::OK();
  }
  return sock->SendFrame(MsgType::kOk, "");
}

Status RuleServer::HandleDump(Socket* sock, const std::string& payload) {
  size_t off = 0;
  std::string cls;
  if (!GetString(payload.data(), payload.size(), &off, &cls)) {
    SendError(sock, Status::InvalidArgument("truncated dump payload"));
    return Status::OK();
  }
  WireDumpReply reply;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    Relation* rel = system_->catalog().Get(cls);
    if (rel == nullptr) {
      SendError(sock, Status::NotFound("class " + cls));
      return Status::OK();
    }
    Status st = rel->Scan([&](TupleId id, const Tuple& t) {
      reply.tuples.emplace_back(id, t);
      return Status::OK();
    });
    if (!st.ok()) {
      SendError(sock, st);
      return Status::OK();
    }
  }
  std::string out;
  EncodeDumpReply(reply, &out);
  return sock->SendFrame(MsgType::kDumpReply, out);
}

Status RuleServer::HandleStats(Socket* sock) {
  WireStatsReply reply;
  auto add = [&](const char* key, uint64_t v) {
    reply.counters.emplace_back(key, v);
  };
  add("connections_accepted", stats_.connections_accepted.load());
  add("sessions_active", stats_.sessions_active.load());
  add("batches_applied", stats_.batches_applied.load());
  add("ops_applied", stats_.ops_applied.load());
  add("deadlock_retries", stats_.deadlock_retries.load());
  add("frames_rejected", stats_.frames_rejected.load());
  add("runs", stats_.runs.load());
  const MatcherStats& ms = system_->matcher().stats();
  add("matcher_batches", ms.batches.load());
  add("matcher_propagations", ms.propagations.load());
  add("matcher_tuples_examined", ms.tuples_examined.load());
  add("plans_built", ms.plans_built.load());
  std::vector<ShardStats> shards = system_->matcher().ShardStatsSnapshot();
  add("match_shards", shards.size());
  DurabilityStats ds = system_->catalog().GetDurabilityStats();
  add("wal_records_appended", ds.wal_records_appended);
  add("wal_flushes", ds.wal_flushes);
  add("durable_forces", ds.durable_forces);
  add("checkpoints_taken", ds.checkpoints_taken);
  std::string out;
  EncodeStatsReply(reply, &out);
  return sock->SendFrame(MsgType::kStatsReply, out);
}

}  // namespace net
}  // namespace prodb
