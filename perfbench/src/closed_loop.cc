#include "closed_loop.h"

#include <map>

namespace perfbench {

Status Preload(Workload* w, Executor* ex, Digest* digest) {
  net::WireBatch batch;
  while (w->NextPreload(&batch)) {
    net::WireBatchAck ack;
    PRODB_RETURN_IF_ERROR(ex->Apply(batch, &ack));
    DigestAck(ack, digest);
    PRODB_RETURN_IF_ERROR(w->OnPreloadAck(batch, ack));
  }
  return Status::OK();
}

Outcome Execute(Workload* w, Executor* ex, const Request& req,
                Digest* digest) {
  Outcome out;
  ex->BeginRequest();
  for (const Step& step : req.steps) {
    // Latency covers the exchange only (send through reply decoded), not
    // the client's bookkeeping of the reply.
    const double start = NowSeconds();
    auto exchanged = [&] {
      if (step.timed) out.latency_us += (NowSeconds() - start) * 1e6;
    };
    Status st;
    switch (step.kind) {
      case Step::kBatch: {
        net::WireBatchAck ack;
        st = ex->Apply(step.batch, &ack);
        exchanged();
        if (st.ok()) {
          DigestAck(ack, digest);
          st = w->OnAck(step, ack);
          if (!w->ops_are_firings()) out.ops += step.batch.ops.size();
        }
        break;
      }
      case Step::kRun: {
        net::WireRunResult r;
        st = ex->Run(step.concurrent, &r);
        exchanged();
        if (st.ok()) {
          DigestRun(step, r, digest);
          st = w->OnRun(step, r);
          if (w->ops_are_firings()) out.ops += r.firings;
        }
        break;
      }
      case Step::kDump: {
        net::WireDumpReply r;
        st = ex->Dump(step.cls, &r);
        exchanged();
        if (st.ok()) st = w->OnDump(step, r);
        break;
      }
    }
    if (!st.ok()) {
      out.status = st;
      break;
    }
  }
  return out;
}

Status CheckFinal(Workload* w, Executor* ex) {
  std::map<std::string, net::WireDumpReply> dumps;
  for (const std::string& cls : w->FinalDumpClasses()) {
    PRODB_RETURN_IF_ERROR(ex->Dump(cls, &dumps[cls]));
  }
  return w->CheckFinal(dumps);
}

}  // namespace perfbench
