#include "match/sharding.h"

#include <chrono>

namespace prodb {

size_t FanOut::Workers(const ShardingOptions& sharding) {
  if (!sharding.enabled()) return 1;
  return sharding.threads == 0 ? sharding.num_shards : sharding.threads;
}

FanOut::FanOut(size_t workers) {
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
}

Status FanOut::RunParts(size_t n, const std::function<Status(size_t)>& part,
                        std::vector<ShardStats>* stats, size_t* failed) {
  using Clock = std::chrono::steady_clock;
  std::vector<Status> statuses(n);
  std::vector<Clock::time_point> done_at(stats == nullptr ? 0 : n);
  auto run = [&](size_t i) {
    statuses[i] = part(i);
    if (stats != nullptr) done_at[i] = Clock::now();
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, run);
  } else {
    for (size_t i = 0; i < n; ++i) run(i);
  }
  if (stats != nullptr) {
    const Clock::time_point joined = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      (*stats)[i].merge_wait_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(joined -
                                                               done_at[i])
              .count());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      if (failed != nullptr) *failed = i;
      return statuses[i];
    }
  }
  if (failed != nullptr) *failed = n;
  return Status::OK();
}

double ShardImbalance(const std::vector<ShardStats>& stats) {
  if (stats.empty()) return 1.0;
  uint64_t total = 0;
  uint64_t max = 0;
  for (const ShardStats& s : stats) {
    total += s.deltas_routed;
    if (s.deltas_routed > max) max = s.deltas_routed;
  }
  if (total == 0) return 1.0;
  double mean = static_cast<double>(total) / static_cast<double>(stats.size());
  return static_cast<double>(max) / mean;
}

}  // namespace prodb
