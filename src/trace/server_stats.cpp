#include "trace/server_stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace pio::trace {

ServerStatsCollector::ServerStatsCollector(SimTime window) : window_(window) {
  if (window <= SimTime::zero()) {
    throw std::invalid_argument("ServerStatsCollector: window must be positive");
  }
}

void ServerStatsCollector::attach(pfs::PfsModel& model) {
  model.set_ost_observer([this](const pfs::OstOpRecord& r) { on_ost_record(r); });
  model.set_mds_observer([this](const pfs::MdsOpRecord& r) { on_mds_record(r); });
  model.set_resilience_observer(
      [this](const pfs::ResilienceRecord& r) { on_resilience_record(r); });
}

void ServerStatsCollector::on_ost_record(const pfs::OstOpRecord& record) {
  auto& sample = ost_series_[record.ost][window_of(record.completed)];
  sample.window = window_of(record.completed);
  if (record.is_write) {
    ++sample.write_ops;
  } else {
    ++sample.read_ops;
  }
  if (record.ok) {
    // Only ops the device actually served move bytes.
    if (record.is_write) {
      sample.bytes_written += record.size;
    } else {
      sample.bytes_read += record.size;
    }
  } else {
    ++sample.failed_ops;
  }
  sample.total_latency += record.completed - record.enqueued;
  sample.max_queue_depth = std::max(sample.max_queue_depth, record.queue_depth_at_enqueue);
}

void ServerStatsCollector::on_mds_record(const pfs::MdsOpRecord& record) {
  auto& sample = mds_series_[window_of(record.completed)];
  sample.window = window_of(record.completed);
  ++sample.meta_ops;
  if (record.status != pfs::MetaStatus::kOk) ++sample.failed_ops;
  sample.total_latency += record.completed - record.enqueued;
}

void ServerStatsCollector::on_resilience_record(const pfs::ResilienceRecord& record) {
  auto& sample = resilience_series_[window_of(record.at)];
  sample.window = window_of(record.at);
  switch (record.kind) {
    case pfs::ResilienceEventKind::kRetry: ++sample.retries; break;
    case pfs::ResilienceEventKind::kTimeout: ++sample.timeouts; break;
    case pfs::ResilienceEventKind::kGiveUp: ++sample.giveups; break;
    case pfs::ResilienceEventKind::kFailover: ++sample.failovers; break;
    case pfs::ResilienceEventKind::kDegradedRead: ++sample.degraded_reads; break;
    case pfs::ResilienceEventKind::kStaleMapRetry: ++sample.stale_map_retries; break;
    case pfs::ResilienceEventKind::kDetectedDown: ++sample.down_detections; break;
    case pfs::ResilienceEventKind::kDetectedUp: ++sample.up_detections; break;
    case pfs::ResilienceEventKind::kBudgetExhausted: ++sample.budget_exhaustions; break;
    case pfs::ResilienceEventKind::kBreakerOpen: ++sample.breaker_opens; break;
    case pfs::ResilienceEventKind::kBreakerProbe: ++sample.breaker_probes; break;
    case pfs::ResilienceEventKind::kBreakerClose: ++sample.breaker_closes; break;
    case pfs::ResilienceEventKind::kDeadlineGiveUp: ++sample.deadline_giveups; break;
    case pfs::ResilienceEventKind::kRebuildStart:
    case pfs::ResilienceEventKind::kRebuildDone: {
      auto& rebuild = rebuild_series_[record.ost][sample.window];
      rebuild.window = sample.window;
      if (record.kind == pfs::ResilienceEventKind::kRebuildStart) {
        ++rebuild.started;
      } else {
        ++rebuild.completed;
        rebuild.rebuilt += record.bytes;
      }
      break;
    }
  }
}

void ServerStatsCollector::on_cache_record(const cache::CacheRecord& record) {
  auto& sample = cache_series_[window_of(record.at)];
  sample.window = window_of(record.at);
  switch (record.kind) {
    case cache::CacheEventKind::kHit:
      ++sample.hit_events;
      sample.hit_bytes += record.bytes;
      break;
    case cache::CacheEventKind::kMiss:
      ++sample.miss_events;
      sample.miss_bytes += record.bytes;
      break;
    case cache::CacheEventKind::kEviction: ++sample.evictions; break;
    case cache::CacheEventKind::kPrefetchIssue: ++sample.prefetch_issues; break;
    case cache::CacheEventKind::kWriteback:
      ++sample.writebacks;
      sample.writeback_bytes += record.bytes;
      break;
    case cache::CacheEventKind::kAbsorbedWrite: ++sample.absorbed_writes; break;
  }
}

ServerSeries ServerStatsCollector::aggregate_osts() const {
  ServerSeries out;
  for (const auto& [ost, series] : ost_series_) {
    for (const auto& [window, sample] : series) {
      auto& agg = out[window];
      agg.window = window;
      agg.read_ops += sample.read_ops;
      agg.write_ops += sample.write_ops;
      agg.meta_ops += sample.meta_ops;
      agg.bytes_read += sample.bytes_read;
      agg.bytes_written += sample.bytes_written;
      agg.total_latency += sample.total_latency;
      agg.max_queue_depth = std::max(agg.max_queue_depth, sample.max_queue_depth);
      agg.failed_ops += sample.failed_ops;
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, double>> ServerStatsCollector::ost_imbalance() const {
  // Collect the set of windows with any traffic.
  std::map<std::uint64_t, std::pair<double, double>> acc;  // window -> (max, sum)
  for (const auto& [ost, series] : ost_series_) {
    for (const auto& [window, sample] : series) {
      const double moved = sample.bytes_read.as_double() + sample.bytes_written.as_double();
      auto& [mx, sum] = acc[window];
      mx = std::max(mx, moved);
      sum += moved;
    }
  }
  const std::size_t n_osts = ost_series_.size();
  std::vector<std::pair<std::uint64_t, double>> out;
  for (const auto& [window, mxsum] : acc) {
    const auto& [mx, sum] = mxsum;
    if (sum <= 0.0 || n_osts == 0) continue;
    // Mean over all OSTs (absent OSTs moved zero bytes in the window).
    const double mean = sum / static_cast<double>(n_osts);
    out.emplace_back(window, mean == 0.0 ? 0.0 : mx / mean);
  }
  return out;
}

}  // namespace pio::trace
