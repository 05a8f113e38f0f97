#include "trace/server_stats.hpp"

#include <algorithm>
#include <stdexcept>

#include "cache/cache.hpp"
#include "pfs/resilience.hpp"

namespace pio::trace {

ServerStatsCollector::ServerStatsCollector(SimTime window) : window_(window) {
  if (window <= SimTime::zero()) {
    throw std::invalid_argument("ServerStatsCollector: window must be positive");
  }
}

void ServerStatsCollector::attach(sim::Engine& engine) {
  engine.set_span_sink([this](const obs::Span& span) { on_span(span); });
}

void ServerStatsCollector::on_span(const obs::Span& span) {
  const std::uint64_t window = window_of(span.end);
  switch (span.layer) {
    case obs::Layer::kOst: {
      auto& sample = ost_series_[span.component][window];
      sample.window = window;
      const bool is_write = static_cast<obs::DataKind>(span.kind) == obs::DataKind::kWrite;
      ++(is_write ? sample.write_ops : sample.read_ops);
      // Only ops the device actually served move bytes.
      if (span.ok) {
        (is_write ? sample.bytes_written : sample.bytes_read) += span.bytes;
      } else {
        ++sample.failed_ops;
      }
      sample.total_latency += span.end - span.start;
      sample.max_queue_depth = std::max(sample.max_queue_depth, span.queue_depth);
      break;
    }
    case obs::Layer::kMds: {
      auto& sample = mds_series_[window];
      sample.window = window;
      ++sample.meta_ops;
      if (!span.ok) ++sample.failed_ops;
      sample.total_latency += span.end - span.start;
      break;
    }
    case obs::Layer::kClient: on_client_span(span, window); break;
    case obs::Layer::kCache: on_cache_span(span, window); break;
  }
}

void ServerStatsCollector::on_client_span(const obs::Span& span, std::uint64_t window) {
  auto& sample = resilience_series_[window];
  sample.window = window;
  const auto kind = static_cast<pfs::ResilienceEventKind>(span.kind);
  switch (kind) {
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
      auto& rebuild = rebuild_series_[span.component][window];
      rebuild.window = window;
      if (kind == pfs::ResilienceEventKind::kRebuildStart) {
        ++rebuild.started;
      } else {
        ++rebuild.completed;
        rebuild.rebuilt += span.bytes;
      }
      break;
    }
  }
}

void ServerStatsCollector::on_cache_span(const obs::Span& span, std::uint64_t window) {
  auto& sample = cache_series_[window];
  sample.window = window;
  switch (static_cast<cache::CacheEventKind>(span.kind)) {
    case cache::CacheEventKind::kHit:
      ++sample.hit_events;
      sample.hit_bytes += span.bytes;
      break;
    case cache::CacheEventKind::kMiss:
      ++sample.miss_events;
      sample.miss_bytes += span.bytes;
      break;
    case cache::CacheEventKind::kEviction: ++sample.evictions; break;
    case cache::CacheEventKind::kPrefetchIssue: ++sample.prefetch_issues; break;
    case cache::CacheEventKind::kWriteback:
      ++sample.writebacks;
      sample.writeback_bytes += span.bytes;
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
