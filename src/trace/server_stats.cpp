#include "trace/server_stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace pio::trace {

namespace {

/// Count `span` and its bytes under its kind in `series`' window.
template <typename Kind>
void fold(std::map<std::uint64_t, KindSample<Kind>>& series, std::uint64_t window,
          const obs::Span& span) {
  auto& sample = series[window];
  sample.window = window;
  ++sample.count.at(span.kind);
  sample.bytes.at(span.kind) += span.bytes;
}

}  // namespace

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
    case obs::Layer::kClient: {
      fold(resilience_series_, window, span);
      const auto kind = static_cast<pfs::ResilienceEventKind>(span.kind);
      if (kind == pfs::ResilienceEventKind::kRebuildStart ||
          kind == pfs::ResilienceEventKind::kRebuildDone) {
        fold(rebuild_series_[span.component], window, span);
      }
      break;
    }
    case obs::Layer::kCache: fold(cache_series_, window, span); break;
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
