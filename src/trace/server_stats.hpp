// PIOEval trace: storage-system-level monitoring (GUIDE/FSMonitor-style).
//
// §IV.A.2: "storage and system administrators can collect additional
// server-side statistics of the file system, e.g., load on the servers and
// storage devices." This collector is the engine's span sink: it bins every
// obs::Span a run emits (OST and MDS ops, client resilience events, cache
// events) into fixed time windows per server or layer, producing the time
// series the system-level analysis (§IV.B.1 type (2), Patel et al. [53])
// consumes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"

namespace pio::trace {

/// One time-window sample for one server.
struct ServerSample {
  std::uint64_t window = 0;  ///< window index (time / window_size)
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t meta_ops = 0;
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
  SimTime total_latency = SimTime::zero();
  std::uint64_t max_queue_depth = 0;
  std::uint64_t failed_ops = 0;  ///< rejected/interrupted (OST) or error-status (MDS)

  [[nodiscard]] std::uint64_t total_ops() const { return read_ops + write_ops + meta_ops; }
};

/// Per-server time series, keyed by window index.
using ServerSeries = std::map<std::uint64_t, ServerSample>;

/// One time-window sample of client-side resilience activity (retry storms
/// show up here before they show up as server load).
struct ResilienceSample {
  std::uint64_t window = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t giveups = 0;
  std::uint64_t failovers = 0;
  std::uint64_t degraded_reads = 0;  ///< reads served by a non-primary replica
  std::uint64_t stale_map_retries = 0;  ///< kStaleMap bounces refreshed + retried
  std::uint64_t down_detections = 0;    ///< monitor down declarations this window
  std::uint64_t up_detections = 0;      ///< monitor up re-declarations this window
  // Overload-control activity (DESIGN.md §14); zero unless the knobs are on.
  std::uint64_t budget_exhaustions = 0;  ///< retries denied by the token bucket
  std::uint64_t breaker_opens = 0;       ///< breaker open/re-open transitions
  std::uint64_t breaker_probes = 0;      ///< half-open probes admitted
  std::uint64_t breaker_closes = 0;      ///< probes that closed a breaker
  std::uint64_t deadline_giveups = 0;    ///< ops that ran out of deadline
};

using ResilienceSeries = std::map<std::uint64_t, ResilienceSample>;

/// One time-window sample of online-rebuild activity on one OST (resync
/// passes started/finished and bytes re-copied, reported at completion).
struct RebuildSample {
  std::uint64_t window = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  Bytes rebuilt = Bytes::zero();
};

using RebuildSeries = std::map<std::uint64_t, RebuildSample>;

/// One time-window sample of client-cache activity: the hit-rate time
/// series of a run (a warming cache shows the hit curve climbing window by
/// window — the DL-epoch signature the cache experiments plot).
struct CacheSample {
  std::uint64_t window = 0;
  std::uint64_t hit_events = 0;        ///< ops with at least one page hit
  std::uint64_t miss_events = 0;       ///< ops that fetched from the backend
  std::uint64_t evictions = 0;
  std::uint64_t prefetch_issues = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t absorbed_writes = 0;
  Bytes hit_bytes = Bytes::zero();
  Bytes miss_bytes = Bytes::zero();
  Bytes writeback_bytes = Bytes::zero();

  /// Byte-granular hit rate of this window (0 with no data traffic).
  [[nodiscard]] double hit_rate() const {
    const double total = hit_bytes.as_double() + miss_bytes.as_double();
    return total == 0.0 ? 0.0 : hit_bytes.as_double() / total;
  }
};

using CacheSeries = std::map<std::uint64_t, CacheSample>;

class ServerStatsCollector {
 public:
  explicit ServerStatsCollector(SimTime window = SimTime::from_ms(100.0));

  /// Become `engine`'s span sink, replacing any other. The collector must
  /// outlive the engine's runs.
  void attach(sim::Engine& engine);

  /// Fold one span into its layer's series (attach() feeds every span here).
  void on_span(const obs::Span& span);

  [[nodiscard]] const std::map<std::uint32_t, ServerSeries>& ost_series() const {
    return ost_series_;
  }
  [[nodiscard]] const ServerSeries& mds_series() const { return mds_series_; }
  [[nodiscard]] const ResilienceSeries& resilience_series() const { return resilience_series_; }
  [[nodiscard]] const std::map<std::uint32_t, RebuildSeries>& rebuild_series() const {
    return rebuild_series_;
  }
  [[nodiscard]] const CacheSeries& cache_series() const { return cache_series_; }
  [[nodiscard]] SimTime window() const { return window_; }

  /// Cluster-wide aggregate per window (sums across OSTs).
  [[nodiscard]] ServerSeries aggregate_osts() const;

  /// Imbalance across OSTs in a window: max/mean of per-OST bytes moved
  /// (1.0 = perfectly balanced). Windows with no traffic are skipped.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> ost_imbalance() const;

 private:
  [[nodiscard]] std::uint64_t window_of(SimTime t) const {
    return static_cast<std::uint64_t>(t.ns() / window_.ns());
  }
  void on_client_span(const obs::Span& span, std::uint64_t window);
  void on_cache_span(const obs::Span& span, std::uint64_t window);

  SimTime window_;
  std::map<std::uint32_t, ServerSeries> ost_series_;
  ServerSeries mds_series_;
  ResilienceSeries resilience_series_;
  std::map<std::uint32_t, RebuildSeries> rebuild_series_;
  CacheSeries cache_series_;
};

}  // namespace pio::trace
