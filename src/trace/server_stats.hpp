// PIOEval trace: storage-system-level monitoring (GUIDE/FSMonitor-style).
//
// §IV.A.2: "storage and system administrators can collect additional
// server-side statistics of the file system, e.g., load on the servers and
// storage devices." This collector is the engine's span sink: it bins every
// obs::Span a run emits (OST and MDS ops, client resilience events, cache
// events) into fixed time windows per server or layer, producing the time
// series the system-level analysis (§IV.B.1 type (2), Patel et al. [53])
// consumes. Client and cache spans are counted per kind by the kind's
// value; the emitter owns the kind's meaning and its counter of record
// (pfs::kResilienceKinds, cache::CacheStats).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "obs/span.hpp"
#include "pfs/resilience.hpp"
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

/// One time-window sample of a layer whose spans are point events of the
/// enum `Kind`: per kind, indexed by the kind's value, the spans that ended
/// in the window and the bytes they carried. It is sized by `Kind::kCount`
/// and the collector names no kind but the rebuild pair, so a new kind
/// needs no change here.
template <typename Kind>
struct KindSample {
  static constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);

  std::uint64_t window = 0;
  std::array<std::uint64_t, kKinds> count{};
  std::array<Bytes, kKinds> bytes{};

  [[nodiscard]] std::uint64_t count_of(Kind kind) const {
    return count[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] Bytes bytes_of(Kind kind) const { return bytes[static_cast<std::size_t>(kind)]; }
};

/// Client resilience windows (retry storms show up here before they show up
/// as server load). Each OST's rebuild windows use the same sample.
using ResilienceSeries = std::map<std::uint64_t, KindSample<pfs::ResilienceEventKind>>;

/// Client-cache windows: the hit-rate time series of a run (a warming cache
/// shows the hit curve climbing window by window — the DL-epoch signature
/// the cache experiments plot).
using CacheSeries = std::map<std::uint64_t, KindSample<cache::CacheEventKind>>;

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
  /// Per OST, the windows of its rebuild-start and rebuild-done spans.
  [[nodiscard]] const std::map<std::uint32_t, ResilienceSeries>& rebuild_series() const {
    return rebuild_series_;
  }
  [[nodiscard]] const CacheSeries& cache_series() const { return cache_series_; }

  /// Cluster-wide aggregate per window (sums across OSTs).
  [[nodiscard]] ServerSeries aggregate_osts() const;

  /// Imbalance across OSTs in a window: max/mean of per-OST bytes moved
  /// (1.0 = perfectly balanced). Windows with no traffic are skipped.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> ost_imbalance() const;

 private:
  [[nodiscard]] std::uint64_t window_of(SimTime t) const {
    return static_cast<std::uint64_t>(t.ns() / window_.ns());
  }

  SimTime window_;
  std::map<std::uint32_t, ServerSeries> ost_series_;
  ServerSeries mds_series_;
  ResilienceSeries resilience_series_;
  std::map<std::uint32_t, ResilienceSeries> rebuild_series_;
  CacheSeries cache_series_;
};

}  // namespace pio::trace
