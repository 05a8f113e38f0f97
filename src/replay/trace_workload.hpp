// PIOEval replay: trace -> replayable workload (§IV.B.3).
//
// "Through the analysis of these traces, an I/O replication workload can be
// automatically generated, which is able to replay the I/O behavior of the
// original application." The conversion preserves per-rank op order, turns
// the first open of each path into a create (the replay target is an empty
// file system), and optionally re-inserts inter-op gaps as compute phases
// so replay preserves the original pacing ("think time").
#pragma once

#include <memory>

#include "common/types.hpp"
#include "trace/tracer.hpp"
#include "workload/op.hpp"

namespace pio::replay {

struct TraceReplayConfig {
  /// Re-insert gaps between consecutive ops of a rank as compute phases.
  bool preserve_think_time = true;
  /// Gaps shorter than this are dropped (scheduling noise, not think time).
  SimTime min_think_time = SimTime::from_us(10.0);
  /// Only replay events from this layer (multi-level traces would otherwise
  /// replay the same bytes several times).
  trace::Layer layer = trace::Layer::kPosix;
};

/// Convert a recorded trace into a workload.
[[nodiscard]] std::unique_ptr<workload::Workload> workload_from_trace(
    const trace::Trace& trace, const TraceReplayConfig& config = {});

}  // namespace pio::replay
