// PIOEval eval: facility-scale composition — many cells, one parallel run.
//
// The campaign layer (campaign.hpp) parallelises across independent
// simulation runs; this layer runs one facility: a set of simulation cells —
// each a full PFS model plus an execution-driven workload on its own engine —
// launched by a coordinator over a simulated inter-cell fabric. That is the
// shape of a multi-tenant facility (paper §V): what-if questions like "what
// does tenant B's burst do to tenant A's checkpoint?" become one
// deterministic run instead of a hand-stitched sequence of independent ones.
//
// Cells touch the coordinator only twice — the launch and the completion
// notice, each one fabric hop — so they run as independent exec::Pool tasks
// (DESIGN.md §16). Each task owns its engine and models; the coordinator's
// view (arrival and completion stamps, completion order, makespan) is
// computed from the cell results once every task has finished.
//
// Determinism: FacilityResult::digest() is byte-identical at any pool width
// (1/2/4/8 proven by test_parsim), with randomness confined to per-cell
// engine seeds and the arrival jitter drawn from seeds::kFacilityArrivalStream
// substreams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "driver/sim_driver.hpp"
#include "pfs/pfs.hpp"
#include "workload/op.hpp"

namespace pio::eval {

/// One tenant cell: a PFS system plus the workload run against it. The
/// workload is borrowed and must outlive `run_facility`.
struct FacilityCell {
  pfs::PfsConfig system{};
  driver::SimRunConfig run{};
  const workload::Workload* workload = nullptr;
};

struct FacilityConfig {
  std::uint64_t seed = 1;
  /// exec::Pool worker threads; 0 resolves via PIO_THREADS (else serial).
  int threads = 0;
  /// One-way cell <-> coordinator fabric delay: a cell starts this long after
  /// its launch, and the coordinator sees its completion this long after it.
  SimTime fabric_latency = SimTime::from_us(100.0);
  /// Cell campaign arrivals are jittered uniformly over [0, spread] —
  /// facilities do not start every tenant on the same nanosecond.
  SimTime arrival_spread = SimTime::from_ms(1.0);
};

/// Per-cell outcome, timestamped on the facility clock.
struct FacilityCellOutcome {
  driver::SimRunResult result;
  SimTime started = SimTime::zero();  ///< cell campaign begin (cell clock)
  /// Coordinator observed completion: started + makespan + fabric_latency.
  SimTime completed = SimTime::zero();
};

struct FacilityResult {
  std::vector<FacilityCellOutcome> cells;
  /// Cell indices in the order the coordinator observed their completions
  /// (ties broken by cell index).
  std::vector<std::uint32_t> completion_order;
  SimTime makespan = SimTime::zero();  ///< last coordinator-observed completion
  std::uint64_t events = 0;            ///< events executed across all cell engines
  /// FNV-1a fold over every field above in canonical order, each cell's
  /// result as its driver::digest — the facility determinism oracle (field
  /// order frozen: append, never reorder).
  [[nodiscard]] std::uint64_t digest() const;
};

/// Run `cells` to completion as one facility; each cell runs until
/// `started + cell.run.time_limit`. Throws on a stalled cell (mismatched
/// barriers or time limit), and asserts every cell engine drained.
[[nodiscard]] FacilityResult run_facility(const FacilityConfig& config,
                                          const std::vector<FacilityCell>& cells);

}  // namespace pio::eval
