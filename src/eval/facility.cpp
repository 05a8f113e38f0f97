#include "eval/facility.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/seed_streams.hpp"
#include "exec/pool.hpp"
#include "sim/engine.hpp"

namespace pio::eval {

namespace {

/// Seed-derivation phase for facility cell engines. Phases 1–2 belong to
/// the campaign loop (campaign.cpp SeedPhase); this claims the next value so
/// facility cells never share engine seeds with campaign runs.
constexpr std::uint64_t kFacilityCellPhase = 3;

/// One cell task's output: the outcome plus its engine's event count.
struct CellRun {
  FacilityCellOutcome outcome;
  std::uint64_t events = 0;
};

}  // namespace

std::uint64_t FacilityResult::digest() const {
  Fnv64 fnv;
  fnv.mix(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    fnv.mix(i);
    fnv.mix(static_cast<std::uint64_t>(cells[i].started.ns()));
    fnv.mix(static_cast<std::uint64_t>(cells[i].completed.ns()));
    fnv.mix(driver::digest(cells[i].result));
  }
  fnv.mix(completion_order.size());
  for (const std::uint32_t c : completion_order) fnv.mix(c);
  fnv.mix(static_cast<std::uint64_t>(makespan.ns()));
  fnv.mix(events);
  return fnv.digest();
}

FacilityResult run_facility(const FacilityConfig& config,
                            const std::vector<FacilityCell>& cells) {
  if (cells.empty()) throw std::invalid_argument("run_facility: no cells");
  for (const FacilityCell& cell : cells) {
    if (cell.workload == nullptr) {
      throw std::invalid_argument("run_facility: cell without a workload");
    }
  }

  // Each cell is a whole simulation on its own engine: the coordinator's
  // launch lands one fabric hop plus the cell's arrival jitter after time 0,
  // and its completion notice takes one hop back. Jitter comes from a
  // registry stream substream so adding a cell never moves another's arrival.
  const Rng arrivals{config.seed, seeds::kFacilityArrivalStream};
  const std::uint64_t spread_ns = static_cast<std::uint64_t>(config.arrival_spread.ns()) + 1;
  exec::Pool pool{config.threads};
  std::vector<CellRun> runs = pool.map_ordered(cells.size(), [&](std::size_t i) {
    sim::Engine engine{derive_seed(config.seed, kFacilityCellPhase, 0, i)};
    pfs::PfsModel model{engine, cells[i].system};
    driver::ExecutionDrivenSimulator sim{engine, model, cells[i].run};
    const SimTime started = config.fabric_latency +
        SimTime::from_ns(static_cast<std::int64_t>(arrivals.substream(i).next_below(spread_ns)));
    // piolint: allow(C2) — engine.run() below drains this engine in-frame.
    engine.schedule_at(started, [&] { sim.begin(*cells[i].workload, nullptr); });
    engine.run(started + cells[i].run.time_limit);
    CellRun run;
    run.outcome.result = sim.collect();  // throws on a stalled cell
    run.outcome.started = started;
    run.outcome.completed = started + run.outcome.result.makespan + config.fabric_latency;
    model.assert_quiescent();
    engine.assert_drained();
    run.events = engine.events_executed();
    return run;
  });

  FacilityResult out;
  out.cells.reserve(runs.size());
  for (CellRun& run : runs) {
    out.makespan = std::max(out.makespan, run.outcome.completed);
    out.events += run.events;
    out.cells.push_back(std::move(run.outcome));
  }
  out.completion_order.resize(out.cells.size());
  std::iota(out.completion_order.begin(), out.completion_order.end(), 0U);
  std::stable_sort(out.completion_order.begin(), out.completion_order.end(),
                   [&out](std::uint32_t a, std::uint32_t b) {
                     return out.cells[a].completed < out.cells[b].completed;
                   });
  return out;
}

}  // namespace pio::eval
