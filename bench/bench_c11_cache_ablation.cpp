// C-11 — client-side caching turns warm-epoch DL small reads into local
// hits; cache policy, capacity, and prefetching are campaign axes, not
// constants; write-back never drops an acknowledged byte across a crash.
//
// Paper §V.B: AI/DL training re-reads a bounded sample set every epoch
// through small, shuffled requests — the access pattern a stripe-and-seek
// PFS serves worst and a node-local cache serves best. This bench sweeps
// the pio::cache tier (DESIGN.md §10) on the reference testbed:
//
//   part A — policy x capacity sweep (LRU vs 2Q) on a shuffled DLIO
//            kernel. The hit-rate curve climbs with capacity until the
//            working set fits; makespan falls with it.
//   part B — warm-epoch speedup: with the sample set resident, a warm
//            epoch completes >= 2x faster than the same epoch with the
//            cache off. Prefetcher ablation (none / sequential readahead /
//            epoch-aware warming) at a capacity below the working set,
//            reporting prefetch used vs wasted.
//   part C — crash during write-back (invariant C1): a checkpoint's dirty
//            pages meet an OST outage; write-backs fail and retry until
//            recovery, the application never observes the crash, and every
//            acknowledged byte lands on the device (audited against the
//            durability ledger at quiescence).
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/cache.hpp"
#include "exec/pool.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"

using namespace pio;

namespace {

constexpr std::uint64_t kPageBytes = 64 * 1024;

/// The C-11 DL kernel: 8 ranks re-reading a 256-sample (16 MiB, 256-page)
/// set with per-epoch reshuffling and no compute, so I/O time is the
/// makespan.
workload::DlioConfig dl_kernel(std::int32_t epochs) {
  workload::DlioConfig config;
  config.ranks = 8;
  config.samples = 256;
  config.sample_size = Bytes::from_kib(64);
  config.samples_per_file = 64;
  config.batch_size = 8;
  config.epochs = epochs;
  config.shuffle = true;
  config.seed = 7;
  config.compute_per_batch = SimTime::zero();
  return config;
}

/// One cached DLIO run on a fresh engine + reference testbed (SSD).
driver::SimRunResult run_dlio(const cache::CacheConfig& cache_config, std::int32_t epochs) {
  sim::Engine engine{1};
  pfs::PfsModel model{engine, bench::reference_testbed(pfs::DiskKind::kSsd)};
  driver::SimRunConfig run_config;
  run_config.cache = cache_config;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  auto result = sim.run(*workload::dlio_like(dl_kernel(epochs)));
  engine.run();  // drain background write-back / warming past the workload
  return result;
}

cache::CacheConfig shared_cache(std::uint64_t capacity_pages, cache::EvictionPolicy policy,
                                cache::PrefetchMode prefetch) {
  cache::CacheConfig config;
  config.enabled = true;
  config.scope = cache::CacheScope::kShared;
  config.policy = policy;
  config.prefetch = prefetch;
  config.capacity_pages = capacity_pages;
  config.max_dirty_pages = capacity_pages / 2;
  return config;
}

/// Marginal cost of one extra epoch: makespan(2 epochs) - makespan(1).
/// Epoch one is cold either way, so this isolates the warm epoch.
SimTime warm_epoch_time(const cache::CacheConfig& cache_config) {
  return run_dlio(cache_config, 2).makespan - run_dlio(cache_config, 1).makespan;
}

struct CrashRun {
  driver::SimRunResult result;
  Bytes landed = Bytes::zero();
  bool audit_ok = false;
};

/// Part C: a 4-rank checkpoint (8 x 64 KiB pages per rank) absorbed by the
/// write-back cache while the only OST is down for the first 50 ms.
CrashRun run_crash_writeback() {
  std::vector<std::vector<workload::Op>> ops(4);
  PathTable paths;
  for (std::int32_t r = 0; r < 4; ++r) {
    const FileId path = paths.intern("/ckpt-" + std::to_string(r));
    auto& rank_ops = ops[static_cast<std::size_t>(r)];
    rank_ops.push_back(workload::Op::create(path));
    for (std::uint64_t p = 0; p < 8; ++p) {
      rank_ops.push_back(workload::Op::write(path, p * kPageBytes, Bytes::from_kib(64)));
    }
    rank_ops.push_back(workload::Op::fsync(path));
    rank_ops.push_back(workload::Op::close(path));
  }
  const workload::Workload checkpoint{"ckpt", std::move(paths), std::move(ops)};

  sim::Engine engine{1};
  pfs::PfsConfig pfs_config;
  pfs_config.clients = 4;
  pfs_config.io_nodes = 1;
  pfs_config.osts = 1;
  pfs_config.disk_kind = pfs::DiskKind::kSsd;
  pfs_config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  pfs_config.faults.ost_down(0, SimTime::zero(), SimTime::from_ms(50.0));
  pfs::PfsModel model{engine, pfs_config};
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  run_config.cache = shared_cache(256, cache::EvictionPolicy::kLru, cache::PrefetchMode::kNone);
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};

  CrashRun out;
  out.result = sim.run(checkpoint);
  engine.run();
  out.landed = model.ost(0).stats().bytes_written;
  try {
    engine.assert_drained();
    model.assert_quiescent();  // F3 ledger agrees: nothing acked was lost
    out.audit_ok = true;
  } catch (const std::exception& e) {
    std::cout << "C1 audit FAILED: " << e.what() << "\n";
  }
  return out;
}

std::string percent(double fraction) { return format_double(fraction * 100.0, 1) + "%"; }

}  // namespace

int main() {
  bench::banner("C-11",
                "node-local caching converts warm-epoch DL small reads into hits; "
                "policy/capacity/prefetch are sweep axes; write-back keeps C1 across "
                "a crash (DESIGN.md section 10)");

  // Part A: policy x capacity hit-rate curve on the shuffled DL kernel.
  // The sweep points are independent runs on fresh engines: the pool fans
  // them out and the merged row order is the flattened loop order, so the
  // curve is byte-identical at any PIO_THREADS.
  const std::vector<std::uint64_t> capacities = {32, 64, 128, 256};
  const std::vector<cache::EvictionPolicy> policies = {cache::EvictionPolicy::kLru,
                                                       cache::EvictionPolicy::kTwoQ};
  exec::Pool pool;
  const auto curve_results =
      pool.map_ordered(policies.size() * capacities.size(), [&](std::size_t i) {
        const auto policy = policies[i / capacities.size()];
        const auto capacity = capacities[i % capacities.size()];
        return run_dlio(shared_cache(capacity, policy, cache::PrefetchMode::kNone), 3);
      });
  TextTable curve{{"policy", "capacity", "hit rate", "evictions", "makespan"}};
  bool curve_climbs = true;
  bool makespan_falls = true;
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const auto policy = policies[pi];
    double first_rate = -1.0;
    double last_rate = -1.0;
    double first_ms = 0.0;
    double last_ms = 0.0;
    for (std::size_t ci = 0; ci < capacities.size(); ++ci) {
      const auto capacity = capacities[ci];
      const auto& result = curve_results[pi * capacities.size() + ci];
      const double rate = result.cache_hit_rate();
      curve.add_row({to_string(policy), std::to_string(capacity) + " pages", percent(rate),
                     std::to_string(result.cache_evictions), format_time(result.makespan)});
      bench::emit_row(Record{{"part", std::string("curve")},
                             {"policy", std::string(to_string(policy))},
                             {"capacity_pages", capacity},
                             {"hit_rate", rate},
                             {"evictions", result.cache_evictions},
                             {"makespan_ms", result.makespan.ms()}});
      if (first_rate < 0.0) {
        first_rate = rate;
        first_ms = result.makespan.ms();
      }
      last_rate = rate;
      last_ms = result.makespan.ms();
    }
    curve_climbs = curve_climbs && last_rate > first_rate;
    makespan_falls = makespan_falls && last_ms < first_ms;
  }
  std::cout << curve.to_string();
  std::cout << "The working set is 256 pages: the curve climbs until it fits, and "
               "makespan tracks it down.\n\n";

  // Part B: warm-epoch speedup vs cache-off, then the prefetcher ablation.
  const auto fit = shared_cache(512, cache::EvictionPolicy::kLru, cache::PrefetchMode::kNone);
  cache::CacheConfig off;
  off.enabled = false;
  const SimTime warm_on = warm_epoch_time(fit);
  const SimTime warm_off = warm_epoch_time(off);
  const double speedup = warm_off.ms() / warm_on.ms();
  TextTable warm{{"config", "warm-epoch time", "speedup"}};
  warm.add_row({"cache off", format_time(warm_off), "1.0x"});
  warm.add_row({"shared cache (fits)", format_time(warm_on), format_double(speedup, 1) + "x"});
  std::cout << warm.to_string();
  bench::emit_row(Record{{"part", std::string("warm")},
                         {"warm_epoch_off_ms", warm_off.ms()},
                         {"warm_epoch_on_ms", warm_on.ms()},
                         {"speedup", speedup}});
  std::cout << "Warm-epoch small reads are served node-local instead of crossing the "
               "fabric to the OSTs.\n\n";

  const std::vector<cache::PrefetchMode> modes = {cache::PrefetchMode::kNone,
                                                  cache::PrefetchMode::kSequential,
                                                  cache::PrefetchMode::kEpoch};
  const auto prefetch_results = pool.map_ordered(modes.size(), [&modes](std::size_t i) {
    return run_dlio(shared_cache(96, cache::EvictionPolicy::kTwoQ, modes[i]), 3);
  });
  TextTable prefetch{{"prefetch", "hit rate", "issued", "used", "wasted", "makespan"}};
  std::uint64_t epoch_used = 0;
  bool prefetch_accounted = true;
  for (std::size_t mi = 0; mi < modes.size(); ++mi) {
    const auto mode = modes[mi];
    const auto& result = prefetch_results[mi];
    prefetch.add_row({to_string(mode), percent(result.cache_hit_rate()),
                      std::to_string(result.cache_prefetch_issued),
                      std::to_string(result.cache_prefetch_used),
                      std::to_string(result.cache_prefetch_wasted),
                      format_time(result.makespan)});
    bench::emit_row(Record{{"part", std::string("prefetch")},
                           {"mode", std::string(to_string(mode))},
                           {"hit_rate", result.cache_hit_rate()},
                           {"issued", result.cache_prefetch_issued},
                           {"used", result.cache_prefetch_used},
                           {"wasted", result.cache_prefetch_wasted},
                           {"makespan_ms", result.makespan.ms()}});
    if (mode == cache::PrefetchMode::kEpoch) epoch_used = result.cache_prefetch_used;
    prefetch_accounted = prefetch_accounted &&
                         result.cache_prefetch_issued ==
                             result.cache_prefetch_used + result.cache_prefetch_wasted;
  }
  std::cout << prefetch.to_string();
  std::cout << "Every speculative page is accounted for: issued == used + wasted.\n\n";

  // Part C: crash during write-back.
  const auto crash = run_crash_writeback();
  const Bytes absorbed{crash.result.cache_absorbed_writes * kPageBytes};
  TextTable c1{{"failed ops", "absorbed", "write-back failures", "landed", "audit"}};
  c1.add_row({std::to_string(crash.result.failed_ops), format_bytes(absorbed),
              std::to_string(crash.result.cache_writeback_failures), format_bytes(crash.landed),
              crash.audit_ok ? "clean" : "VIOLATED"});
  std::cout << c1.to_string();
  bench::emit_row(Record{{"part", std::string("crash_writeback")},
                         {"failed_ops", crash.result.failed_ops},
                         {"absorbed_bytes", absorbed.count()},
                         {"writeback_failures", crash.result.cache_writeback_failures},
                         {"landed_bytes", crash.landed.count()},
                         {"audit_ok", crash.audit_ok ? std::uint64_t{1} : std::uint64_t{0}}});
  const bool c1_holds = crash.result.failed_ops == 0 &&
                        crash.result.cache_writeback_failures > 0 && crash.landed == absorbed &&
                        crash.result.cache_writeback_bytes == absorbed && crash.audit_ok;
  std::cout << "The outage is invisible to the application; retries land every "
               "acknowledged byte once the OST returns.\n\n";

  const bool shape_holds =
      curve_climbs && makespan_falls && speedup >= 2.0 && epoch_used > 0 && prefetch_accounted &&
      c1_holds;
  std::cout << "shape check: " << (shape_holds ? "HOLDS" : "VIOLATED")
            << " (hit-rate curve climbs with capacity while makespan falls; warm epoch "
               ">= 2x faster than cache-off; epoch warming converts prefetches into hits "
               "with full accounting; C1 holds across the crash)\n";
  return shape_holds ? 0 : 1;
}
