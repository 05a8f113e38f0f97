// Differential test: eval::Campaign::run, which evaluates every (iteration,
// workload) point in one pool fan-out and calibrates in a serial fold
// afterwards, against the per-iteration barrier loop it replaced
// (tests/campaign_oracle.hpp).
//
// Both run the same sweeps over 0, 1, 2 and 5 iterations, calibration gains
// 0.3, 0.7 and 1.0, and 1, 2 and 4 pool threads, on a plain, a faulted and
// a cached testbed. Every sweep includes a workload whose ranks hold no ops:
// its zero model makespan gives no calibration ratio, and a sweep of only
// that workload never moves the calibration. The campaign digest, every
// iteration's calibration in use and the final calibration must agree bit
// for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "campaign_oracle.hpp"
#include "eval/campaign.hpp"
#include "pfs/pfs.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/op.hpp"

namespace pio::eval {
namespace {

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 4;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

CampaignConfig plain_config() {
  CampaignConfig config;
  config.testbed = small_pfs();
  config.model = small_pfs();
  config.model.disk_kind = pfs::DiskKind::kHdd;  // mis-calibrated on purpose
  config.seed = 11;
  return config;
}

CampaignConfig faulted_config() {
  CampaignConfig config = plain_config();
  config.testbed.faults.ost_down(1, SimTime::from_ms(1.0), SimTime::from_ms(6.0));
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(50.0);
  injector.ost_crash_rate_hz = 40.0;
  injector.ost_outage_mean = SimTime::from_ms(3.0);
  config.testbed.fault_injector = injector;
  config.testbed.retry.max_attempts = 3;
  config.testbed.retry.op_timeout = SimTime::from_ms(20.0);
  config.testbed.retry.failover = true;
  config.seed = 13;
  return config;
}

CampaignConfig cached_config() {
  CampaignConfig config = plain_config();
  config.cache.enabled = true;
  config.cache.scope = cache::CacheScope::kShared;
  config.cache.policy = cache::EvictionPolicy::kTwoQ;
  config.cache.prefetch = cache::PrefetchMode::kEpoch;
  config.cache.capacity_pages = 64;
  config.cache.max_dirty_pages = 16;
  config.seed = 31;
  return config;
}

/// Run both loops at every iteration count, gain and thread count of the
/// sweep grid and require bit-identical results.
void expect_same_as_barrier_loop(CampaignConfig config,
                                 const std::vector<const workload::Workload*>& sweep) {
  for (const std::uint32_t iterations : {0u, 1u, 2u, 5u}) {
    for (const double gain : {0.3, 0.7, 1.0}) {
      for (const std::uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "iterations=" << iterations << " gain=" << gain
                                        << " threads=" << threads);
        config.iterations = iterations;
        config.calibration_gain = gain;
        config.threads = threads;
        const CampaignResult expected = oracle::barrier_run(config, sweep);
        const CampaignResult actual = Campaign{config}.run(sweep);
        EXPECT_EQ(digest(config, actual), digest(config, expected));
        ASSERT_EQ(actual.iterations.size(), expected.iterations.size());
        for (std::size_t i = 0; i < actual.iterations.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.iterations[i].calibration_in_use),
                    std::bit_cast<std::uint64_t>(expected.iterations[i].calibration_in_use))
              << "iteration " << i;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.final_calibration),
                  std::bit_cast<std::uint64_t>(expected.final_calibration));
      }
    }
  }
}

/// Two IOR geometries, a shuffled DLIO epoch and an idle workload.
struct Sweep {
  std::unique_ptr<workload::Workload> ior_a, ior_b, dlio;
  workload::VectorWorkload idle{"idle", {}, std::vector<std::vector<workload::Op>>(2)};

  Sweep() {
    workload::IorConfig ior;
    ior.ranks = 4;
    ior.block_size = Bytes::from_mib(1);
    ior.transfer_size = Bytes::from_kib(256);
    ior_a = workload::ior_like(ior);
    ior.transfer_size = Bytes::from_kib(64);
    ior_b = workload::ior_like(ior);
    workload::DlioConfig config;
    config.ranks = 4;
    config.samples = 64;
    config.samples_per_file = 16;
    config.batch_size = 8;
    config.shuffle = true;
    config.seed = 5;
    dlio = workload::dlio_like(config);
  }

  [[nodiscard]] std::vector<const workload::Workload*> view() const {
    return {ior_a.get(), &idle, ior_b.get(), dlio.get()};
  }
};

TEST(CampaignDiff, PlainSweepMatchesBarrierLoop) {
  const Sweep sweep;
  expect_same_as_barrier_loop(plain_config(), sweep.view());
}

TEST(CampaignDiff, FaultedSweepMatchesBarrierLoop) {
  const Sweep sweep;
  expect_same_as_barrier_loop(faulted_config(), sweep.view());
}

TEST(CampaignDiff, CachedSweepMatchesBarrierLoop) {
  const Sweep sweep;
  expect_same_as_barrier_loop(cached_config(), sweep.view());
}

TEST(CampaignDiff, IdleOnlySweepKeepsCalibrationAtOne) {
  const Sweep sweep;
  expect_same_as_barrier_loop(plain_config(), {&sweep.idle});
  CampaignConfig config = plain_config();
  config.iterations = 3;
  const CampaignResult result = Campaign{config}.run({&sweep.idle});
  for (const auto& iteration : result.iterations) {
    EXPECT_EQ(iteration.calibration_in_use, 1.0);
    EXPECT_EQ(iteration.points.at(0).simulated_raw, SimTime::zero());
  }
  EXPECT_EQ(result.final_calibration, 1.0);
}

}  // namespace
}  // namespace pio::eval
