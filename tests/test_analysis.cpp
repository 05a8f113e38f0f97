// Tests for job-level and system-level analysis, plus the closed-loop
// campaign and the survey corpus.
#include <gtest/gtest.h>

#include "analysis/job_analysis.hpp"
#include "analysis/system_analysis.hpp"
#include "corpus/corpus.hpp"
#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "trace/server_stats.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/facility_mix.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio {
namespace {

using namespace pio::literals;

pfs::PfsConfig small_pfs(pfs::DiskKind disk = pfs::DiskKind::kSsd) {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = disk;
  return config;
}

driver::SimRunResult simulate(const workload::Workload& w, trace::Sink* sink,
                              trace::ServerStatsCollector* server_stats = nullptr,
                              std::uint64_t seed = 1) {
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, small_pfs()};
  if (server_stats != nullptr) server_stats->attach(engine);
  driver::ExecutionDrivenSimulator sim{engine, model};
  return sim.run(w, sink);
}

TEST(JobAnalysisTest, DetectsCheckpointPeriodicity) {
  workload::CheckpointConfig config;
  config.ranks = 4;
  config.checkpoint_per_rank = 4_MiB;
  config.transfer_size = 1_MiB;
  config.checkpoints = 6;
  config.compute_phase = SimTime::from_sec(1.0);
  trace::Tracer tracer;
  (void)simulate(*workload::checkpoint_restart(config), &tracer);
  analysis::JobAnalysisConfig job_config;
  job_config.window = SimTime::from_ms(100.0);
  const auto report = analysis::analyze_job(tracer.take(), job_config);
  // ~1 s period (compute + burst), detected within 30%.
  ASSERT_GT(report.period.ns(), 0);
  EXPECT_NEAR(report.period.sec(), 1.0, 0.3);
  EXPECT_GT(report.period_strength, 0.3);
  // Checkpoints are bursty: top 10% of windows carry most bytes.
  EXPECT_GT(report.burst_concentration, 0.5);
  EXPECT_EQ(report.bytes_written, 6u * 4u * 4_MiB);
  // Six write phases detected (within merging tolerance).
  EXPECT_GE(report.phases.size(), 4u);
  EXPECT_LE(report.phases.size(), 8u);
  EXPECT_NE(report.to_string().find("periodic I/O"), std::string::npos);
}

TEST(JobAnalysisTest, SteadyWorkloadHasNoPeriodAndLowBurstiness) {
  workload::IorConfig config;
  config.ranks = 4;
  config.block_size = 8_MiB;
  config.transfer_size = 1_MiB;
  trace::Tracer tracer;
  (void)simulate(*workload::ior_like(config), &tracer);
  // Fine windows so the short run spans many of them.
  analysis::JobAnalysisConfig job_config;
  job_config.window = SimTime::from_ms(1.0);
  const auto report = analysis::analyze_job(tracer.take(), job_config);
  EXPECT_LT(report.burst_concentration, 0.9);
  EXPECT_EQ(report.metadata_ops, 0u + [&] {
    // opens/creates/closes/fsyncs counted as metadata: 4 ranks x
    // (1 open/create + 1 fsync + 1 close) + 1 mkdir.
    return 4u * 3u + 1u;
  }());
}

TEST(JobAnalysisTest, EmptyTraceIsSafe) {
  const auto report = analysis::analyze_job(trace::Trace{});
  EXPECT_EQ(report.span, SimTime::zero());
  EXPECT_EQ(report.phases.size(), 0u);
}

TEST(SystemAnalysisTest, WorkflowIsMetadataIntensiveAndDlIsReadHeavy) {
  // Workflow: metadata ops should dwarf per-window data activity.
  workload::WorkflowConfig wf;
  wf.workers = 4;
  wf.stages = 2;
  wf.tasks_per_stage = 8;
  wf.compute_per_task = SimTime::zero();
  trace::ServerStatsCollector wf_stats{SimTime::from_ms(50.0)};
  (void)simulate(*workload::workflow_dag(wf), nullptr, &wf_stats);
  std::uint64_t wf_meta = 0;
  for (const auto& [w, s] : wf_stats.mds_series()) wf_meta += s.meta_ops;
  EXPECT_GT(wf_meta, 100u);

  // DL training on a prepared dataset: reads dominate writes.
  workload::DlioConfig dl;
  dl.ranks = 4;
  dl.samples = 512;
  dl.samples_per_file = 64;
  dl.sample_size = 64_KiB;
  dl.epochs = 2;
  dl.compute_per_batch = SimTime::zero();
  trace::ServerStatsCollector dl_stats{SimTime::from_ms(1.0)};
  (void)simulate(*workload::dlio_like(dl), nullptr, &dl_stats);
  const auto report = analysis::analyze_system(dl_stats);
  // Preparation writes the dataset once; training reads it every epoch, so
  // reads arrive after writes and the read share trends upward.
  EXPECT_GT(report.temporal.read_fraction_trend, 0.0);
  EXPECT_GE(report.temporal.read_dominance_onset, 0);
  EXPECT_GT(report.spatial.servers, 0u);
  EXPECT_NE(report.to_string().find("correlative"), std::string::npos);
}

TEST(SystemAnalysisTest, FacilityTrendFindsTheCrossover) {
  workload::FacilityMixConfig config;
  config.months = 36;
  config.jobs_per_month = 800;
  const auto monthly =
      workload::aggregate_by_month(workload::generate_facility_log(config));
  const auto trend = analysis::analyze_facility_trend(monthly);
  EXPECT_GT(trend.read_fraction_trend, 0.0);
  EXPECT_GT(trend.read_dominance_onset, 0);
  EXPECT_LT(trend.read_dominance_onset, 36);
  EXPECT_EQ(trend.windows, 36u);
}

TEST(CampaignTest, ClosedLoopReducesPredictionError) {
  eval::CampaignConfig config;
  config.testbed = small_pfs(pfs::DiskKind::kHdd);
  config.model = small_pfs(pfs::DiskKind::kHdd);
  // Mis-calibrate the model: its disks stream 3x faster than the testbed's.
  config.model.hdd.stream_bandwidth = Bandwidth::from_mib_per_sec(540.0);
  config.iterations = 4;

  workload::IorConfig a;
  a.ranks = 4;
  a.block_size = 8_MiB;
  a.transfer_size = 1_MiB;
  workload::IorConfig b = a;
  b.transfer_size = 4_MiB;
  const auto wa = workload::ior_like(a);
  const auto wb = workload::ior_like(b);

  eval::Campaign campaign{config};
  const auto result = campaign.run({wa.get(), wb.get()});
  ASSERT_EQ(result.iterations.size(), 4u);
  const double first = result.iterations.front().mean_abs_pct_error();
  const double last = result.iterations.back().mean_abs_pct_error();
  EXPECT_GT(first, 0.2) << "mis-calibrated model must start clearly wrong";
  EXPECT_LT(last, first * 0.5) << "feedback must cut the error at least in half";
  EXPECT_TRUE(result.converged());
  EXPECT_GT(result.final_calibration, 1.0);
  EXPECT_GT(result.profile.records().size(), 0u);
  EXPECT_NE(result.to_string().find("calibration"), std::string::npos);
}

TEST(CampaignTest, WellCalibratedModelStaysAccurate) {
  eval::CampaignConfig config;
  config.testbed = small_pfs();
  config.model = small_pfs();  // identical
  config.iterations = 2;
  workload::IorConfig a;
  a.ranks = 2;
  a.block_size = 2_MiB;
  a.transfer_size = 1_MiB;
  const auto w = workload::ior_like(a);
  eval::Campaign campaign{config};
  const auto result = campaign.run({w.get()});
  EXPECT_LT(result.iterations.front().mean_abs_pct_error(), 0.15);
  EXPECT_NEAR(result.final_calibration, 1.0, 0.15);
}

TEST(CorpusTest, ExactlyFiftyOneArticlesInWindow) {
  const auto& articles = corpus::surveyed_articles();
  EXPECT_EQ(articles.size(), 51u);
  for (const auto& a : articles) {
    EXPECT_GE(a.year, 2015) << a.short_title;
    EXPECT_LE(a.year, 2020) << a.short_title;
    EXPECT_FALSE(a.categories.empty()) << a.short_title;
    EXPECT_GT(a.reference, 0);
  }
  // Reference numbers are unique.
  std::set<int> refs;
  for (const auto& a : articles) EXPECT_TRUE(refs.insert(a.reference).second);
}

TEST(CorpusTest, DistributionSumsTo100Percent) {
  const auto dist = corpus::compute_distribution();
  EXPECT_EQ(dist.total, 51u);
  auto check_sums = [](const std::vector<corpus::Share>& shares) {
    double pct = 0.0;
    std::size_t count = 0;
    for (const auto& s : shares) {
      pct += s.percent;
      count += s.count;
    }
    EXPECT_NEAR(pct, 100.0, 1e-9);
    EXPECT_EQ(count, 51u);
  };
  check_sums(dist.by_type);
  check_sums(dist.by_publisher);
  check_sums(dist.by_year);
  // Shape facts from the survey: conferences dominate, IEEE is the largest
  // publisher.
  EXPECT_EQ(dist.by_type.front().label, "conference");
  EXPECT_EQ(dist.by_publisher.front().label, "IEEE");
}

TEST(CorpusTest, Filters) {
  const auto emerging = corpus::filter_by_category(corpus::Category::kEmerging);
  EXPECT_GT(emerging.size(), 5u);
  EXPECT_LT(emerging.size(), 51u);
  const auto y2020 = corpus::filter_by_year(2020, 2020);
  for (const auto& a : y2020) EXPECT_EQ(a.year, 2020);
  EXPECT_GT(y2020.size(), 0u);
  // The measurement phase is the survey's biggest bucket — matching the
  // paper's finding that most research is characterization-heavy.
  const auto measurement = corpus::filter_by_category(corpus::Category::kMeasurement);
  const auto simulation = corpus::filter_by_category(corpus::Category::kSimulation);
  EXPECT_GT(measurement.size(), simulation.size());
}

}  // namespace
}  // namespace pio
