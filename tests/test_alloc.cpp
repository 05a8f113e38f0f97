// Allocation regression test: the simulated hot path allocates nothing per
// event in steady state.
//
// Every stage of the stack (fair-share channel, fabric, OST, MDS, PfsModel,
// driver) keeps its in-flight state in pooled records that grow to peak
// concurrency, and its stage closures capture only `this` and a handle, so
// std::function and the engine's Task store them inline. This file replaces
// the global operator new with a counting one that counts only inside a
// test's window (Engine::run here), and bounds the allocations per engine
// event on three shapes: perfbench's ckpt-n1 N-to-1 checkpoint (write then
// read one shared file) at 2,048 and at 64 ranks, and a 64-rank x 16-file
// mdtest with 4 KiB writes. Ops name files by id (a trivially copyable
// workload::Op), so what remains is pools and heaps growing to peak, plus
// the MDS namespace's own entries on mdtest. A further case bounds what an
// attached trace::ServerStatsCollector adds on the mdtest shape: its window
// maps, not a per-op record. Building the 64-rank checkpoint workload is
// bounded too: one allocation per rank, not per op; and so is starting a
// 2,048-rank run: per run, not per rank.
//
// The pioevald wire path is bounded the same way, per frame: serving a
// fully cached campaign (pump plus take_output) and feeding its submit.
//
// Its own executable: the replaced operator new applies to the whole
// program. Labelled `alloc`.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "driver/sim_driver.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "svc/evald.hpp"
#include "svc/messages.hpp"
#include "trace/server_stats.hpp"
#include "workload/kernels.hpp"

namespace {

// Single-threaded test: plain globals are enough.
std::uint64_t g_allocations = 0;
bool g_counting = false;

}  // namespace

void* operator new(std::size_t bytes) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's scratch buffer comes from the nothrow form; under
// ASan an unreplaced form would pair the sanitizer's allocation with the
// free() below.
void* operator new(std::size_t bytes, const std::nothrow_t& /*tag*/) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(bytes == 0 ? 1 : bytes);
}

// GCC sees free() applied to what operator new returned once both are
// inlined; here both sides of the replacement are malloc/free on purpose.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pio {
namespace {

/// Upper bound on heap allocations per engine event on the mdtest shape
/// (3,517 for 102,510 events: 0.034).
constexpr double kMaxAllocationsPerEvent = 0.05;
/// Upper bounds on the checkpoint shapes, per event at 2,048 and 64 ranks.
constexpr double kMaxCheckpointAllocationsPerEvent = 0.005;
constexpr double kMaxSmallCheckpointAllocationsPerEvent = 0.04;
/// Upper bound on the allocations that build the 64-rank checkpoint.
constexpr std::uint64_t kMaxCheckpointGenerationAllocations = 76;
/// Upper bound on the allocations `ExecutionDrivenSimulator::begin` makes
/// for the 2,048-rank checkpoint: per run, not per rank.
constexpr std::uint64_t kMaxBeginAllocations = 64;
/// Upper bound on the allocations per event an attached collector adds.
constexpr double kMaxObserverAllocationsPerEvent = 0.01;

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(allocations) / static_cast<double>(events);
  }
};

/// Run `workload` on the 16-client / 4-I/O-node / 8-OST HDD reference
/// testbed, counting allocations only inside Engine::run. A non-null
/// `collector` observes the run.
Counted count_run(const workload::Workload& workload, std::uint64_t seed,
                  trace::ServerStatsCollector* collector = nullptr) {
  pfs::PfsConfig config;
  config.clients = 16;
  config.io_nodes = 4;
  config.osts = 8;
  config.disk_kind = pfs::DiskKind::kHdd;
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};
  if (collector != nullptr) collector->attach(engine);
  sim.begin(workload);

  g_allocations = 0;
  g_counting = true;
  engine.run();
  g_counting = false;

  const driver::SimRunResult result = sim.collect();
  engine.assert_drained();
  model.assert_quiescent();
  EXPECT_GT(result.ops, 0U);
  EXPECT_EQ(result.failed_ops, 0U);
  return Counted{g_allocations, engine.events_executed()};
}

/// The N-to-1 checkpoint of perfbench's ckpt-n1 at `ranks` ranks: 2 x 1 MiB
/// per rank into one shared file, written then read back.
std::unique_ptr<workload::Workload> checkpoint_shape(std::int32_t ranks) {
  workload::IorConfig ior;
  ior.ranks = ranks;
  ior.block_size = Bytes::from_mib(2);
  ior.transfer_size = Bytes::from_mib(1);
  ior.file_per_process = false;
  ior.write_phase = true;
  ior.read_phase = true;
  ior.directory = "/ckpt-alloc";
  return workload::ior_like(ior);
}

// At ckpt-n1's full 2,048 ranks (409,793 events) the run allocates 1,006
// times, all of it pools and heaps growing to peak: 0.0025 per event.
TEST(AllocPerEvent, CheckpointN1Shape) {
  const auto workload = checkpoint_shape(2048);
  const Counted c = count_run(*workload, 1);
  RecordProperty("allocations", std::to_string(c.allocations));
  RecordProperty("events", std::to_string(c.events));
  EXPECT_LT(c.per_event(), kMaxCheckpointAllocationsPerEvent)
      << c.allocations << " allocations for " << c.events << " events";
}

// The same shape at 64 ranks: 386 allocations for 13,013 events, the
// growth to peak with few events to spread it over.
TEST(AllocPerEvent, CheckpointN1SmallShape) {
  const auto workload = checkpoint_shape(64);
  const Counted c = count_run(*workload, 1);
  RecordProperty("allocations", std::to_string(c.allocations));
  RecordProperty("events", std::to_string(c.events));
  EXPECT_LT(c.per_event(), kMaxSmallCheckpointAllocationsPerEvent)
      << c.allocations << " allocations for " << c.events << " events";
}

// Building a workload allocates per rank, not per op: the 64-rank
// checkpoint's 833 ops take one vector per rank plus the workload's own
// few (the rank list, the path table, the object).
TEST(AllocPerWorkload, CheckpointGenerationIsPerRank) {
  g_allocations = 0;
  g_counting = true;
  const auto workload = checkpoint_shape(64);
  g_counting = false;
  RecordProperty("allocations", std::to_string(g_allocations));
  EXPECT_LE(g_allocations, kMaxCheckpointGenerationAllocations);
  EXPECT_EQ(workload::footprint(*workload).ops, 833U);
}

// Starting a run walks each rank's ops in place: `begin` at 2,048 ranks
// sizes the driver's per-rank and per-file tables and schedules every
// rank's first step, with no object per rank.
TEST(AllocPerRun, BeginIsPerRunNotPerRank) {
  const auto workload = checkpoint_shape(2048);
  pfs::PfsConfig config;
  config.clients = 16;
  config.io_nodes = 4;
  config.osts = 8;
  config.disk_kind = pfs::DiskKind::kHdd;
  sim::Engine engine{1};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};

  g_allocations = 0;
  g_counting = true;
  sim.begin(*workload);
  g_counting = false;
  const std::uint64_t begin_allocations = g_allocations;

  engine.run();
  const driver::SimRunResult result = sim.collect();
  engine.assert_drained();
  EXPECT_EQ(result.ops, workload::footprint(*workload).ops);
  RecordProperty("allocations", std::to_string(begin_allocations));
  EXPECT_LE(begin_allocations, kMaxBeginAllocations);
}

std::unique_ptr<workload::Workload> mdtest_shape() {
  workload::MdtestConfig md;
  md.ranks = 64;
  md.files_per_rank = 16;
  md.write_per_file = Bytes::from_kib(4);
  md.directory = "/mdtest-alloc";
  return workload::mdtest_like(md);
}

TEST(AllocPerEvent, MdtestShape) {
  const auto workload = mdtest_shape();
  const Counted c = count_run(*workload, 2);
  RecordProperty("allocations", std::to_string(c.allocations));
  RecordProperty("events", std::to_string(c.events));
  EXPECT_LT(c.per_event(), kMaxAllocationsPerEvent)
      << c.allocations << " allocations for " << c.events << " events";
}

// Observing a run costs the collector's window maps, not an allocation per
// op: attached minus detached allocations, per event of the (unchanged) run.
TEST(AllocPerEvent, AttachedCollectorAddsNoPerOpAllocation) {
  const auto workload = mdtest_shape();
  const Counted detached = count_run(*workload, 2);
  trace::ServerStatsCollector collector;
  const Counted attached = count_run(*workload, 2, &collector);
  ASSERT_EQ(attached.events, detached.events);
  EXPECT_FALSE(collector.mds_series().empty());
  const auto added = static_cast<std::int64_t>(attached.allocations - detached.allocations);
  RecordProperty("added_allocations", std::to_string(added));
  EXPECT_LT(static_cast<double>(added) / static_cast<double>(attached.events),
            kMaxObserverAllocationsPerEvent)
      << attached.allocations << " attached vs " << detached.allocations
      << " detached allocations for " << attached.events << " events";
}

// ------------------------------------------------------------ pioevald

/// A 4-point campaign of small IOR workloads.
svc::CampaignSpec four_point_spec() {
  svc::CampaignSpec spec;
  spec.testbed = {4, 2, 4, 1};
  spec.model = {4, 2, 2, 1};
  for (std::uint32_t j = 0; j < 4; ++j) {
    svc::WorkloadSpec w;
    w.ranks = 2;
    w.block_kib = 128 * (1 + j);
    w.transfer_kib = 32;
    spec.workloads.push_back(w);
  }
  return spec;
}

// Serving a fully cached campaign builds each frame in the session's
// buffer: at most one allocation per frame delivered, and feeding the
// submit takes a bounded handful. Counted in steady state: the cache holds
// every point and the session buffer has grown once.
TEST(AllocPerFrame, ServedCachedCampaign) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  std::vector<std::uint8_t> submit;
  svc::append_frame(svc::MsgType::kSubmitCampaign,
                    svc::encode(svc::SubmitCampaign{four_point_spec()}), submit);
  for (int warm = 0; warm < 2; ++warm) {
    evald.feed(sid, submit);
    evald.drain();
    (void)evald.take_output(sid);
  }

  g_allocations = 0;
  g_counting = true;
  evald.feed(sid, submit);
  g_counting = false;
  const std::uint64_t feed_allocations = g_allocations;

  g_allocations = 0;
  g_counting = true;
  const bool more = evald.pump();
  const std::vector<std::uint8_t> out = evald.take_output(sid);
  g_counting = false;
  const std::uint64_t serve_allocations = g_allocations;

  EXPECT_FALSE(more);
  const std::vector<svc::Frame> frames = svc::split_frames(out);
  ASSERT_EQ(frames.size(), 6u);  // SubmitAck, four PointResults, CampaignDone
  for (std::size_t i = 1; i < 5; ++i) {
    svc::PointResult point;
    ASSERT_TRUE(svc::decode(frames[i].payload, &point));
    EXPECT_EQ(point.source, svc::ResultSource::kCached);
  }
  RecordProperty("feed_allocations", std::to_string(feed_allocations));
  RecordProperty("serve_allocations", std::to_string(serve_allocations));
  EXPECT_LE(feed_allocations, 10u);
  EXPECT_LE(serve_allocations, frames.size() - 1)
      << serve_allocations << " allocations to serve " << frames.size() - 1 << " frames";
  evald.close_session(sid);
  evald.audit_quiescent();
}

// The counter itself: an allocation inside the window is seen, one outside
// is not.
TEST(AllocPerEvent, CounterSeesOnlyTheWindow) {
  g_allocations = 0;
  auto outside = std::make_unique<int>(1);
  EXPECT_EQ(g_allocations, 0U);
  g_counting = true;
  auto inside = std::make_unique<int>(2);
  g_counting = false;
  EXPECT_EQ(g_allocations, 1U);
  EXPECT_EQ(*outside + *inside, 3);
}

}  // namespace
}  // namespace pio
