// Unit tests for the parallel-file-system model: striping, disks, OST, MDS,
// burst buffer, and the end-to-end facade.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine/model and drain it in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "pfs/burst_buffer.hpp"
#include "pfs/disk.hpp"
#include "pfs/mds.hpp"
#include "pfs/ost.hpp"
#include "pfs/pfs.hpp"
#include "pfs/stripe.hpp"
#include "sim/engine.hpp"

namespace pio::pfs {
namespace {

using namespace pio::literals;

// ----------------------------------------------------------------- striping

TEST(StripeTest, SingleChunkWithinOneStripe) {
  const StripeLayout layout{1_MiB, 4, 0};
  const auto chunks = decompose(layout, 8, 100, Bytes{200});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].ost, 0u);
  EXPECT_EQ(chunks[0].object_offset, 100u);
  EXPECT_EQ(chunks[0].length, Bytes{200});
}

TEST(StripeTest, CrossesStripeBoundaries) {
  const StripeLayout layout{Bytes{100}, 2, 0};
  // [150, 350) -> stripe1 [150,200) ost1, stripe2 [200,300) ost0,
  // stripe3 [300,350) ost1.
  const auto chunks = decompose(layout, 4, 150, Bytes{200});
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].ost, 1u);
  EXPECT_EQ(chunks[0].object_offset, 50u);
  EXPECT_EQ(chunks[0].length, Bytes{50});
  EXPECT_EQ(chunks[1].ost, 0u);
  EXPECT_EQ(chunks[1].object_offset, 100u);  // second full cycle for lane 0
  EXPECT_EQ(chunks[1].length, Bytes{100});
  EXPECT_EQ(chunks[2].ost, 1u);
  EXPECT_EQ(chunks[2].object_offset, 100u);
  EXPECT_EQ(chunks[2].length, Bytes{50});
}

TEST(StripeTest, RotationOffsetsOstAssignment) {
  const StripeLayout layout{Bytes{100}, 2, 3};
  EXPECT_EQ(ost_for_offset(layout, 4, 0), 3u);
  EXPECT_EQ(ost_for_offset(layout, 4, 100), 0u);  // wraps 3+1 mod 4
}

TEST(StripeTest, InvalidConfigsThrow) {
  EXPECT_THROW((void)decompose(StripeLayout{Bytes{0}, 1, 0}, 4, 0, Bytes{1}),
               std::invalid_argument);
  EXPECT_THROW((void)decompose(StripeLayout{Bytes{64}, 0, 0}, 4, 0, Bytes{1}),
               std::invalid_argument);
  EXPECT_THROW((void)decompose(StripeLayout{Bytes{64}, 8, 0}, 4, 0, Bytes{1}),
               std::invalid_argument);
}

struct StripeCase {
  std::uint64_t stripe_size;
  std::uint32_t stripe_count;
  std::uint32_t first_ost;
  std::uint32_t total_osts;
  std::uint64_t offset;
  std::uint64_t size;
};

// Names each case by stripe size x count, first OST of total, and the
// request, e.g. "64x4_ost0of4_off0_len1000". Without this, gtest prints the
// raw bytes of the struct, padding included, and those can differ between
// builds.
void PrintTo(const StripeCase& c, std::ostream* os) {
  *os << c.stripe_size << 'x' << c.stripe_count << "_ost" << c.first_ost << "of"
      << c.total_osts << "_off" << c.offset << "_len" << c.size;
}

class StripePropertyTest : public ::testing::TestWithParam<StripeCase> {};

/// Property: the chunks exactly tile [offset, offset+size), stay within the
/// declared stripe lanes, and per-OST object offsets are consistent with
/// the round-robin layout.
TEST_P(StripePropertyTest, ChunksExactlyTileTheRequest) {
  const auto& p = GetParam();
  const StripeLayout layout{Bytes{p.stripe_size}, p.stripe_count, p.first_ost};
  const auto chunks = decompose(layout, p.total_osts, p.offset, Bytes{p.size});
  std::uint64_t cursor = p.offset;
  std::uint64_t total = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.file_offset, cursor);
    EXPECT_GT(c.length.count(), 0u);
    EXPECT_LE(c.length.count(), p.stripe_size);
    EXPECT_LT(c.ost, p.total_osts);
    EXPECT_EQ(c.ost, ost_for_offset(layout, p.total_osts, c.file_offset));
    cursor += c.length.count();
    total += c.length.count();
  }
  EXPECT_EQ(total, p.size);
  EXPECT_EQ(cursor, p.offset + p.size);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, StripePropertyTest,
    ::testing::Values(StripeCase{64, 1, 0, 1, 0, 1000},
                      StripeCase{64, 4, 0, 4, 0, 1000},
                      StripeCase{100, 3, 1, 7, 55, 1234},
                      StripeCase{1 << 20, 4, 2, 16, (1 << 20) - 1, (1 << 22) + 17},
                      StripeCase{128, 5, 4, 5, 12345, 6789},
                      StripeCase{4096, 2, 0, 3, 4096, 4096},
                      StripeCase{1, 2, 0, 2, 7, 13}));

// -------------------------------------------------------------------- disks

TEST(HddModelTest, SequentialIsFasterThanRandom) {
  const HddConfig config;
  HddModel seq{config, Rng{1, 0}};
  HddModel rnd{config, Rng{1, 0}};
  SimTime seq_total = SimTime::zero();
  SimTime rnd_total = SimTime::zero();
  std::uint64_t offset = 0;
  Rng jump{2, 0};
  for (int i = 0; i < 64; ++i) {
    seq_total += seq.service_time(DiskRequest{offset, 64_KiB, false});
    rnd_total += rnd.service_time(
        DiskRequest{jump.next_below(64ULL << 30), 64_KiB, false});
    offset += 64 * 1024;
  }
  // Seeks dominate: random must be at least 10x slower.
  EXPECT_GT(rnd_total.sec(), seq_total.sec() * 10);
  EXPECT_GT(seq.sequential_hits(), 60u);
  EXPECT_GT(rnd.seeks(), 60u);
}

TEST(SsdModelTest, FlatLatencyProfile) {
  SsdModel ssd{SsdConfig{}};
  const SimTime a = ssd.service_time(DiskRequest{0, 4_KiB, false});
  const SimTime b = ssd.service_time(DiskRequest{77ULL << 30, 4_KiB, false});
  EXPECT_EQ(a, b);  // position-independent
  const SimTime w = ssd.service_time(DiskRequest{0, 4_KiB, true});
  EXPECT_NE(w, a);  // read/write asymmetry
}

// ---------------------------------------------------------------------- OST

TEST(OstServerTest, CountsAndObserver) {
  sim::Engine e;
  OstServer ost{e, 3, make_ssd(SsdConfig{})};
  std::vector<obs::Span> spans;
  e.set_span_sink([&](const obs::Span& s) { spans.push_back(s); });
  int done = 0;
  ost.submit(0, 1_MiB, true, [&](OstCompletion c) { done += c.ok() ? 1 : 0; });
  ost.submit(1 << 20, 1_MiB, false, [&](OstCompletion c) { done += c.ok() ? 1 : 0; });
  e.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(ost.stats().write_ops, 1u);
  EXPECT_EQ(ost.stats().read_ops, 1u);
  EXPECT_EQ(ost.stats().bytes_written, 1_MiB);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].layer, obs::Layer::kOst);
  EXPECT_EQ(spans[0].component, 3u);
  EXPECT_EQ(static_cast<obs::DataKind>(spans[0].kind), obs::DataKind::kWrite);
  EXPECT_EQ(static_cast<obs::DataKind>(spans[1].kind), obs::DataKind::kRead);
  EXPECT_EQ(spans[0].bytes, 1_MiB);
  EXPECT_GT(spans[0].end, spans[0].start);
}

// ---------------------------------------------------------------------- MDS

class MdsTest : public ::testing::Test {
 protected:
  MetaResult request(MetaOp op, const std::string& path,
                     std::optional<StripeLayout> layout = std::nullopt) {
    MetaResult out;
    mds_.request(op, mds_.intern(path), [&](MetaResult r) { out = std::move(r); }, layout);
    engine_.run();
    return out;
  }

  sim::Engine engine_;
  MetadataServer mds_{engine_, MdsConfig{}};
};

TEST_F(MdsTest, CreateOpenStatUnlinkLifecycle) {
  EXPECT_EQ(request(MetaOp::kOpen, "/f").status, MetaStatus::kNotFound);
  const auto created = request(MetaOp::kCreate, "/f");
  EXPECT_TRUE(created.ok());
  ASSERT_TRUE(created.inode.has_value());
  EXPECT_FALSE(created.inode->is_dir);
  EXPECT_EQ(request(MetaOp::kCreate, "/f").status, MetaStatus::kExists);
  EXPECT_TRUE(request(MetaOp::kStat, "/f").ok());
  EXPECT_TRUE(request(MetaOp::kUnlink, "/f").ok());
  EXPECT_EQ(request(MetaOp::kStat, "/f").status, MetaStatus::kNotFound);
}

TEST_F(MdsTest, DirectoriesAndReaddir) {
  EXPECT_TRUE(request(MetaOp::kMkdir, "/d").ok());
  EXPECT_TRUE(request(MetaOp::kCreate, "/d/a").ok());
  EXPECT_TRUE(request(MetaOp::kCreate, "/d/b").ok());
  EXPECT_TRUE(request(MetaOp::kMkdir, "/d/sub").ok());
  EXPECT_TRUE(request(MetaOp::kCreate, "/d/sub/deep").ok());
  const auto listing = request(MetaOp::kReaddir, "/d");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.entries.size(), 3u);  // a, b, sub — not deep
  EXPECT_EQ(request(MetaOp::kUnlink, "/d").status, MetaStatus::kNotEmpty);
  EXPECT_EQ(request(MetaOp::kCreate, "/nodir/x").status, MetaStatus::kNotFound);
  EXPECT_EQ(request(MetaOp::kReaddir, "/d/a").status, MetaStatus::kNotDir);
}

TEST_F(MdsTest, CustomLayoutIsStored) {
  const StripeLayout layout{4_MiB, 2, 1};
  const auto created = request(MetaOp::kCreate, "/striped", layout);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.inode->layout.stripe_size, 4_MiB);
  EXPECT_EQ(created.inode->layout.stripe_count, 2u);
}

TEST_F(MdsTest, ConcurrencyIsBoundedByThreads) {
  // 8 stats with 4 threads: completions come in two waves.
  std::vector<std::int64_t> times;
  (void)request(MetaOp::kCreate, "/f");
  for (int i = 0; i < 8; ++i) {
    mds_.request(MetaOp::kStat, mds_.intern("/f"),
                 [&](MetaResult) { times.push_back(engine_.now().ns()); });
  }
  engine_.run();
  ASSERT_EQ(times.size(), 8u);
  EXPECT_EQ(times[0], times[3]);      // first wave together
  EXPECT_EQ(times[4], times[7]);      // second wave together
  EXPECT_GT(times[4], times[0]);      // strictly later
  EXPECT_EQ(mds_.stats().ops_total, 9u);
}

TEST_F(MdsTest, StatsTrackErrors) {
  (void)request(MetaOp::kOpen, "/missing");
  EXPECT_EQ(mds_.stats().errors, 1u);
}

// ------------------------------------------------------------- burst buffer

TEST(BurstBufferTest, AbsorbsThenDrains) {
  sim::Engine e;
  Bytes drained_to_backend = Bytes::zero();
  BurstBufferConfig config;
  config.capacity = 8_MiB;
  config.drain_delay = 1_ms;
  BurstBuffer bb{e, config,
                 [&](std::uint64_t, std::uint64_t, Bytes size, std::function<void()> done) {
                   drained_to_backend += size;
                   e.schedule_after(1_ms, std::move(done));
                 }};
  bool absorbed = false;
  ASSERT_TRUE(bb.can_absorb(4_MiB));
  bb.write(1, 0, 4_MiB, [&] { absorbed = true; });
  e.run();
  EXPECT_TRUE(absorbed);
  EXPECT_EQ(drained_to_backend, 4_MiB);
  EXPECT_EQ(bb.occupancy(), Bytes::zero());
  EXPECT_TRUE(bb.quiescent());
  EXPECT_EQ(bb.stats().absorbed, 4_MiB);
  EXPECT_EQ(bb.stats().drained, 4_MiB);
}

TEST(BurstBufferTest, RejectsWhenFull) {
  sim::Engine e;
  BurstBufferConfig config;
  config.capacity = 2_MiB;
  config.drain_delay = 1_s;  // drain far in the future
  BurstBuffer bb{e, config,
                 [&](std::uint64_t, std::uint64_t, Bytes, std::function<void()> done) {
                   done();
                 }};
  bb.write(1, 0, 2_MiB, [] {});
  EXPECT_FALSE(bb.can_absorb(Bytes{1}));
  EXPECT_THROW(bb.write(1, 0, Bytes{1}, [] {}), std::logic_error);
}

TEST(BurstBufferTest, ReadHitsStagedData) {
  sim::Engine e;
  BurstBufferConfig config;
  config.drain_delay = 10_s;  // keep data staged during the test
  BurstBuffer bb{e, config,
                 [&](std::uint64_t, std::uint64_t, Bytes, std::function<void()> done) {
                   done();
                 }};
  bb.write(7, 1024, 1_MiB, [] {});
  e.run(1_s);
  EXPECT_TRUE(bb.resident(7, 1024, 1_MiB));
  EXPECT_TRUE(bb.resident(7, 2048, 1_KiB));
  EXPECT_FALSE(bb.resident(7, 0, Bytes{2048}));
  EXPECT_FALSE(bb.resident(8, 1024, 1_KiB));
  bool read_done = false;
  bb.read(7, 1024, 1_MiB, [&] { read_done = true; });
  e.run(2_s);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(bb.stats().read_hits, 1_MiB);
}

// ------------------------------------------------------------- end-to-end

class PfsModelTest : public ::testing::Test {
 protected:
  static PfsConfig small_config() {
    PfsConfig config;
    config.clients = 4;
    config.io_nodes = 2;
    config.osts = 4;
    config.disk_kind = DiskKind::kSsd;
    return config;
  }

  MetaResult meta(PfsModel& model, ClientId c, MetaOp op, const std::string& path) {
    MetaResult out;
    model.meta(c, op, model.mds().intern(path), [&](MetaResult r) { out = std::move(r); });
    model.engine().run();
    return out;
  }

  IoResult io(PfsModel& model, ClientId c, const std::string& path, const StripeLayout& layout,
              std::uint64_t offset, Bytes size, bool is_write) {
    IoResult out;
    model.io(c, model.mds().intern(path), layout, offset, size, is_write,
             [&](IoResult r) { out = r; });
    model.engine().run();
    return out;
  }
};

TEST_F(PfsModelTest, WriteThenReadCompletesAndLandsOnOsts) {
  sim::Engine e;
  PfsModel model{e, small_config()};
  const auto created = meta(model, 0, MetaOp::kCreate, "/data");
  ASSERT_TRUE(created.ok());
  const StripeLayout layout = created.inode->layout;
  const auto wrote = io(model, 0, "/data", layout, 0, 8_MiB, true);
  EXPECT_TRUE(wrote.ok);
  EXPECT_GT(wrote.latency(), SimTime::zero());
  Bytes on_osts = Bytes::zero();
  for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
    on_osts += model.ost(i).stats().bytes_written;
  }
  EXPECT_EQ(on_osts, 8_MiB);
  const auto read = io(model, 1, "/data", layout, 0, 8_MiB, false);
  EXPECT_TRUE(read.ok);
  // MDS saw the size grow.
  EXPECT_EQ(model.mds().find_inode(model.mds().intern("/data"))->size, 8_MiB);
}

TEST_F(PfsModelTest, StripingSpreadsLoadAcrossOsts) {
  sim::Engine e;
  auto config = small_config();
  config.mds.default_layout = StripeLayout{1_MiB, 4, 0};
  PfsModel model{e, config};
  (void)meta(model, 0, MetaOp::kCreate, "/wide");
  (void)io(model, 0, "/wide", config.mds.default_layout, 0, 16_MiB, true);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(model.ost(i).stats().bytes_written, 4_MiB) << "ost " << i;
  }
}

TEST_F(PfsModelTest, BurstBufferAbsorbsWriteFasterThanHddPath) {
  auto direct_config = small_config();
  direct_config.disk_kind = DiskKind::kHdd;
  sim::Engine e1;
  PfsModel direct{e1, direct_config};
  (void)meta(direct, 0, MetaOp::kCreate, "/ckpt");
  const auto direct_write =
      io(direct, 0, "/ckpt", direct.mds().config().default_layout, 0, 64_MiB, true);

  auto bb_config = direct_config;
  bb_config.bb_placement = BbPlacement::kPerIoNode;
  sim::Engine e2;
  PfsModel buffered{e2, bb_config};
  (void)meta(buffered, 0, MetaOp::kCreate, "/ckpt");
  const auto buffered_write =
      io(buffered, 0, "/ckpt", buffered.mds().config().default_layout, 0, 64_MiB, true);

  EXPECT_TRUE(direct_write.ok);
  EXPECT_TRUE(buffered_write.ok);
  EXPECT_LT(buffered_write.latency().sec(), direct_write.latency().sec());
  // And the drain eventually lands the bytes on the OSTs.
  e2.run();
  EXPECT_TRUE(buffered.buffers_quiescent());
  Bytes on_osts = Bytes::zero();
  for (std::uint32_t i = 0; i < buffered.ost_count(); ++i) {
    on_osts += buffered.ost(i).stats().bytes_written;
  }
  EXPECT_EQ(on_osts, 64_MiB);
}

TEST_F(PfsModelTest, DeterministicAcrossRuns) {
  auto run_once = [this] {
    sim::Engine e{7};
    PfsModel model{e, small_config()};
    (void)meta(model, 0, MetaOp::kCreate, "/d");
    std::vector<std::int64_t> latencies;
    for (int i = 0; i < 8; ++i) {
      model.io(static_cast<ClientId>(i % 4), model.mds().intern("/d"),
               model.mds().config().default_layout, static_cast<std::uint64_t>(i) << 20, 1_MiB,
               true,
               [&](IoResult r) { latencies.push_back(r.latency().ns()); });
    }
    e.run();
    return latencies;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(PfsModelTest, IoOnMissingPathFailsWithNoEntry) {
  sim::Engine e;
  PfsModel model{e, small_config()};
  // No create ever happened: both directions fail with a distinct error.
  const auto read = io(model, 0, "/never-created", StripeLayout{}, 0, 1_MiB, false);
  EXPECT_FALSE(read.ok);
  EXPECT_EQ(read.error, IoError::kNoEntry);
  const auto write = io(model, 1, "/never-created", StripeLayout{}, 0, 1_MiB, true);
  EXPECT_FALSE(write.ok);
  EXPECT_EQ(write.error, IoError::kNoEntry);
  EXPECT_EQ(model.resilience_stats().failed_ops, 2u);
  // Directories are not data files either.
  (void)meta(model, 0, MetaOp::kMkdir, "/dir");
  const auto dir_io = io(model, 0, "/dir", StripeLayout{}, 0, 1_MiB, true);
  EXPECT_EQ(dir_io.error, IoError::kNoEntry);
}

TEST_F(PfsModelTest, FailedIoLatencyIsWellDefined) {
  sim::Engine e;
  PfsModel model{e, small_config()};
  IoResult result;
  // Issue at a nonzero sim time so an accidental completed=0 would underflow.
  e.schedule_after(SimTime::from_ms(5.0), [&] {
    model.io(0, model.mds().intern("/missing"), StripeLayout{}, 0, 1_MiB, false,
             [&](IoResult r) { result = r; });
  });
  e.run();
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.completed, result.issued);
  EXPECT_GE(result.latency(), SimTime::zero());  // no sim::check trip, no underflow
  EXPECT_GE(result.issued, SimTime::from_ms(5.0));
}

}  // namespace
}  // namespace pio::pfs
