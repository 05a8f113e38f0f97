// Unit tests for workload kernels, the DL reader, workflows, the facility
// mix generator, the DSL, and profile-based generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "trace/profiler.hpp"
#include "workload/dlio.hpp"
#include "workload/dsl.hpp"
#include "workload/facility_mix.hpp"
#include "workload/from_profile.hpp"
#include "workload/kernels.hpp"
#include "workload/op.hpp"
#include "workload/workflow.hpp"

namespace pio::workload {
namespace {

using namespace pio::literals;

TEST(IorTest, FootprintMatchesConfig) {
  IorConfig config;
  config.ranks = 4;
  config.block_size = 8_MiB;
  config.transfer_size = 1_MiB;
  config.write_phase = true;
  config.read_phase = true;
  const auto w = ior_like(config);
  const auto fp = footprint(*w);
  EXPECT_EQ(fp.bytes_written, 32_MiB);
  EXPECT_EQ(fp.bytes_read, 32_MiB);
}

TEST(IorTest, SharedFileWritesAreDisjointPerRank) {
  IorConfig config;
  config.ranks = 4;
  config.block_size = 4_MiB;
  config.transfer_size = 1_MiB;
  config.file_per_process = false;
  const auto w = ior_like(config);
  std::set<std::uint64_t> offsets;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    for (const auto& op : w->ops(r)) {
      if (op.kind == OpKind::kWrite) {
        EXPECT_TRUE(offsets.insert(op.offset).second) << "overlapping write at " << op.offset;
      }
    }
  }
  EXPECT_EQ(offsets.size(), 16u);
}

TEST(IorTest, BarrierCountsAreSymmetric) {
  IorConfig config;
  config.ranks = 3;
  config.read_phase = true;
  const auto w = ior_like(config);
  std::vector<std::size_t> barriers;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    std::size_t count = 0;
    for (const auto& op : w->ops(r)) {
      if (op.kind == OpKind::kBarrier) ++count;
    }
    barriers.push_back(count);
  }
  for (std::size_t r = 1; r < barriers.size(); ++r) EXPECT_EQ(barriers[r], barriers[0]);
}

TEST(IorTest, RejectsBadConfig) {
  IorConfig config;
  config.block_size = Bytes{1000};
  config.transfer_size = Bytes{333};
  EXPECT_THROW((void)ior_like(config), std::invalid_argument);
}

TEST(MdtestTest, OpCountsMatch) {
  MdtestConfig config;
  config.ranks = 2;
  config.files_per_rank = 10;
  const auto fp = footprint(*mdtest_like(config));
  // Per rank: 1 mkdir(own dir) + 10 create + 10 close + 10 stat + 10 unlink
  // = 41 metadata ops, plus rank0's shared mkdir.
  EXPECT_EQ(fp.metadata_ops, 2u * 41u + 1u);
  EXPECT_EQ(fp.bytes_written, Bytes::zero());
}

TEST(HaccTest, ParticleBytes) {
  HaccIoConfig config;
  config.ranks = 2;
  config.particles_per_rank = 1000;
  const auto fp = footprint(*hacc_io_like(config));
  EXPECT_EQ(fp.bytes_written, Bytes{2 * 1000 * kHaccParticleBytes});
}

TEST(BtioTest, RequiresSquareRanks) {
  BtioConfig config;
  config.ranks = 3;
  EXPECT_THROW((void)btio_like(config), std::invalid_argument);
}

TEST(BtioTest, WritesTileTheCubeExactly) {
  BtioConfig config;
  config.ranks = 4;
  config.grid_points = 8;
  config.cell_bytes = Bytes{40};
  config.time_steps = 1;
  const auto w = btio_like(config);
  std::map<std::uint64_t, std::uint64_t> extents;  // offset -> len
  std::uint64_t total = 0;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    for (const auto& op : w->ops(r)) {
      if (op.kind != OpKind::kWrite) continue;
      EXPECT_TRUE(extents.emplace(op.offset, op.size.count()).second);
      total += op.size.count();
    }
  }
  const std::uint64_t cube = 8ULL * 8 * 8 * 40;
  EXPECT_EQ(total, cube);
  // Verify no overlaps and full coverage.
  std::uint64_t cursor = 0;
  for (const auto& [offset, len] : extents) {
    EXPECT_EQ(offset, cursor);
    cursor += len;
  }
  EXPECT_EQ(cursor, cube);
  // The pattern is genuinely strided: each write is one sub-row of
  // 8/sqrt(4) = 4 cells = 160 bytes, far smaller than the 20 KiB cube.
  EXPECT_EQ(extents.begin()->second, 160u);
}

TEST(DlioTest, EveryEpochVisitsEverySampleExactlyOnce) {
  DlioConfig config;
  config.ranks = 4;
  config.samples = 256;
  config.samples_per_file = 64;
  config.batch_size = 8;
  config.epochs = 2;
  config.include_preparation = false;
  const auto w = dlio_like(config);
  // Collect reads per epoch across ranks; epochs are separated by barriers.
  std::vector<std::multiset<std::pair<std::string, std::uint64_t>>> epochs(3);
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    std::size_t epoch = 0;
    bool read_in_epoch = false;
    for (const Op& op : w->ops(r)) {
      if (op.kind == OpKind::kRead) {
        ASSERT_LT(epoch, epochs.size());
        epochs[epoch].emplace(w->path(op.file), op.offset);
        read_in_epoch = true;
      }
      // The prep barrier precedes any reads; every later barrier ends an
      // epoch for this rank.
      if (op.kind == OpKind::kBarrier && read_in_epoch) {
        ++epoch;
        read_in_epoch = false;
      }
    }
  }
  // Two epochs of 256 distinct (file, offset) samples each.
  ASSERT_GE(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].size(), 256u);
  EXPECT_EQ(epochs[1].size(), 256u);
  const std::set<std::pair<std::string, std::uint64_t>> unique0(epochs[0].begin(),
                                                                epochs[0].end());
  EXPECT_EQ(unique0.size(), 256u) << "epoch 0 repeated a sample";
}

TEST(DlioTest, ShuffleChangesOrderButNotSet) {
  DlioConfig config;
  config.ranks = 1;
  config.samples = 64;
  config.samples_per_file = 64;
  config.include_preparation = false;
  auto collect = [&](bool shuffle) {
    config.shuffle = shuffle;
    std::vector<std::uint64_t> offsets;
    const auto w = dlio_like(config);
    for (const Op& op : w->ops(0)) {
      if (op.kind == OpKind::kRead) offsets.push_back(op.offset);
    }
    return offsets;
  };
  const auto sequential = collect(false);
  const auto shuffled = collect(true);
  EXPECT_NE(sequential, shuffled);
  EXPECT_EQ(std::multiset<std::uint64_t>(sequential.begin(), sequential.end()),
            std::multiset<std::uint64_t>(shuffled.begin(), shuffled.end()));
  // Sequential mode really is sorted.
  EXPECT_TRUE(std::is_sorted(sequential.begin(), sequential.end()));
}

// Two builds of one config give the same ops: the shuffle depends only on
// (seed, epoch).
TEST(DlioTest, StreamsAreReplayable) {
  DlioConfig config;
  config.ranks = 2;
  config.samples = 128;
  const auto wa = dlio_like(config);
  const auto wb = dlio_like(config);
  ASSERT_EQ(wa->ranks(), wb->ranks());
  for (std::int32_t r = 0; r < wa->ranks(); ++r) {
    const auto a = wa->ops(r);
    const auto b = wb->ops(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].offset, b[i].offset);
      EXPECT_EQ(a[i].file, b[i].file);
    }
  }
}

TEST(DlioTest, ReadsAreSmallAndRandom) {
  DlioConfig config;
  config.ranks = 1;
  config.samples = 512;
  config.samples_per_file = 128;
  config.sample_size = 128_KiB;
  config.include_preparation = false;
  const auto w = dlio_like(config);
  std::size_t reads = 0;
  std::size_t non_consecutive = 0;
  std::map<FileId, std::uint64_t> cursor;
  for (const Op& op : w->ops(0)) {
    if (op.kind != OpKind::kRead) continue;
    ++reads;
    EXPECT_EQ(op.size, 128_KiB);
    const auto it = cursor.find(op.file);
    if (it != cursor.end() && op.offset != it->second) ++non_consecutive;
    cursor[op.file] = op.offset + op.size.count();
  }
  EXPECT_EQ(reads, 512u);
  // Shuffled access: the vast majority of reads are non-consecutive.
  EXPECT_GT(non_consecutive, reads * 8 / 10);
}

// A shard past the dataset's size holds all of it: one shard, opened and
// closed once per rank, and every op names a file of the table (a shard
// count of (samples + samples_per_file - 1) / samples_per_file wraps to 0
// here and leaves the reads on an id past the table).
TEST(DlioTest, OversizedShardHoldsTheWholeDataset) {
  DlioConfig config;
  config.ranks = 3;
  config.samples = 64;
  config.samples_per_file = UINT64_MAX;
  config.batch_size = 4;
  const auto w = dlio_like(config);
  ASSERT_EQ(w->paths().size(), 3u);  // the empty path, the directory, one shard
  EXPECT_EQ(w->path(2), "/dataset/shard0.data");
  std::uint64_t reads = 0;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    std::uint64_t opens = 0;
    for (const Op& op : w->ops(r)) {
      EXPECT_LT(op.file, w->paths().size());
      opens += op.kind == OpKind::kOpen;
      reads += op.kind == OpKind::kRead;
    }
    EXPECT_EQ(opens, 1u);
  }
  EXPECT_EQ(reads, 64u);
  EXPECT_EQ(footprint(*w).ops, dlio_op_count(config));
}

// Each generator's closed-form count is exactly what it builds, over
// configs that reach every term of it.
TEST(OpCountTest, CountsMatchWhatTheGeneratorsBuild) {
  for (const std::int32_t ranks : {1, 3, 7}) {
    for (const std::int32_t iterations : {0, 1, 3}) {
      for (int flags = 0; flags < 16; ++flags) {
        IorConfig c;
        c.ranks = ranks;
        c.block_size = (flags & 1) != 0 ? 4_MiB : 1_MiB;
        c.file_per_process = (flags & 2) != 0;
        c.write_phase = (flags & 4) != 0;
        c.read_phase = (flags & 8) != 0;
        c.iterations = iterations;
        for (const SimTime compute : {SimTime::zero(), SimTime::from_ms(1.0)}) {
          c.compute_between_iterations = compute;
          EXPECT_EQ(footprint(*ior_like(c)).ops, ior_op_count(c))
              << "ior ranks " << ranks << ", iterations " << iterations << ", flags " << flags;
        }
      }
    }
    for (const std::uint64_t samples : {1u, 5u, 20u}) {
      for (const std::uint64_t per_file : {std::uint64_t{1}, std::uint64_t{4}, UINT64_MAX}) {
        for (const std::uint64_t batch : {1u, 3u, 16u}) {
          for (const std::int32_t epochs : {0, 1, 3}) {
            for (const bool prep : {false, true}) {
              DlioConfig c;
              c.ranks = ranks;
              c.samples = samples;
              c.samples_per_file = per_file;
              c.batch_size = batch;
              c.epochs = epochs;
              c.include_preparation = prep;
              EXPECT_EQ(footprint(*dlio_like(c)).ops, dlio_op_count(c))
                  << "dlio ranks " << ranks << ", samples " << samples << ", per_file "
                  << per_file << ", batch " << batch << ", epochs " << epochs;
            }
          }
        }
      }
    }
    for (const std::int32_t stages : {1, 3}) {
      for (const std::int32_t tasks : {1, 5}) {
        for (const std::int32_t files : {1, 2}) {
          for (const std::int32_t polls : {0, 3}) {
            WorkflowConfig c;
            c.workers = ranks;
            c.stages = stages;
            c.tasks_per_stage = tasks;
            c.files_per_task = files;
            c.stat_polls_per_input = polls;
            c.file_size = 64_KiB;
            EXPECT_EQ(footprint(*workflow_dag(c)).ops, workflow_op_count(c))
                << "workflow workers " << ranks << ", stages " << stages << ", tasks "
                << tasks << ", files " << files << ", polls " << polls;
          }
        }
      }
    }
  }
}

TEST(WorkflowTest, MetadataIntensiveAndSmallTransactions) {
  WorkflowConfig config;
  config.workers = 4;
  config.stages = 3;
  config.tasks_per_stage = 8;
  config.files_per_task = 2;
  config.file_size = 64_KiB;
  config.transaction_size = 16_KiB;
  const auto fp = footprint(*workflow_dag(config));
  // Small transactions by construction.
  EXPECT_GT(fp.metadata_ops, 100u);
  // Stage outputs: 3 stages * 8 tasks * 2 files * 64 KiB written.
  EXPECT_EQ(fp.bytes_written, Bytes{3ULL * 8 * 2 * 64 * 1024});
  // Stages 1..2 read stage-0/1 outputs.
  EXPECT_EQ(fp.bytes_read, Bytes{2ULL * 8 * 2 * 64 * 1024});
  // Metadata ops dominate data ops (the §V.C signature).
  const std::uint64_t data_ops = (fp.bytes_written.count() + fp.bytes_read.count()) /
                                 config.transaction_size.count();
  EXPECT_GT(fp.metadata_ops, data_ops / 2);
}

TEST(FacilityMixTest, DeterministicAndShiftsTowardReads) {
  FacilityMixConfig config;
  config.months = 24;
  config.jobs_per_month = 500;
  const auto log1 = generate_facility_log(config);
  const auto log2 = generate_facility_log(config);
  ASSERT_EQ(log1.size(), log2.size());
  EXPECT_EQ(log1.size(), 24u * 500u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(log1[i].bytes_read, log2[i].bytes_read);
    EXPECT_EQ(log1[i].job_class, log2[i].job_class);
  }
  const auto monthly = aggregate_by_month(log1);
  ASSERT_EQ(monthly.size(), 24u);
  // Ground truth: early months write-dominated, late months read-dominated.
  EXPECT_LT(monthly.front().read_fraction(), 0.5);
  EXPECT_GT(monthly.back().read_fraction(), 0.5);
  const auto crossover = read_write_crossover_month(monthly);
  EXPECT_GT(crossover, 0);
  EXPECT_LT(crossover, 24);
}

TEST(FacilityMixTest, PureErasHaveExpectedBalance) {
  FacilityMixConfig config;
  config.months = 1;
  config.jobs_per_month = 2000;
  config.from = era_simulation_2015();
  config.to = era_simulation_2015();
  const auto sim_monthly = aggregate_by_month(generate_facility_log(config));
  EXPECT_LT(sim_monthly[0].read_fraction(), 0.4);
  config.from = era_emerging_2019();
  config.to = era_emerging_2019();
  const auto emerging_monthly = aggregate_by_month(generate_facility_log(config));
  EXPECT_GT(emerging_monthly[0].read_fraction(), 0.55);
}

TEST(DslTest, ExpandsPerRankPrograms) {
  const auto w = parse_dsl(R"(
    name "demo"
    ranks 3
    mkdir "/out"
    barrier
    create "/out/f.{rank}"
    loop i 2 {
      write "/out/f.{rank}" at i * 1MiB size 64KiB
      compute 5ms
    }
    close "/out/f.{rank}"
  )");
  EXPECT_EQ(w->name(), "demo");
  ASSERT_EQ(w->ranks(), 3);
  const auto r1 = w->ops(1);
  ASSERT_EQ(r1.size(), 8u);
  EXPECT_EQ(r1[0].kind, OpKind::kMkdir);
  EXPECT_EQ(r1[2].kind, OpKind::kCreate);
  EXPECT_EQ(w->path(r1[2].file), "/out/f.1");
  EXPECT_EQ(r1[3].kind, OpKind::kWrite);
  EXPECT_EQ(r1[3].offset, 0u);
  EXPECT_EQ(r1[3].size, 64_KiB);
  EXPECT_EQ(r1[5].offset, (1_MiB).count());
  EXPECT_EQ(r1[4].kind, OpKind::kCompute);
  EXPECT_EQ(r1[4].think_time, SimTime::from_ms(5.0));
}

TEST(DslTest, ExpressionsAndUnits) {
  const auto w = parse_dsl(R"(
    ranks 4
    write "/f" at (rank * 2 + 1) * 1KiB size 2KiB + 512
  )");
  EXPECT_EQ(w->ops(3)[0].offset, 7u * 1024u);
  EXPECT_EQ(w->ops(3)[0].size, Bytes{2 * 1024 + 512});
}

TEST(DslTest, ErrorsCarryLineNumbers) {
  try {
    (void)parse_dsl("ranks 2\nwrite \"/f\" at 0");
    FAIL() << "expected DslError";
  } catch (const DslError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
  EXPECT_THROW((void)parse_dsl("ranks 0"), DslError);
  EXPECT_THROW((void)parse_dsl("write \"/f\" at 0 size 1"), DslError);  // no ranks
  EXPECT_THROW((void)parse_dsl("ranks 1\nbogus"), DslError);
  EXPECT_THROW((void)parse_dsl("ranks 1\nread \"/f\" at rank size oops2"), DslError);
  EXPECT_THROW((void)parse_dsl("ranks 1\nloop i 2 { loop i 2 { barrier } }"), DslError);
  EXPECT_THROW((void)parse_dsl("ranks 1\ncompute 5parsecs"), DslError);
  EXPECT_THROW((void)parse_dsl("ranks 1\nwrite \"/f\" at 1/0 size 4"), DslError);
}

// Regression seeds: each overflowed int64 (undefined behaviour) before
// parse_dsl checked its arithmetic, or expanded without bound.
TEST(DslTest, OverflowAndRunawayExpansionThrowDslError) {
  for (const char* program : {
           "ranks 99999999999999999999",
           "ranks 9999999999GiB",
           "ranks 1\nwrite \"/f\" at 0 size (4611686018427387904 * 4)",
           "ranks 1\ncompute 9223372036854775807 + 1",
           "ranks 1\ncompute 0 - 9223372036854775807 - 2",
           "ranks 1\ncompute (0 - 9223372036854775807 - 1) / (0 - 1)",
           "ranks 1\ncompute (0 - 9223372036854775807 - 1) % (0 - 1)",
           "ranks 1\nwrite \"/f\" at 1 % 0 size 4",
           "ranks 1\nloop i 99999999999 { barrier }",
           "ranks 1000000\nloop i 1000000 { }",
           "ranks 1\nloop i 1048576 { }",
       }) {
    EXPECT_THROW((void)parse_dsl(program), DslError) << program;
  }
  // The edges still parse: int64 max, int64 min as an intermediate, and a
  // program that spends exactly the 2^20-step expansion budget.
  const auto edges = parse_dsl(
      "ranks 1\ncompute 9223372036854775807\n"
      "compute (0 - 9223372036854775807 - 1) / (0 - 9223372036854775807 - 1)\n"
      "loop i 1048573 { }");
  const auto ops = edges->ops(0);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].think_time, SimTime::max());
  EXPECT_EQ(ops[1].think_time, SimTime::from_ns(1));
}

// Parsing, evaluation, expansion and teardown recurse once per nesting
// level; 300,000 nested parentheses or a 300,000-term sum overflowed the
// stack before the depth bound. Past 1024 levels is a DslError.
TEST(DslTest, NestingPastTheDepthBoundThrowsDslError) {
  const auto sum = [](int terms) {
    std::string program = "ranks 1\ncompute 1";
    for (int i = 1; i < terms; ++i) program += " + 1";
    return program;
  };
  const auto parens = [](int depth) {
    return "ranks 1\ncompute " + std::string(static_cast<std::size_t>(depth), '(') + "1" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  const auto loops = [](int depth) {
    std::string program = "ranks 1\n";
    for (int i = 0; i < depth; ++i) program += "loop v" + std::to_string(i) + " 1 { ";
    return program + "barrier" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_THROW((void)parse_dsl(sum(1025)), DslError);
  EXPECT_THROW((void)parse_dsl(parens(1025)), DslError);
  EXPECT_THROW((void)parse_dsl(loops(1025)), DslError);
  EXPECT_EQ(parse_dsl(sum(1024))->ops(0)[0].think_time, SimTime::from_ns(1024));
  EXPECT_EQ(parse_dsl(parens(1024))->ops(0)[0].think_time, SimTime::from_ns(1));
  EXPECT_EQ(parse_dsl(loops(1024))->ops(0).size(), 1u);
}

TEST(FromProfileTest, RegeneratedWorkloadMatchesOpCountsAndSizes) {
  // Build a profile by hand: one rank, one file, heavy 1 MiB writes.
  trace::Profiler profiler;
  for (int i = 0; i < 50; ++i) {
    trace::TraceEvent e;
    e.layer = trace::Layer::kPosix;
    e.op = trace::OpKind::kWrite;
    e.rank = 0;
    e.path = "/data";
    e.offset = static_cast<std::uint64_t>(i) << 20;
    e.size = 1 << 20;
    e.start = SimTime::from_ns(i);
    e.end = SimTime::from_ns(i + 1);
    profiler.record(e);
  }
  const auto w = workload_from_profile(profiler.snapshot(), FromProfileConfig{});
  const auto fp = footprint(*w);
  // Same op count; byte volume within the log2 bucket (1-2 MiB per op).
  std::uint64_t writes = 0;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    for (const auto& op : w->ops(r)) {
      if (op.kind == OpKind::kWrite) {
        ++writes;
        EXPECT_GE(op.size.count(), 1u << 20);
        EXPECT_LT(op.size.count(), 2u << 20);
      }
    }
  }
  EXPECT_EQ(writes, 50u);
  EXPECT_GE(fp.bytes_written.count(), 50ull << 20);
}

TEST(FromProfileTest, SequentialityIsApproximatelyPreserved) {
  trace::Profiler profiler;
  // Fully consecutive writes -> seq fraction 1.0.
  for (int i = 0; i < 100; ++i) {
    trace::TraceEvent e;
    e.layer = trace::Layer::kPosix;
    e.op = trace::OpKind::kWrite;
    e.rank = 0;
    e.path = "/seq";
    e.offset = static_cast<std::uint64_t>(i) * 4096;
    e.size = 4096;
    e.start = SimTime::from_ns(i);
    e.end = SimTime::from_ns(i + 1);
    profiler.record(e);
  }
  const auto w = workload_from_profile(profiler.snapshot(), FromProfileConfig{});
  // Re-profile the generated workload's offsets.
  std::uint64_t cursor = 0;
  std::uint64_t sequential = 0;
  std::uint64_t total = 0;
  for (std::int32_t r = 0; r < w->ranks(); ++r) {
    for (const auto& op : w->ops(r)) {
      if (op.kind != OpKind::kWrite) continue;
      ++total;
      if (op.offset >= cursor) ++sequential;
      cursor = op.offset + op.size.count();
    }
  }
  ASSERT_EQ(total, 100u);
  EXPECT_GT(static_cast<double>(sequential) / static_cast<double>(total), 0.9);
}

TEST(OpTest, FactoryHelpers) {
  EXPECT_EQ(Op::read(1, 5, Bytes{10}).kind, OpKind::kRead);
  EXPECT_EQ(Op::read(1, 5, Bytes{10}).file, 1u);
  EXPECT_EQ(Op::barrier().file, 0u);
  EXPECT_EQ(Op::barrier().kind, OpKind::kBarrier);
  EXPECT_EQ(Op::compute(5_ms).think_time, 5_ms);
  EXPECT_STREQ(to_string(OpKind::kUnlink), "unlink");
}

// A rank's stream hands out exactly its ops, in order, then nothing.
TEST(OpTest, StreamDrainsTheRankOps) {
  PathTable paths;
  const FileId f = paths.intern("/f");
  const Workload w{"two", std::move(paths),
                   {{Op::create(f), Op::write(f, 0, Bytes{8}), Op::close(f)}, {}}};
  for (std::int32_t r = 0; r < w.ranks(); ++r) {
    const auto stream = w.stream(r);
    std::size_t i = 0;
    while (const auto op = stream->next()) {
      ASSERT_LT(i, w.ops(r).size());
      EXPECT_EQ(op->kind, w.ops(r)[i].kind);
      EXPECT_EQ(op->size, w.ops(r)[i].size);
      ++i;
    }
    EXPECT_EQ(i, w.ops(r).size());
    EXPECT_FALSE(stream->next().has_value());
  }
}

}  // namespace
}  // namespace pio::workload
