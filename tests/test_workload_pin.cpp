// Differential pin of every workload generator's op streams.
//
// Each row folds one generator's output, rank by rank and op by op, as
// (kind, path, offset, size, think time) into an Fnv64. The path is the
// op's file resolved through its workload's path table, so the pin holds
// whatever the in-memory op layout: a change to how ops name their files
// (strings, interned ids) must leave every row unchanged. It sits beside
// test_golden: test_golden pins what the model makes of the streams, this
// file pins the streams themselves, including generators no golden runs
// (DSL, profile synthesis, trace replay, extrapolation, decompression).
//
// Rebaseline recipe (on purpose only, with the reason in CHANGES.md):
//   ./build/tests/test_workload_pin 2>&1 | grep 'pin\[' — paste each "got".
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "replay/compress.hpp"
#include "replay/extrapolate.hpp"
#include "replay/trace_workload.hpp"
#include "trace/profiler.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/dsl.hpp"
#include "workload/from_profile.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio {
namespace {

/// The path an op names, as its workload resolves it.
const std::string& resolved_path(const workload::Workload& w, const workload::Op& op) {
  return w.path(op.file);
}

std::uint64_t stream_digest(const workload::Workload& w) {
  Fnv64 h;
  h.mix(w.name());
  h.mix(static_cast<std::uint64_t>(w.ranks()));
  for (std::int32_t r = 0; r < w.ranks(); ++r) {
    h.mix(static_cast<std::uint64_t>(r));
    std::uint64_t ops = 0;
    const auto stream = w.stream(r);
    while (const auto op = stream->next()) {
      h.mix(static_cast<std::uint64_t>(op->kind));
      h.mix(resolved_path(w, *op));
      h.mix(op->offset);
      h.mix(op->size.count());
      h.mix(static_cast<std::uint64_t>(op->think_time.ns()));
      ++ops;
    }
    h.mix(ops);
  }
  return h.digest();
}

void expect_pin(std::string_view name, const workload::Workload& w, std::uint64_t want) {
  const std::uint64_t got = stream_digest(w);
  EXPECT_EQ(got, want) << "pin[" << name << "] got 0x" << std::hex << got;
}

workload::IorConfig ior_config(bool file_per_process) {
  workload::IorConfig c;
  c.ranks = 6;
  c.block_size = Bytes::from_mib(4);
  c.transfer_size = Bytes::from_mib(1);
  c.file_per_process = file_per_process;
  c.read_phase = true;
  c.iterations = 2;
  c.compute_between_iterations = SimTime::from_ms(5.0);
  c.directory = "/pin-ior";
  return c;
}

/// A fixed multi-layer trace: out-of-order starts, start ties broken by rank
/// and end, repeated opens, a write to a never-opened path, syncs, an
/// untranslatable op, and MPI-IO events the POSIX replay must drop.
trace::Trace fixed_trace() {
  std::vector<trace::TraceEvent> events;
  auto add = [&](trace::Layer layer, trace::OpKind op, std::int32_t rank, std::string path,
                 std::uint64_t offset, std::uint64_t size, double start_us, double end_us) {
    trace::TraceEvent e;
    e.layer = layer;
    e.op = op;
    e.rank = rank;
    e.path = std::move(path);
    e.offset = offset;
    e.size = size;
    e.start = SimTime::from_us(start_us);
    e.end = SimTime::from_us(end_us);
    events.push_back(std::move(e));
  };
  using L = trace::Layer;
  using K = trace::OpKind;
  for (std::int32_t r = 3; r >= 0; --r) {
    const std::string own = "/run/out." + std::to_string(r);
    const double t = 10.0 * r;
    const auto u = static_cast<std::uint64_t>(r);
    add(L::kPosix, K::kMkdir, r, "/run", 0, 0, t, t + 2);
    add(L::kPosix, K::kOpen, r, "/run/shared", 0, 0, t + 3, t + 4);
    add(L::kMpiIo, K::kWrite, r, "/run/shared", 4096 * u, 4096, t + 5, t + 40);
    add(L::kPosix, K::kWrite, r, "/run/shared", 4096 * u, 4096, t + 5, t + 39);
    add(L::kPosix, K::kWrite, r, own, 0, 1000 + u, t + 5, t + 6);
    add(L::kPosix, K::kRead, r, "/run/shared", 0, 512, t + 60, t + 61);
    add(L::kPosix, K::kStat, r, own, 0, 0, t + 60, t + 60.5);
    add(L::kPosix, K::kSync, r, "", 0, 0, t + 70, t + 71);
    add(L::kPosix, K::kOther, r, "/run/ignored", 0, 0, t + 72, t + 73);
    add(L::kPosix, K::kFsync, r, own, 0, 0, t + 74, t + 75);
    add(L::kPosix, K::kClose, r, own, 0, 0, t + 80, t + 81);
    add(L::kPosix, K::kReaddir, r, "/run", 0, 0, t + 90, t + 91);
    add(L::kPosix, K::kOpen, r, "/run/shared", 0, 0, t + 100, t + 101);
    add(L::kPosix, K::kClose, r, "/run/shared", 0, 0, t + 102, t + 103);
    if (r % 2 == 1) add(L::kPosix, K::kUnlink, r, own, 0, 0, t + 110, t + 111);
  }
  return trace::Trace{std::move(events)};
}

TEST(WorkloadPin, IorSharedFile) {
  expect_pin("ior_shared", *workload::ior_like(ior_config(false)), 0x8cb3e17f63c4bbddULL);
}

TEST(WorkloadPin, IorFilePerProcess) {
  expect_pin("ior_fpp", *workload::ior_like(ior_config(true)), 0xcf2ad4791b2bf3c1ULL);
}

TEST(WorkloadPin, Mdtest) {
  workload::MdtestConfig c;
  c.ranks = 4;
  c.files_per_rank = 12;
  c.write_per_file = Bytes::from_kib(4);
  c.directory = "/pin-md";
  expect_pin("mdtest", *workload::mdtest_like(c), 0xe8db641c52ab6536ULL);
}

TEST(WorkloadPin, HaccIo) {
  workload::HaccIoConfig c;
  c.ranks = 4;
  c.particles_per_rank = 1000;
  expect_pin("hacc_shared", *workload::hacc_io_like(c), 0xd50f0fe56baba91eULL);
  c.file_per_process = true;
  expect_pin("hacc_fpp", *workload::hacc_io_like(c), 0x562d658ce2743ac6ULL);
}

TEST(WorkloadPin, Btio) {
  workload::BtioConfig c;
  c.ranks = 4;
  c.grid_points = 8;
  c.time_steps = 2;
  expect_pin("btio", *workload::btio_like(c), 0xbc306ec81b205aa4ULL);
}

TEST(WorkloadPin, CheckpointRestart) {
  workload::CheckpointConfig c;
  c.ranks = 3;
  c.checkpoint_per_rank = Bytes::from_mib(8);
  c.transfer_size = Bytes::from_mib(2);
  c.checkpoints = 2;
  expect_pin("checkpoint_fpp", *workload::checkpoint_restart(c), 0x0714d5e54f329615ULL);
  c.file_per_process = false;
  expect_pin("checkpoint_shared", *workload::checkpoint_restart(c), 0x97346a5186100c8bULL);
}

TEST(WorkloadPin, Dlio) {
  workload::DlioConfig c;
  c.ranks = 3;
  c.samples = 200;
  c.samples_per_file = 32;
  c.batch_size = 8;
  c.epochs = 2;
  c.seed = 7;
  expect_pin("dlio", *workload::dlio_like(c), 0xfccae2d50326006aULL);
  c.include_preparation = false;
  c.shuffle = false;
  expect_pin("dlio_sequential", *workload::dlio_like(c), 0xc8dbb9276b569742ULL);
}

TEST(WorkloadPin, WorkflowDag) {
  workload::WorkflowConfig c;
  c.workers = 3;
  c.stages = 3;
  c.tasks_per_stage = 5;
  c.files_per_task = 2;
  c.file_size = Bytes::from_kib(64);
  expect_pin("workflow", *workload::workflow_dag(c), 0xdf43c75be2867d7cULL);
}

TEST(WorkloadPin, Dsl) {
  const auto w = workload::parse_dsl(R"(
    name "pin-dsl"
    ranks 4
    mkdir "/pin"
    barrier
    create "/pin/ckpt.{rank}"
    loop i 3 {
      compute 2ms
      write "/pin/ckpt.{rank}" at i * 1MiB size 1MiB
      read "/pin/shared.{i % 2}" at rank * 4KiB size 4KiB
      barrier
    }
    fsync "/pin/ckpt.{rank}"
    close "/pin/ckpt.{rank}"
    stat "/pin/ckpt.{(rank + 1) % ranks}"
    readdir "/pin"
    unlink "/pin/ckpt.{rank}"
  )");
  expect_pin("dsl", *w, 0xaee02603b70265cfULL);
}

TEST(WorkloadPin, FromProfile) {
  const trace::Trace t = fixed_trace();
  trace::Profiler profiler;
  for (const auto& e : t.events()) profiler.record(e);
  workload::FromProfileConfig c;
  c.seed = 5;
  expect_pin("from_profile", *workload::workload_from_profile(profiler.snapshot(), c),
             0x8e13fb3774393787ULL);
}

TEST(WorkloadPin, WorkloadFromTrace) {
  const trace::Trace t = fixed_trace();
  expect_pin("replay_posix", *replay::workload_from_trace(t), 0xd69a62799f86adedULL);
  replay::TraceReplayConfig c;
  c.preserve_think_time = false;
  c.layer = trace::Layer::kMpiIo;
  expect_pin("replay_mpiio", *replay::workload_from_trace(t, c), 0xae7b6770799cb7aULL);
}

TEST(WorkloadPin, Extrapolate) {
  const auto captured = workload::parse_dsl(R"(
    name "pin-x"
    ranks 3
    create "/x/out.{rank}"
    loop i 2 {
      write "/x/out.{rank}" at i * 1MiB size 1MiB
      write "/x/shared" at (2 * rank + i) * 64KiB size 64KiB
      compute 1ms
      barrier
    }
    close "/x/out.{rank}"
  )");
  const auto model = replay::ExtrapolationModel::fit(*captured);
  ASSERT_TRUE(model.has_value());
  expect_pin("extrapolate_x16", *model->generate(16), 0x7e4dd29209d77440ULL);
}

TEST(WorkloadPin, CompressRoundTrip) {
  workload::WorkflowConfig c;
  c.workers = 2;
  c.stages = 2;
  c.tasks_per_stage = 3;
  const auto decompressed =
      replay::CompressedWorkload::compress(*workload::workflow_dag(c)).decompress();
  expect_pin("decompressed_workflow", *decompressed, 0x5b2927dde8cb430cULL);
}

}  // namespace
}  // namespace pio
