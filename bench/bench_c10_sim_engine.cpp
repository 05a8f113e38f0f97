// C10 — Discrete-event engine throughput (the §IV.C substrate).
//
// Paper: simulation is the stand-in for testbeds researchers do not have;
// that is only viable if the engine sustains millions of events per second.
// This is the one google-benchmark microbenchmark binary: engine event
// throughput, oversized-payload scheduling through the heap, fluid-channel
// transfers, fabric messages, end-to-end PFS model ops, and the pioevald
// wire path (frame CRC, a fully cached campaign served).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "svc/evald.hpp"
#include "svc/messages.hpp"

using namespace pio;
using namespace pio::literals;

namespace {

void BM_EngineEventStorm(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng = engine.rng_stream(1);
    for (std::uint64_t i = 0; i < events; ++i) {
      engine.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 20))),
                         [] {});
    }
    const auto executed = engine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_EngineEventStorm)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_EngineSelfScheduling(benchmark::State& state) {
  // Event-chain pattern: each handler schedules the next (server-loop shape).
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t remaining = depth;
    std::function<void()> next = [&] {
      if (--remaining > 0) engine.schedule_after(1_us, next);
    };
    engine.schedule_after(1_us, next);
    engine.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(depth) * state.iterations());
}
BENCHMARK(BM_EngineSelfScheduling)->Arg(1 << 14)->Arg(1 << 17);

void BM_EngineOversizePayloads(benchmark::State& state) {
  // Fat captures (> Task::kInlineBytes) force the oversized-payload path:
  // one plain heap allocation per event.
  constexpr std::uint64_t kEvents = 1 << 15;
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng = engine.rng_stream(1);
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      std::array<std::uint64_t, 16> fat{};
      fat[0] = i;
      engine.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 20))),
                         // piolint: allow(C2) — run() drains before sink leaves scope.
                         [&sink, fat] { sink += fat[0]; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) * state.iterations());
}
BENCHMARK(BM_EngineOversizePayloads);

void BM_FairShareChannel(benchmark::State& state) {
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t drained = 0;
    // piolint: allow(C2) — engine.run() drains before drained leaves scope.
    sim::FairShareChannel link{engine, Bandwidth::from_gib_per_sec(10.0), 1_us,
                               [&drained](sim::Handle) { ++drained; }};
    for (std::uint64_t f = 0; f < flows; ++f) {
      // piolint: allow(C2) — engine.run() drains before link leaves scope.
      engine.schedule_at(SimTime::from_us(static_cast<double>(f % 64)), [&link, f] {
        link.transfer(1_MiB, static_cast<sim::Handle>(f));
      });
    }
    engine.run();
    benchmark::DoNotOptimize(drained);
    benchmark::DoNotOptimize(link.bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) * state.iterations());
}
// 16 flows: the constant cost per event; 256 to 4096: growth with flow count.
BENCHMARK(BM_FairShareChannel)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fabric(benchmark::State& state) {
  // Bursts of N concurrent 1 MiB messages across a 64-endpoint fabric, one
  // burst per iteration on the same (warm) fabric. Each message is one
  // pooled record whose handle the inject, core and eject channels pass to
  // the next stage's sink, so the row reads the steady-state per-message
  // cost of the three-stage path.
  const auto messages = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint32_t kEndpoints = 64;
  sim::Engine engine;
  net::Fabric fabric{engine, net::FabricConfig{}, kEndpoints};
  for (auto _ : state) {
    for (std::uint64_t m = 0; m < messages; ++m) {
      fabric.send(static_cast<net::EndpointId>(m % kEndpoints),
                  static_cast<net::EndpointId>((m * 7 + 1) % kEndpoints), 1_MiB, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(fabric.stats().bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages) * state.iterations());
}
// 16 messages: the constant cost per message; 256 and 2048: growth with load.
BENCHMARK(BM_Fabric)->Arg(16)->Arg(256)->Arg(2048);

void BM_PfsModelEndToEnd(benchmark::State& state) {
  const auto ops = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    pfs::PfsConfig config;
    config.clients = 8;
    config.io_nodes = 2;
    config.osts = 8;
    config.disk_kind = pfs::DiskKind::kSsd;
    pfs::PfsModel model{engine, config};
    pfs::MetaResult created;
    const FileId bench = model.mds().intern("/bench");
    model.meta(0, pfs::MetaOp::kCreate, bench, [&](pfs::MetaResult r) { created = r; });
    engine.run();
    for (std::uint64_t i = 0; i < ops; ++i) {
      model.io(static_cast<pfs::ClientId>(i % 8), bench, created.inode->layout,
               (i % 64) << 20, 1_MiB, true, [](pfs::IoResult) {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops) * state.iterations());
}
BENCHMARK(BM_PfsModelEndToEnd)->Arg(256)->Arg(2048);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> bytes(n);
  Rng rng{1, 1};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(codec::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
// 64 B: a small reply; 305 B: one PointResult frame's payload and header;
// 4 KiB: the long-buffer rate.
BENCHMARK(BM_Crc32)->Arg(64)->Arg(305)->Arg(4096);

void BM_SvcServedPoint(benchmark::State& state) {
  // One fully cached 4-point campaign per iteration through one session:
  // feed its submit, pump one round and split the output into frames, as a
  // client of a warm pioevald sees it. Items are points served.
  constexpr std::uint32_t kPoints = 4;
  svc::CampaignSpec spec;
  spec.testbed = {4, 2, 4, 1};
  spec.model = {4, 2, 2, 1};
  for (std::uint32_t j = 0; j < kPoints; ++j) {
    svc::WorkloadSpec w;
    w.ranks = 2;
    w.block_kib = 128 * (1 + j);
    w.transfer_kib = 32;
    spec.workloads.push_back(w);
  }
  std::vector<std::uint8_t> submit;
  svc::append_frame(svc::MsgType::kSubmitCampaign, svc::encode(svc::SubmitCampaign{spec}),
                    submit);
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit);
  evald.drain();  // computes and caches every point
  (void)evald.take_output(sid);
  for (auto _ : state) {
    evald.feed(sid, submit);
    (void)evald.pump();
    const std::vector<svc::Frame> frames = svc::split_frames(evald.take_output(sid));
    benchmark::DoNotOptimize(frames.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) * state.iterations());
  evald.close_session(sid);
}
BENCHMARK(BM_SvcServedPoint);

}  // namespace

int main(int argc, char** argv) {
  // The context's library_build_type describes the installed libbenchmark;
  // record how this binary's own code was compiled next to it.
#if defined(NDEBUG)
  benchmark::AddCustomContext("pio_build_type", "release");
#else
  benchmark::AddCustomContext("pio_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
