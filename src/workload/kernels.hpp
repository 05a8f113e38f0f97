// PIOEval workload: classic HPC benchmark kernels (§IV.A.1, §VI).
//
// The paper's finding: "the majority of the examined research still relies
// on synthetic benchmarks such as IOR, NPB, and HACC-IO or write-intensive,
// bursty workloads." These are those benchmarks, as workload generators:
//
//  - ior_like:    contiguous block/transfer sweeps, shared-file or
//                 file-per-process, optional read-back verification phase
//  - mdtest_like: create/stat/unlink storms over many small files
//  - hacc_io_like: particle checkpoint (HACC-IO's fixed 38 B/particle
//                 record, bulk contiguous writes)
//  - btio_like:   NPB BT-IO's nested strided pattern (each rank owns an
//                 interleaved sub-cube, producing many small strided ops)
//  - checkpoint_restart: periodic write bursts separated by compute
#pragma once

#include <memory>

#include "common/types.hpp"
#include "workload/op.hpp"

namespace pio::workload {

struct IorConfig {
  std::int32_t ranks = 8;
  Bytes block_size = Bytes::from_mib(16);     ///< contiguous region per rank
  Bytes transfer_size = Bytes::from_mib(1);   ///< size of each read/write
  bool file_per_process = false;              ///< vs one shared file
  bool write_phase = true;
  bool read_phase = false;                    ///< read back after writing
  std::int32_t iterations = 1;
  SimTime compute_between_iterations = SimTime::zero();
  std::string directory = "/ior";
};

/// IOR-like synthetic benchmark [76].
[[nodiscard]] std::unique_ptr<Workload> ior_like(const IorConfig& config);

/// The number of ops `ior_like(config)` builds, over all ranks, in closed
/// form: nothing is built. Throws what `ior_like` throws.
[[nodiscard]] std::uint64_t ior_op_count(const IorConfig& config);

struct MdtestConfig {
  std::int32_t ranks = 8;
  std::uint64_t files_per_rank = 64;
  bool do_stat = true;
  bool do_unlink = true;
  /// Bytes written into each file right after creation (0 = empty files,
  /// the mdtest default).
  Bytes write_per_file = Bytes::zero();
  std::string directory = "/mdtest";
};

/// mdtest-like metadata benchmark [8]: per-rank directories filled with
/// small files, then stat and unlink storms.
[[nodiscard]] std::unique_ptr<Workload> mdtest_like(const MdtestConfig& config);

struct HaccIoConfig {
  std::int32_t ranks = 8;
  std::uint64_t particles_per_rank = 1'000'000;
  bool file_per_process = false;
  std::string directory = "/hacc";
};

/// HACC-IO-like particle checkpoint [78]: 38 bytes per particle (9 floats
/// + 2 uint8, the HACC record), written as one contiguous block per rank.
[[nodiscard]] std::unique_ptr<Workload> hacc_io_like(const HaccIoConfig& config);
/// The HACC particle record size (bytes).
inline constexpr std::uint64_t kHaccParticleBytes = 38;

struct BtioConfig {
  std::int32_t ranks = 4;          ///< must be a perfect square (BT constraint)
  std::uint64_t grid_points = 64;  ///< cells per dimension of the global cube
  Bytes cell_bytes = Bytes{40};    ///< 5 doubles per cell, BT's solution vector
  std::int32_t time_steps = 4;     ///< BT writes the solution every few steps
  std::string file = "/btio/solution";
};

/// NPB BT-IO-like nested strided writes [77]: the global cube is stored in
/// row-major order; each rank owns an interleaved sub-block, so each rank's
/// write decomposes into many small strided pieces. This is the canonical
/// collective-buffering motivation workload (experiment C8).
[[nodiscard]] std::unique_ptr<Workload> btio_like(const BtioConfig& config);

struct CheckpointConfig {
  std::int32_t ranks = 8;
  Bytes checkpoint_per_rank = Bytes::from_mib(64);
  Bytes transfer_size = Bytes::from_mib(4);
  std::int32_t checkpoints = 4;
  SimTime compute_phase = SimTime::from_sec(5.0);
  bool file_per_process = true;
  std::string directory = "/ckpt";
};

/// Bursty checkpoint/restart cycle: long compute, then every rank dumps its
/// state at once — the traditional write-intensive HPC pattern the paper
/// contrasts emerging workloads against.
[[nodiscard]] std::unique_ptr<Workload> checkpoint_restart(const CheckpointConfig& config);

}  // namespace pio::workload
