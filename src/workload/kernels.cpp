#include "workload/kernels.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace pio::workload {

namespace {

std::string rank_file(const std::string& directory, const std::string& stem, std::int32_t rank) {
  return directory + "/" + stem + "." + std::to_string(rank);
}

}  // namespace

std::unique_ptr<Workload> ior_like(const IorConfig& config) {
  if (config.ranks <= 0) throw std::invalid_argument("ior_like: ranks must be positive");
  if (config.transfer_size == Bytes::zero() || config.block_size == Bytes::zero()) {
    throw std::invalid_argument("ior_like: sizes must be positive");
  }
  if (config.block_size % config.transfer_size != Bytes::zero()) {
    throw std::invalid_argument("ior_like: block_size must be a multiple of transfer_size");
  }
  const std::uint64_t transfers = config.block_size / config.transfer_size;
  const std::uint64_t per_iteration = (config.write_phase ? transfers + 5 : 0) +
                                      (config.read_phase ? transfers + 3 : 0) + 1;
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.ranks));
  PathTable paths;
  const FileId directory = paths.intern(config.directory);
  const FileId shared =
      config.file_per_process ? 0 : paths.intern(config.directory + "/testfile");
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    ops.reserve(2 + per_iteration * static_cast<std::uint64_t>(config.iterations));
    if (r == 0) ops.push_back(Op::mkdir(directory));
    ops.push_back(Op::barrier());  // directory exists before anyone opens
    const FileId path =
        config.file_per_process ? paths.intern(rank_file(config.directory, "testfile", r))
                                : shared;
    // In shared mode each rank owns a contiguous block at rank * block_size
    // (IOR's segmented layout).
    const std::uint64_t base =
        config.file_per_process ? 0 : static_cast<std::uint64_t>(r) * config.block_size.count();
    for (std::int32_t iter = 0; iter < config.iterations; ++iter) {
      if (iter > 0 && config.compute_between_iterations > SimTime::zero()) {
        ops.push_back(Op::compute(config.compute_between_iterations));
      }
      if (config.write_phase) {
        // Creator first, then a barrier, then late openers — so a shared
        // file exists before any other rank opens it.
        if (config.file_per_process || r == 0) {
          ops.push_back(Op::create(path));
          ops.push_back(Op::barrier());
        } else {
          ops.push_back(Op::barrier());
          ops.push_back(Op::open(path));
        }
        for (std::uint64_t t = 0; t < transfers; ++t) {
          ops.push_back(Op::write(path, base + t * config.transfer_size.count(),
                                  config.transfer_size));
        }
        ops.push_back(Op::fsync(path));
        ops.push_back(Op::close(path));
        ops.push_back(Op::barrier());
      }
      if (config.read_phase) {
        ops.push_back(Op::open(path));
        for (std::uint64_t t = 0; t < transfers; ++t) {
          ops.push_back(Op::read(path, base + t * config.transfer_size.count(),
                                 config.transfer_size));
        }
        ops.push_back(Op::close(path));
        ops.push_back(Op::barrier());
      }
    }
  }
  return std::make_unique<VectorWorkload>("ior", std::move(paths), std::move(per_rank));
}

std::unique_ptr<Workload> mdtest_like(const MdtestConfig& config) {
  if (config.ranks <= 0) throw std::invalid_argument("mdtest_like: ranks must be positive");
  const std::uint64_t files = config.files_per_rank;
  const bool write = config.write_per_file > Bytes::zero();
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.ranks));
  PathTable paths;
  const FileId top = paths.intern(config.directory);
  std::vector<FileId> names(files);
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    ops.reserve(6 + files * (write ? 5 : 4));
    if (r == 0) ops.push_back(Op::mkdir(top));
    ops.push_back(Op::barrier());
    const std::string dir = config.directory + "/rank" + std::to_string(r);
    ops.push_back(Op::mkdir(paths.intern(dir)));
    // Phase 1: create storm.
    for (std::uint64_t f = 0; f < files; ++f) {
      names[f] = paths.intern(dir + "/file" + std::to_string(f));
      ops.push_back(Op::create(names[f]));
      if (write) ops.push_back(Op::write(names[f], 0, config.write_per_file));
      ops.push_back(Op::close(names[f]));
    }
    ops.push_back(Op::barrier());
    // Phase 2: stat storm.
    if (config.do_stat) {
      for (const FileId name : names) ops.push_back(Op::stat(name));
      ops.push_back(Op::barrier());
    }
    // Phase 3: unlink storm.
    if (config.do_unlink) {
      for (const FileId name : names) ops.push_back(Op::unlink(name));
      ops.push_back(Op::barrier());
    }
  }
  return std::make_unique<VectorWorkload>("mdtest", std::move(paths), std::move(per_rank));
}

std::unique_ptr<Workload> hacc_io_like(const HaccIoConfig& config) {
  if (config.ranks <= 0) throw std::invalid_argument("hacc_io_like: ranks must be positive");
  const Bytes per_rank_bytes{config.particles_per_rank * kHaccParticleBytes};
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.ranks));
  PathTable paths;
  const FileId directory = paths.intern(config.directory);
  const FileId shared =
      config.file_per_process ? 0 : paths.intern(config.directory + "/particles");
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    if (r == 0) ops.push_back(Op::mkdir(directory));
    ops.push_back(Op::barrier());
    const FileId path =
        config.file_per_process ? paths.intern(rank_file(config.directory, "particles", r))
                                : shared;
    const std::uint64_t base =
        config.file_per_process ? 0 : static_cast<std::uint64_t>(r) * per_rank_bytes.count();
    if (config.file_per_process || r == 0) {
      ops.push_back(Op::create(path));
      ops.push_back(Op::barrier());
    } else {
      ops.push_back(Op::barrier());
      ops.push_back(Op::open(path));
    }
    // HACC-IO writes the whole particle block in one shot per rank.
    ops.push_back(Op::write(path, base, per_rank_bytes));
    ops.push_back(Op::fsync(path));
    ops.push_back(Op::close(path));
    ops.push_back(Op::barrier());
  }
  return std::make_unique<VectorWorkload>("hacc-io", std::move(paths), std::move(per_rank));
}

std::unique_ptr<Workload> btio_like(const BtioConfig& config) {
  const auto side = static_cast<std::int32_t>(std::lround(std::sqrt(config.ranks)));
  if (side * side != config.ranks || config.ranks <= 0) {
    throw std::invalid_argument("btio_like: ranks must be a perfect square");
  }
  if (config.grid_points % static_cast<std::uint64_t>(side) != 0) {
    throw std::invalid_argument("btio_like: grid_points must divide by sqrt(ranks)");
  }
  const std::uint64_t n = config.grid_points;
  const std::uint64_t cells_per_side = n / static_cast<std::uint64_t>(side);
  const std::uint64_t cell = config.cell_bytes.count();
  const std::uint64_t plane = n * n * cell;  // one z-plane of the cube
  const std::uint64_t row = n * cell;
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.ranks));
  PathTable paths;
  const FileId directory = paths.intern("/btio");
  const FileId file = paths.intern(config.file);
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    ops.reserve(4 + static_cast<std::uint64_t>(config.time_steps) * (n * cells_per_side + 1));
    if (r == 0) {
      ops.push_back(Op::mkdir(directory));
      ops.push_back(Op::create(file));
    }
    ops.push_back(Op::barrier());
    if (r != 0) ops.push_back(Op::open(file));
    // Rank (rx, ry) owns rows [ry*cps, (ry+1)*cps) x cols [rx*cps, ...).
    const std::uint64_t rx = static_cast<std::uint64_t>(r % side);
    const std::uint64_t ry = static_cast<std::uint64_t>(r / side);
    for (std::int32_t step = 0; step < config.time_steps; ++step) {
      // Each step appends a full cube snapshot; within it, the rank writes
      // its sub-rows: one small strided write per (z, y) pair.
      const std::uint64_t snapshot_base = static_cast<std::uint64_t>(step) * n * plane;
      for (std::uint64_t z = 0; z < n; ++z) {
        for (std::uint64_t y = ry * cells_per_side; y < (ry + 1) * cells_per_side; ++y) {
          const std::uint64_t offset =
              snapshot_base + z * plane + y * row + rx * cells_per_side * cell;
          ops.push_back(Op::write(file, offset, Bytes{cells_per_side * cell}));
        }
      }
      ops.push_back(Op::barrier());
    }
    if (r == 0) ops.push_back(Op::fsync(file));
    ops.push_back(Op::close(file));
  }
  return std::make_unique<VectorWorkload>("btio", std::move(paths), std::move(per_rank));
}

std::unique_ptr<Workload> checkpoint_restart(const CheckpointConfig& config) {
  if (config.ranks <= 0) throw std::invalid_argument("checkpoint_restart: ranks must be positive");
  if (config.checkpoint_per_rank % config.transfer_size != Bytes::zero()) {
    throw std::invalid_argument(
        "checkpoint_restart: checkpoint size must be a multiple of transfer size");
  }
  const std::uint64_t transfers = config.checkpoint_per_rank / config.transfer_size;
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.ranks));
  PathTable paths;
  const FileId directory = paths.intern(config.directory);
  for (std::int32_t r = 0; r < config.ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    ops.reserve(2 + static_cast<std::uint64_t>(config.checkpoints) * (transfers + 7));
    if (r == 0) ops.push_back(Op::mkdir(directory));
    ops.push_back(Op::barrier());
    for (std::int32_t c = 0; c < config.checkpoints; ++c) {
      ops.push_back(Op::compute(config.compute_phase));
      ops.push_back(Op::barrier());  // bulk-synchronous: everyone dumps at once
      const std::string stem = config.directory + "/ckpt" + std::to_string(c);
      const FileId path =
          paths.intern(config.file_per_process ? stem + "." + std::to_string(r) : stem);
      const std::uint64_t base =
          config.file_per_process
              ? 0
              : static_cast<std::uint64_t>(r) * config.checkpoint_per_rank.count();
      if (config.file_per_process || r == 0) {
        ops.push_back(Op::create(path));
        ops.push_back(Op::barrier());
      } else {
        ops.push_back(Op::barrier());
        ops.push_back(Op::open(path));
      }
      for (std::uint64_t t = 0; t < transfers; ++t) {
        ops.push_back(Op::write(path, base + t * config.transfer_size.count(),
                                config.transfer_size));
      }
      ops.push_back(Op::fsync(path));
      ops.push_back(Op::close(path));
      ops.push_back(Op::barrier());
    }
  }
  return std::make_unique<VectorWorkload>("checkpoint", std::move(paths), std::move(per_rank));
}

}  // namespace pio::workload
