#include "workload/workflow.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace pio::workload {

namespace {

std::string task_file(const WorkflowConfig& config, std::int32_t stage, std::int32_t task,
                      std::int32_t file) {
  return config.directory + "/stage" + std::to_string(stage) + "/task" + std::to_string(task) +
         ".out" + std::to_string(file);
}

void check(const WorkflowConfig& config) {
  if (config.workers <= 0 || config.stages <= 0 || config.tasks_per_stage <= 0 ||
      config.files_per_task <= 0) {
    throw std::invalid_argument("workflow_dag: counts must be positive");
  }
  if (config.file_size % config.transaction_size != Bytes::zero()) {
    throw std::invalid_argument("workflow_dag: file_size must be a multiple of transaction_size");
  }
}

}  // namespace

std::uint64_t workflow_op_count(const WorkflowConfig& config) {
  check(config);
  const auto workers = static_cast<std::uint64_t>(config.workers);
  const auto stages = static_cast<std::uint64_t>(config.stages);
  const auto tasks = static_cast<std::uint64_t>(config.tasks_per_stage);
  const auto files = static_cast<std::uint64_t>(config.files_per_task);
  const auto polls = static_cast<std::uint64_t>(std::max(config.stat_polls_per_input, 0));
  const std::uint64_t transactions = config.file_size / config.transaction_size;
  // Worker 0 makes the top and every stage directory; each worker waits at
  // one barrier first and two per stage. Every task of every stage writes
  // its outputs (create, the transactions, close) between a compute and a
  // readdir; from the second stage on it first reads its inputs (the polls,
  // open, the transactions, close).
  return 1 + workers + stages * (1 + 2 * workers) +
         tasks * (stages * (2 + files * (2 + transactions)) +
                  (stages - 1) * files * (polls + 2 + transactions));
}

std::unique_ptr<Workload> workflow_dag(const WorkflowConfig& config) {
  check(config);
  const std::uint64_t transactions = config.file_size / config.transaction_size;
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(config.workers));
  PathTable paths;
  const FileId top = paths.intern(config.directory);

  for (std::int32_t w = 0; w < config.workers; ++w) {
    auto& ops = per_rank[static_cast<std::size_t>(w)];
    if (w == 0) ops.push_back(Op::mkdir(top));
    ops.push_back(Op::barrier());
    for (std::int32_t stage = 0; stage < config.stages; ++stage) {
      const FileId stage_dir = paths.intern(config.directory + "/stage" + std::to_string(stage));
      if (w == 0) ops.push_back(Op::mkdir(stage_dir));
      ops.push_back(Op::barrier());
      // Tasks of this stage are distributed round-robin over workers.
      for (std::int32_t task = w; task < config.tasks_per_stage; task += config.workers) {
        // Input side: read one predecessor task's outputs (stage > 0). The
        // DAG edge is task -> same-index task of the previous stage.
        if (stage > 0) {
          for (std::int32_t f = 0; f < config.files_per_task; ++f) {
            const FileId input = paths.intern(task_file(config, stage - 1, task, f));
            // Readiness polling: the engine stats the file repeatedly.
            for (std::int32_t p = 0; p < config.stat_polls_per_input; ++p) {
              ops.push_back(Op::stat(input));
            }
            ops.push_back(Op::open(input));
            for (std::uint64_t t = 0; t < transactions; ++t) {
              ops.push_back(Op::read(input, t * config.transaction_size.count(),
                                     config.transaction_size));
            }
            ops.push_back(Op::close(input));
          }
        }
        ops.push_back(Op::compute(config.compute_per_task));
        // Output side: many small files, written in small transactions.
        for (std::int32_t f = 0; f < config.files_per_task; ++f) {
          const FileId output = paths.intern(task_file(config, stage, task, f));
          ops.push_back(Op::create(output));
          for (std::uint64_t t = 0; t < transactions; ++t) {
            ops.push_back(Op::write(output, t * config.transaction_size.count(),
                                    config.transaction_size));
          }
          ops.push_back(Op::close(output));
        }
        // Completion marker: engines list the stage directory to track
        // progress.
        ops.push_back(Op::readdir(stage_dir));
      }
      ops.push_back(Op::barrier());  // stage boundary
    }
  }
  return std::make_unique<Workload>("workflow", std::move(paths), std::move(per_rank));
}

}  // namespace pio::workload
