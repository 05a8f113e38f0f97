// PIOEval workload: data-intensive scientific workflow (§V.C).
//
// "In sharp contrast to the traditional highly coherent, sequential,
// large-transaction reads and writes, data-intensive workflows have been
// shown to often utilize non-sequential, metadata-intensive, and small-
// transaction reads and writes" [73].
//
// The generator models a stage-parallel workflow DAG executed by a pool of
// workers: each task polls its input files' existence (stat storms — the
// way workflow engines detect readiness), reads its inputs in small
// transactions, computes, and writes many small output files. Stages are
// separated by barriers (engine-level synchronization points).
#pragma once

#include <memory>

#include "common/types.hpp"
#include "workload/op.hpp"

namespace pio::workload {

struct WorkflowConfig {
  std::int32_t workers = 8;              ///< ranks executing tasks
  std::int32_t stages = 4;
  std::int32_t tasks_per_stage = 32;
  std::int32_t files_per_task = 4;       ///< outputs written by each task
  Bytes file_size = Bytes::from_kib(256);
  Bytes transaction_size = Bytes::from_kib(16);  ///< small-transaction unit
  std::int32_t stat_polls_per_input = 3; ///< readiness polling per dependency
  SimTime compute_per_task = SimTime::from_ms(20.0);
  std::string directory = "/workflow";
};

/// Stage-parallel workflow DAG workload.
[[nodiscard]] std::unique_ptr<Workload> workflow_dag(const WorkflowConfig& config);

/// The number of ops `workflow_dag(config)` builds, over all workers, in
/// closed form: nothing is built. Throws what `workflow_dag` throws.
[[nodiscard]] std::uint64_t workflow_op_count(const WorkflowConfig& config);

}  // namespace pio::workload
