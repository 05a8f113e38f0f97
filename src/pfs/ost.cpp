#include "pfs/ost.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace pio::pfs {

const char* to_string(OstOutcome outcome) {
  switch (outcome) {
    case OstOutcome::kOk: return "ok";
    case OstOutcome::kRejectedDown: return "rejected-down";
    case OstOutcome::kRejectedOverload: return "rejected-overload";
    case OstOutcome::kShed: return "shed";
    case OstOutcome::kInterrupted: return "interrupted";
  }
  return "?";
}

OstServer::OstServer(sim::Engine& engine, std::uint32_t index, std::unique_ptr<DiskModel> disk)
    : engine_(engine),
      index_(index),
      disk_(std::move(disk)),
      queue_(engine, [this](sim::Handle h, bool shed) { serve(h, shed); },
             "ost" + std::to_string(index)) {
  if (!disk_) throw std::invalid_argument("OstServer: null disk model");
}

void OstServer::set_admission(const AdmissionConfig& admission) {
  admission_ = admission;
  queue_.set_shed_target(admission.policy == AdmissionPolicy::kCodelShed
                             ? admission.shed_target
                             : SimTime::zero());
}

SimTime OstServer::reject_retry_after() const {
  // Estimate the drain time for the depth in excess of the bound from the
  // queue's observed mean service time; before any completion the floor
  // stands in. The hint is advisory pacing, not a reservation.
  const sim::ServerStats& qs = queue_.stats();
  const std::uint64_t depth = queue_.queue_depth();
  const std::uint64_t excess =
      depth >= admission_.max_queue_depth ? depth - admission_.max_queue_depth + 1 : 1;
  SimTime hint = admission_.retry_after_floor;
  if (qs.jobs_completed > 0) {
    const SimTime mean_service = qs.busy_time / static_cast<std::int64_t>(qs.jobs_completed);
    hint = std::max(hint, mean_service * static_cast<std::int64_t>(excess));
  }
  return hint;
}

void OstServer::finish(sim::Handle h, OstCompletion completion) {
  obs::Span span = ops_[h].span;
  span.end = engine_.now();
  span.ok = completion.ok();
  // Invariant F1 applies to *successful* completions only: a rejection is the
  // "connection refused" notice and legitimately fires while the OST is down.
  if (completion.ok() && timeline_) {
    timeline_->check_handler_allowed(component_id(), engine_.now());
  }
  if (completion.ok()) ++stats_.completed_ops;
  const std::function<void(OstCompletion)> done = std::move(ops_[h].on_done);
  ops_[h].on_done = nullptr;
  ops_.release(h);
  engine_.emit(span);
  if (done) done(completion);
}

void OstServer::submit(std::uint64_t object_offset, Bytes size, bool is_write,
                       std::function<void(OstCompletion)> on_done) {
  const SimTime now = engine_.now();
  ++stats_.submitted_ops;
  const sim::Handle h = ops_.acquire();
  const auto kind = is_write ? obs::DataKind::kWrite : obs::DataKind::kRead;
  ops_[h].span = {.layer = obs::Layer::kOst, .kind = static_cast<std::uint8_t>(kind),
                  .component = index_, .start = now, .bytes = size,
                  .queue_depth = queue_.queue_depth()};
  ops_[h].on_done = std::move(on_done);

  // A request that arrives while the OST is down bounces at the door: no
  // device work, no byte accounting, an immediate (next-delta) failure.
  if (timeline_ && timeline_->down(component_id(), now)) {
    ++stats_.rejected_ops;
    engine_.schedule_after(SimTime::zero(), [this, h] {
      finish(h, OstCompletion{OstOutcome::kRejectedDown, SimTime::zero()});
    });
    return;
  }

  // Admission control (DESIGN.md §14): reject-at-door bounces the request
  // before any device or queue state is touched, with a retry-after hint so
  // well-behaved clients pace their retries to the drain rate.
  if (admission_.policy == AdmissionPolicy::kRejectAtDoor &&
      queue_.queue_depth() >= admission_.max_queue_depth) {
    ++stats_.overload_rejected_ops;
    ops_[h].retry_after = reject_retry_after();
    engine_.schedule_after(SimTime::zero(), [this, h] {
      finish(h, OstCompletion{OstOutcome::kRejectedOverload, ops_[h].retry_after});
    });
    return;
  }

  // The device model is consulted at enqueue time in queue order, which is
  // also service order for a FIFO queue, so head-position state stays
  // consistent with the order requests actually hit the platter. Straggler
  // slowdowns scale the device estimate by the factor in effect now.
  // (A later shed skips the service but keeps this estimate's head motion —
  // an accepted approximation: sheds are rare relative to served ops.)
  SimTime service = disk_->service_time(DiskRequest{object_offset, size, is_write});
  if (timeline_) service = timeline_->scaled(component_id(), now, service);
  if (is_write) {
    ++stats_.write_ops;
    stats_.bytes_written += size;
  } else {
    ++stats_.read_ops;
    stats_.bytes_read += size;
  }
  queue_.submit(service, h);
}

void OstServer::serve(sim::Handle h, bool shed) {
  if (shed) {
    ++stats_.shed_ops;
    finish(h, OstCompletion{OstOutcome::kShed, std::max(admission_.retry_after_floor,
                                                        admission_.shed_target)});
    return;
  }
  // If a crash hit while this op was queued or in service, the op is lost:
  // its failure surfaces at recovery, never inside the down interval (F1).
  if (timeline_ && timeline_->down(component_id(), engine_.now())) {
    ++stats_.interrupted_ops;
    const SimTime recovery = timeline_->down_until(component_id(), engine_.now());
    engine_.schedule_at(recovery, [this, h] {
      finish(h, OstCompletion{OstOutcome::kInterrupted, SimTime::zero()});
    });
    return;
  }
  finish(h, OstCompletion{OstOutcome::kOk, SimTime::zero()});
}

}  // namespace pio::pfs
