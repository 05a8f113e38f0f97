// PIOEval storage substrate: object storage target (OST) server.
//
// An OST is a FIFO service queue in front of one device model. Each op's
// completion is an obs::Span on the engine's sink, the server-side
// monitoring path of §IV.A.2 ("server-side statistics ... load on the
// servers and storage devices").
// With a fault timeline attached, the OST honors down intervals (requests
// arriving while down are rejected; in-service ops interrupted by a crash
// fail at recovery) and straggler slowdown multipliers on service times.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "obs/span.hpp"
#include "pfs/disk.hpp"
#include "pfs/resilience.hpp"
#include "sim/engine.hpp"
#include "sim/records.hpp"
#include "sim/resources.hpp"

namespace pio::pfs {

/// How one OST operation resolved. Every submit() resolves exactly one way
/// (invariant F5a audits the accounting at quiescence).
enum class OstOutcome : std::uint8_t {
  kOk,
  kRejectedDown,      ///< arrived during a down interval
  kRejectedOverload,  ///< bounced at the door by admission control
  kShed,              ///< dropped at dequeue (queueing delay > sojourn target)
  kInterrupted,       ///< in queue/service when a crash hit
};

[[nodiscard]] const char* to_string(OstOutcome outcome);

/// Completion delivered to the submitter.
struct OstCompletion {
  OstOutcome outcome = OstOutcome::kOk;
  /// Server-suggested earliest useful retry time (admission rejections and
  /// sheds only; zero otherwise).
  SimTime retry_after = SimTime::zero();

  [[nodiscard]] bool ok() const { return outcome == OstOutcome::kOk; }
  /// True for the admission-control outcomes (door rejection or shed).
  [[nodiscard]] bool overloaded() const {
    return outcome == OstOutcome::kRejectedOverload || outcome == OstOutcome::kShed;
  }
};

/// Aggregate OST counters.
struct OstStats {
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  Bytes bytes_read = Bytes::zero();
  Bytes bytes_written = Bytes::zero();
  std::uint64_t rejected_ops = 0;     ///< arrived during a down interval
  std::uint64_t interrupted_ops = 0;  ///< in service when a crash hit
  // Admission accounting (F5a): submitted == completed + rejected +
  // overload_rejected + shed + interrupted at quiescence.
  std::uint64_t submitted_ops = 0;          ///< every submit() call
  std::uint64_t completed_ops = 0;          ///< ok device completions
  std::uint64_t overload_rejected_ops = 0;  ///< bounced at the door
  std::uint64_t shed_ops = 0;               ///< dropped at dequeue
};

class OstServer {
 public:
  /// `index` is the OST's position in the pool (a span's component).
  OstServer(sim::Engine& engine, std::uint32_t index, std::unique_ptr<DiskModel> disk);

  OstServer(const OstServer&) = delete;
  OstServer& operator=(const OstServer&) = delete;

  /// Enqueue a device op; `on_done` fires when the device completes it or
  /// the fault timeline / admission control rejects, sheds or interrupts it.
  void submit(std::uint64_t object_offset, Bytes size, bool is_write,
              std::function<void(OstCompletion)> on_done);

  /// Configure the admission policy (default: unbounded, the legacy
  /// behaviour). kCodelShed arms the queue's sojourn target.
  void set_admission(const AdmissionConfig& admission);

  /// Attach the fault timeline (owned by the PFS facade; must outlive the
  /// OST's use). Null detaches — fair-weather behaviour.
  void set_fault_timeline(const fault::Timeline* timeline) { timeline_ = timeline; }

  [[nodiscard]] const OstStats& stats() const { return stats_; }
  [[nodiscard]] const sim::ServerStats& queue_stats() const { return queue_.stats(); }
  [[nodiscard]] std::uint64_t queue_depth() const { return queue_.queue_depth(); }
  /// Submitted ops whose completion has not yet been delivered.
  [[nodiscard]] std::size_t ops_in_flight() const { return ops_.live(); }
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const DiskModel& disk() const { return *disk_; }
  [[nodiscard]] fault::ComponentId component_id() const {
    return {fault::ComponentKind::kOst, index_};
  }

 private:
  /// One submitted op, from submit() to its completion.
  struct Op {
    obs::Span span;  ///< start, bytes, kind and queue depth set at submit
    SimTime retry_after = SimTime::zero();  ///< door-rejection hint
    std::function<void(OstCompletion)> on_done;
  };

  /// The queue's sink: serve op `h`, or deliver its shed.
  void serve(sim::Handle h, bool shed);
  /// Stamp, audit and emit op `h`'s span, release it, then deliver `completion`.
  void finish(sim::Handle h, OstCompletion completion);
  /// Retry-after hint for a door rejection: roughly the time for the queue
  /// to drain back under the bound, floored by the configured minimum.
  [[nodiscard]] SimTime reject_retry_after() const;

  sim::Engine& engine_;
  std::uint32_t index_;
  std::unique_ptr<DiskModel> disk_;
  sim::FifoServer queue_;
  sim::RecordPool<Op> ops_;
  OstStats stats_;
  AdmissionConfig admission_{};
  const fault::Timeline* timeline_ = nullptr;
};

}  // namespace pio::pfs
