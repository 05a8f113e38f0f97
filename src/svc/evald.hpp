// PIOEval svc: the pioevald campaign service.
//
// The paper's "evaluation as a service" thread (§V: shared benchmarks,
// comparable results, the IO500 model) implies a long-running daemon in
// front of the simulator: many clients submit campaign specs, the service
// schedules the points fairly, computes each distinct point once, and
// streams results back. `Evald` is that daemon, in-process: byte streams
// in, byte streams out, no sockets — the framing layer (messages.hpp) is
// exactly what a socket transport would carry, and tests/benches/the
// `pioevald` tool drive thousands of sessions through it.
//
// Shape (DESIGN.md §15):
//   - The public API is single-threaded: feed()/pump()/take_output() are
//     called from one thread, so the service itself needs no locks.
//     Parallelism lives below, in the owned exec::Pool that pump() fans
//     each round's cold points out on (map_ordered ⇒ the full output byte
//     stream is identical at any thread count).
//   - Sessions are independent framed streams. A protocol fault is
//     answered with a typed Error frame; payload-level faults skip the
//     frame, header-level faults poison the session (framing itself can
//     no longer be trusted) — never a crash, never state corruption.
//   - Scheduling is round-robin across sessions with queued points: each
//     pump() round takes up to `session_inflight_cap` points per session,
//     interleaved one-per-session per pass, until `batch_points` are
//     selected. Admission is at the door (PR-8 vocabulary): a submit that
//     would push the total queue past `max_queue_points` is rejected with
//     a deterministic retry-after hint instead of queued.
//   - The result cache is keyed on the per-point request digest
//     (point_key): a key seen before is served from cache without
//     computing; two selections of the same key in one round compute once
//     and the rest coalesce onto the in-flight result. Cold, cached, and
//     coalesced deliveries of one key carry byte-identical blobs.
//
// `audit_quiescent()` asserts the accounting exactly (sim::check style):
//   cache_lookups == cache_hits + cache_misses
//   cache_misses  == points_computed + points_coalesced
//   points_completed == points_computed + points_cached + points_coalesced
//   no live campaign, no queued point, no orphaned session bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "exec/pool.hpp"
#include "svc/messages.hpp"

namespace pio::svc {

using SessionId = std::uint64_t;

struct EvaldConfig {
  /// Worker threads for the per-round point fan-out; 0 resolves via
  /// exec::resolve_threads. Output bytes are identical at any setting.
  int threads = 0;
  /// Points selected per pump() round — fixed, *not* scaled by threads,
  /// so scheduling (and thus the output stream) is thread-count-invariant.
  std::uint32_t batch_points = 32;
  /// Per-session in-flight cap: at most this many of one session's points
  /// in a single round, so a thousand-point campaign cannot monopolize a
  /// round against interactive neighbours.
  std::uint32_t session_inflight_cap = 16;
  /// Admission bound on total queued points across all sessions; submits
  /// that would exceed it are rejected at the door with kOverloaded.
  std::uint32_t max_queue_points = 4096;
  /// Deterministic retry-after hint: floor + queued_points × cost_hint.
  std::uint64_t retry_after_floor_ns = 1'000'000;
  std::uint64_t per_point_cost_hint_ns = 2'000'000;
};

class Evald {
 public:
  explicit Evald(EvaldConfig config = {});

  /// Open a client session. Ids are never reused within one Evald.
  [[nodiscard]] SessionId open_session();
  /// Close a session: queued points are cancelled, live campaigns dropped
  /// (no CampaignDone — there is nobody left to read it), output discarded.
  void close_session(SessionId id);
  [[nodiscard]] std::uint32_t open_sessions() const;

  /// Append client bytes to a session and process every complete frame in
  /// them. Arbitrary split points are fine — a frame may arrive one byte
  /// at a time. Unknown `id` throws std::invalid_argument (API misuse, not
  /// a protocol fault).
  void feed(SessionId id, const std::uint8_t* data, std::size_t n);
  void feed(SessionId id, const std::vector<std::uint8_t>& bytes);
  /// Declare end-of-stream: leftover partial-frame bytes become a
  /// kTruncatedFrame error and the session is poisoned for further feeds.
  void finish(SessionId id);

  /// Run one scheduling round (select → compute → deliver). Returns true
  /// while any session still has queued points.
  bool pump();
  /// pump() to quiescence.
  void drain();

  /// Move the session's pending output bytes (a framed server→client
  /// stream) to the caller.
  [[nodiscard]] std::vector<std::uint8_t> take_output(SessionId id);

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t pending_points() const { return pending_points_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  /// Assert the accounting invariants; requires pending_points() == 0.
  /// Throws std::logic_error (sim::check) on any violation.
  void audit_quiescent() const;

 private:
  struct QueuedPoint {
    std::uint64_t campaign_id = 0;
    std::uint32_t index = 0;
    std::uint64_t key = 0;
  };

  struct SessionState {
    SessionId id = 0;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;
    std::deque<QueuedPoint> queue;
    bool poisoned = false;
  };

  struct CampaignState {
    SessionId owner = 0;
    CampaignSpec spec;
    eval::CampaignConfig config;
    std::uint32_t total = 0;
    std::uint32_t delivered = 0;
    std::uint32_t cancelled = 0;
  };

  struct CacheEntry {
    std::vector<std::uint8_t> blob;
    std::uint64_t digest = 0;
  };

  [[nodiscard]] SessionState& session(SessionId id);
  /// Frame `message` straight into the session's output buffer.
  template <class M>
  void emit(SessionState& sess, const M& message);
  void emit_error(SessionState& sess, ErrorCode code, const char* detail,
                  std::uint64_t retry_after_ns = 0);
  /// Handle every complete frame at the front of [data, data+n); returns
  /// the bytes they took. A header fault poisons the session.
  std::size_t parse_frames(SessionState& sess, const std::uint8_t* data, std::size_t n);
  void handle_frame(SessionState& sess, const Frame& frame);
  void handle_submit(SessionState& sess, const Frame& frame);
  void handle_cancel(SessionState& sess, const Frame& frame);
  /// Stream one PointResult to the campaign's owner and, when the campaign
  /// is fully resolved, the CampaignDone; erases the campaign then.
  void deliver(std::uint64_t campaign_id, std::uint32_t index, std::uint64_t key,
               const CacheEntry& entry, ResultSource source);
  void finish_campaign(std::uint64_t campaign_id, bool was_cancelled);

  EvaldConfig config_;
  exec::Pool pool_;
  // std::map (not unordered): iteration order is part of the scheduling
  // contract — round-robin passes walk sessions in ascending id order.
  std::map<SessionId, SessionState> sessions_;
  std::map<std::uint64_t, CampaignState> campaigns_;
  std::map<std::uint64_t, CacheEntry> cache_;
  ServiceStats stats_;
  SessionId next_session_ = 1;
  std::uint64_t next_campaign_ = 1;
  std::uint64_t pending_points_ = 0;
};

}  // namespace pio::svc
