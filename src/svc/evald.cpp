#include "svc/evald.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/check.hpp"

namespace pio::svc {

Evald::Evald(EvaldConfig config) : config_(config), pool_(config.threads) {
  if (config_.batch_points == 0) throw std::invalid_argument("Evald: batch_points must be > 0");
  if (config_.session_inflight_cap == 0)
    throw std::invalid_argument("Evald: session_inflight_cap must be > 0");
}

SessionId Evald::open_session() {
  const SessionId id = next_session_++;
  SessionState sess;
  sess.id = id;
  sessions_.emplace(id, std::move(sess));
  ++stats_.sessions_opened;
  return id;
}

void Evald::close_session(SessionId id) {
  SessionState& sess = session(id);
  // Queued points die with the session; live campaigns are dropped without
  // a CampaignDone (nobody is left to read one).
  stats_.points_cancelled += sess.queue.size();
  pending_points_ -= sess.queue.size();
  std::vector<std::uint64_t> owned;
  for (const auto& [cid, campaign] : campaigns_)
    if (campaign.owner == id) owned.push_back(cid);
  for (const std::uint64_t cid : owned) {
    campaigns_.erase(cid);
    ++stats_.campaigns_cancelled;
  }
  sessions_.erase(id);
  ++stats_.sessions_closed;
}

std::uint32_t Evald::open_sessions() const {
  return static_cast<std::uint32_t>(sessions_.size());
}

Evald::SessionState& Evald::session(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::invalid_argument("Evald: unknown session " + std::to_string(id));
  return it->second;
}

template <class M>
void Evald::emit(SessionState& sess, const M& message) {
  append_message(message, sess.outbuf);
  ++stats_.frames_out;
}

void Evald::emit_error(SessionState& sess, ErrorCode code, const char* detail,
                       std::uint64_t retry_after_ns) {
  Error err;
  err.code = code;
  err.retry_after_ns = retry_after_ns;
  err.detail = detail;
  emit(sess, err);
}

void Evald::feed(SessionId id, const std::uint8_t* data, std::size_t n) {
  SessionState& sess = session(id);
  if (sess.poisoned) return;  // framing desynchronised; stream is write-off
  std::vector<std::uint8_t>& held = sess.inbuf;
  if (held.empty()) {
    // Every complete frame is parsed straight from the caller's bytes; only
    // a trailing partial frame is kept.
    const std::size_t used = parse_frames(sess, data, n);
    if (!sess.poisoned) held.assign(data + used, data + n);
    return;
  }
  held.insert(held.end(), data, data + n);
  const std::size_t used = parse_frames(sess, held.data(), held.size());
  if (!sess.poisoned) held.erase(held.begin(), held.begin() + static_cast<std::ptrdiff_t>(used));
}

std::size_t Evald::parse_frames(SessionState& sess, const std::uint8_t* data, std::size_t n) {
  std::size_t pos = 0;
  Frame frame;
  while (pos < n) {
    std::size_t consumed = 0;
    const FrameStatus status = next_frame(data + pos, n - pos, &consumed, &frame);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kFrame) {
      pos += consumed;
      ++stats_.frames_in;
      handle_frame(sess, frame);
      continue;
    }
    ++stats_.protocol_errors;
    if (status == FrameStatus::kBadCrc) {
      // The header was sane, so the frame boundary is trustworthy: answer
      // and resynchronise past the damaged payload.
      pos += consumed;
      emit_error(sess, ErrorCode::kBadCrc, "payload CRC mismatch");
      continue;
    }
    // Header-level fault: the length field itself cannot be trusted, so
    // there is no resynchronisation point. Answer once and poison.
    const ErrorCode code = status == FrameStatus::kBadMagic      ? ErrorCode::kBadMagic
                           : status == FrameStatus::kBadVersion ? ErrorCode::kBadVersion
                                                                : ErrorCode::kOversizedFrame;
    emit_error(sess, code, "unrecoverable framing fault; session poisoned");
    sess.poisoned = true;
    sess.inbuf.clear();
    return pos;
  }
  return pos;
}

void Evald::feed(SessionId id, const std::vector<std::uint8_t>& bytes) {
  feed(id, bytes.data(), bytes.size());
}

void Evald::finish(SessionId id) {
  SessionState& sess = session(id);
  if (sess.poisoned) return;
  if (!sess.inbuf.empty()) {
    ++stats_.protocol_errors;
    emit_error(sess, ErrorCode::kTruncatedFrame,
               "stream ended inside a frame; trailing bytes dropped");
    sess.inbuf.clear();
    sess.poisoned = true;
  }
}

void Evald::handle_frame(SessionState& sess, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kSubmitCampaign:
      handle_submit(sess, frame);
      return;
    case MsgType::kCancelCampaign:
      handle_cancel(sess, frame);
      return;
    case MsgType::kStats: {
      Stats request;
      if (!decode(frame.payload, &request)) {
        ++stats_.protocol_errors;
        emit_error(sess, ErrorCode::kMalformed, "Stats carries no payload");
        return;
      }
      StatsReply reply;
      reply.stats = stats_;  // snapshot before the reply frame is counted
      emit(sess, reply);
      return;
    }
    case MsgType::kSubmitAck:
    case MsgType::kPointResult:
    case MsgType::kCampaignDone:
    case MsgType::kStatsReply:
    case MsgType::kError:
      ++stats_.protocol_errors;
      emit_error(sess, ErrorCode::kUnexpectedType, to_string(frame.type));
      return;
  }
  ++stats_.protocol_errors;
  emit_error(sess, ErrorCode::kUnknownType,
             ("type " + std::to_string(static_cast<std::uint16_t>(frame.type))).c_str());
}

void Evald::handle_submit(SessionState& sess, const Frame& frame) {
  ++stats_.campaigns_submitted;
  SubmitCampaign submit;
  if (!decode(frame.payload, &submit)) {
    ++stats_.campaigns_rejected;
    ++stats_.protocol_errors;
    emit_error(sess, ErrorCode::kMalformed, "SubmitCampaign failed strict decode");
    return;
  }
  if (const char* reason = validate(submit.spec)) {
    ++stats_.campaigns_rejected;
    emit_error(sess, ErrorCode::kLimitExceeded, reason);
    return;
  }
  const auto points = static_cast<std::uint32_t>(submit.spec.workloads.size());
  if (pending_points_ + points > config_.max_queue_points) {
    // Reject at the door (DESIGN.md §14 vocabulary): deterministic hint
    // proportional to the backlog the client would be queueing behind.
    ++stats_.campaigns_rejected;
    const std::uint64_t retry_after =
        config_.retry_after_floor_ns + pending_points_ * config_.per_point_cost_hint_ns;
    emit_error(sess, ErrorCode::kOverloaded, "submission queue full", retry_after);
    return;
  }
  const std::uint64_t campaign_id = next_campaign_++;
  CampaignState campaign;
  campaign.owner = sess.id;
  campaign.config = to_campaign_config(submit.spec);
  campaign.total = points;
  campaign.spec = std::move(submit.spec);
  PointKeys key_of(campaign.spec);
  for (std::uint32_t i = 0; i < points; ++i) sess.queue.push_back({campaign_id, i, key_of(i)});
  campaigns_.emplace(campaign_id, std::move(campaign));
  pending_points_ += points;
  ++stats_.campaigns_accepted;
  SubmitAck ack;
  ack.campaign_id = campaign_id;
  ack.points = points;
  emit(sess, ack);
}

void Evald::handle_cancel(SessionState& sess, const Frame& frame) {
  CancelCampaign cancel;
  if (!decode(frame.payload, &cancel)) {
    ++stats_.protocol_errors;
    emit_error(sess, ErrorCode::kMalformed, "CancelCampaign failed strict decode");
    return;
  }
  const auto it = campaigns_.find(cancel.campaign_id);
  if (it == campaigns_.end() || it->second.owner != sess.id) {
    emit_error(sess, ErrorCode::kUnknownCampaign,
               "no such campaign on this session (finished campaigns cannot be cancelled)");
    return;
  }
  CampaignState& campaign = it->second;
  // Drop the campaign's still-queued points; already-delivered results (and
  // their cache entries) stand — cancellation never invalidates the cache.
  std::deque<QueuedPoint> keep;
  for (QueuedPoint& qp : sess.queue) {
    if (qp.campaign_id == cancel.campaign_id) {
      ++campaign.cancelled;
      ++stats_.points_cancelled;
      --pending_points_;
    } else {
      keep.push_back(qp);
    }
  }
  sess.queue = std::move(keep);
  finish_campaign(cancel.campaign_id, /*was_cancelled=*/true);
}

bool Evald::pump() {
  if (pending_points_ == 0) return false;
  // Select up to batch_points, one point per session per pass in ascending
  // session-id order (round-robin interleaving), honouring the per-session
  // in-flight cap. Selection never depends on the thread count. A session
  // with points left has taken one in every earlier pass (queues only
  // shrink, and a pass that fills the batch is the last), so after
  // session_inflight_cap passes every session is at its cap.
  std::vector<QueuedPoint> selected;
  selected.reserve(std::min<std::uint64_t>(config_.batch_points, pending_points_));
  bool progress = true;
  for (std::uint32_t pass = 0;
       progress && pass < config_.session_inflight_cap && selected.size() < config_.batch_points;
       ++pass) {
    progress = false;
    for (auto& entry : sessions_) {
      if (selected.size() >= config_.batch_points) break;
      SessionState& sess = entry.second;
      if (sess.queue.empty()) continue;
      selected.push_back(sess.queue.front());
      sess.queue.pop_front();
      --pending_points_;
      progress = true;
    }
  }

  // Resolve each selection against the cache: hits deliver immediately,
  // the first miss of a key becomes a compute slot, further misses of the
  // same key coalesce onto it.
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t campaign_id = 0;
    std::uint32_t index = 0;
    std::vector<QueuedPoint> waiters;
  };
  std::vector<Slot> slots;
  for (const QueuedPoint& qp : selected) {
    ++stats_.cache_lookups;
    const auto hit = cache_.find(qp.key);
    if (hit != cache_.end()) {
      ++stats_.cache_hits;
      deliver(qp.campaign_id, qp.index, qp.key, hit->second, ResultSource::kCached);
      continue;
    }
    ++stats_.cache_misses;
    // A round holds at most batch_points slots: a linear scan finds the key.
    const auto slot = std::find_if(slots.begin(), slots.end(),
                                   [&qp](const Slot& s) { return s.key == qp.key; });
    if (slot != slots.end()) {
      slot->waiters.push_back(qp);
      continue;
    }
    slots.push_back({qp.key, qp.campaign_id, qp.index, {}});
  }

  // Compute the cold points on the pool. Each task builds its own workload
  // and engines from the owning campaign's spec; map_ordered merges in
  // submission order, so delivery below is thread-count-invariant.
  std::vector<CacheEntry> computed =
      pool_.map_ordered(slots.size(), [this, &slots](std::size_t i) {
        const Slot& slot = slots[i];
        const CampaignState& campaign = campaigns_.at(slot.campaign_id);
        const auto workload = make_workload(campaign.spec.workloads.at(slot.index));
        eval::CampaignPoint point =
            eval::evaluate_point(campaign.config, *workload, /*iteration=*/0, slot.index);
        eval::calibrate(point, campaign.spec.calibration);
        CacheEntry entry;
        entry.blob = encode_point(point);
        entry.digest = eval::point_digest(campaign.config, point);
        return entry;
      });

  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    const auto [it, inserted] = cache_.emplace(slot.key, std::move(computed[i]));
    sim::check::that(inserted, "svc.cache-recompute",
                     [&slot] { return "key " + std::to_string(slot.key) + " computed twice"; });
    ++stats_.cache_entries;
    deliver(slot.campaign_id, slot.index, slot.key, it->second, ResultSource::kComputed);
    for (const QueuedPoint& waiter : slot.waiters)
      deliver(waiter.campaign_id, waiter.index, waiter.key, it->second, ResultSource::kCoalesced);
  }
  return pending_points_ > 0;
}

void Evald::drain() {
  while (pump()) {
  }
}

void Evald::deliver(std::uint64_t campaign_id, std::uint32_t index, std::uint64_t key,
                    const CacheEntry& entry, ResultSource source) {
  const auto it = campaigns_.find(campaign_id);
  sim::check::that(it != campaigns_.end(), "svc.deliver-to-dead-campaign",
                   [campaign_id] { return std::to_string(campaign_id); });
  CampaignState& campaign = it->second;
  SessionState& sess = session(campaign.owner);
  emit(sess, PointResultView{campaign_id, index, key, entry.digest, source, entry.blob});
  ++stats_.points_completed;
  switch (source) {
    case ResultSource::kComputed:
      ++stats_.points_computed;
      break;
    case ResultSource::kCached:
      ++stats_.points_cached;
      break;
    case ResultSource::kCoalesced:
      ++stats_.points_coalesced;
      break;
  }
  ++campaign.delivered;
  if (campaign.delivered + campaign.cancelled == campaign.total)
    finish_campaign(campaign_id, /*was_cancelled=*/false);
}

void Evald::finish_campaign(std::uint64_t campaign_id, bool was_cancelled) {
  const auto it = campaigns_.find(campaign_id);
  sim::check::that(it != campaigns_.end(), "svc.finish-unknown-campaign",
                   [campaign_id] { return std::to_string(campaign_id); });
  CampaignState& campaign = it->second;
  SessionState& sess = session(campaign.owner);
  CampaignDone done;
  done.campaign_id = campaign_id;
  done.completed = campaign.delivered;
  done.cancelled = campaign.cancelled;
  done.was_cancelled = was_cancelled;
  emit(sess, done);
  if (was_cancelled) {
    ++stats_.campaigns_cancelled;
  } else {
    ++stats_.campaigns_completed;
  }
  campaigns_.erase(it);
}

std::vector<std::uint8_t> Evald::take_output(SessionId id) {
  // Copy out rather than hand the buffer over: the session keeps its
  // capacity, so the next round's frames land without regrowing it.
  std::vector<std::uint8_t>& buffered = session(id).outbuf;
  std::vector<std::uint8_t> out(buffered.begin(), buffered.end());
  buffered.clear();
  return out;
}

void Evald::audit_quiescent() const {
  namespace check = sim::check;
  const ServiceStats& s = stats_;
  check::that(pending_points_ == 0, "svc.audit-pending-points",
              [this] { return std::to_string(pending_points_); });
  for (const auto& [sid, sess] : sessions_)
    check::that(sess.queue.empty(), "svc.audit-session-queue", [&sid, &sess] {
      return "session " + std::to_string(sid) + " holds " + std::to_string(sess.queue.size());
    });
  check::that(campaigns_.empty(), "svc.audit-orphaned-campaigns",
              [this] { return std::to_string(campaigns_.size()) + " campaigns never resolved"; });
  check::that(s.sessions_opened - s.sessions_closed == sessions_.size(),
              "svc.audit-orphaned-sessions", [this, &s] {
                return std::to_string(s.sessions_opened) + " opened, " +
                       std::to_string(s.sessions_closed) + " closed, " +
                       std::to_string(sessions_.size()) + " live";
              });
  check::that(s.cache_lookups == s.cache_hits + s.cache_misses, "svc.audit-cache-lookups", [&s] {
    return std::to_string(s.cache_lookups) + " != " + std::to_string(s.cache_hits) + " + " +
           std::to_string(s.cache_misses);
  });
  check::that(s.cache_misses == s.points_computed + s.points_coalesced, "svc.audit-cache-misses",
              [&s] {
                return std::to_string(s.cache_misses) + " != " +
                       std::to_string(s.points_computed) + " + " +
                       std::to_string(s.points_coalesced);
              });
  check::that(
      s.points_completed == s.points_computed + s.points_cached + s.points_coalesced,
      "svc.audit-completions", [&s] {
        return std::to_string(s.points_completed) + " != " + std::to_string(s.points_computed) +
               " + " + std::to_string(s.points_cached) + " + " +
               std::to_string(s.points_coalesced);
      });
  check::that(s.campaigns_submitted == s.campaigns_accepted + s.campaigns_rejected,
              "svc.audit-submissions", [&s] {
                return std::to_string(s.campaigns_submitted) + " != " +
                       std::to_string(s.campaigns_accepted) + " + " +
                       std::to_string(s.campaigns_rejected);
              });
  check::that(s.campaigns_accepted == s.campaigns_completed + s.campaigns_cancelled,
              "svc.audit-campaign-resolution", [&s] {
                return std::to_string(s.campaigns_accepted) + " != " +
                       std::to_string(s.campaigns_completed) + " + " +
                       std::to_string(s.campaigns_cancelled);
              });
  check::that(s.cache_entries == cache_.size() && s.cache_entries == s.points_computed,
              "svc.audit-cache-entries", [this, &s] {
                return std::to_string(s.cache_entries) + " counted, " +
                       std::to_string(cache_.size()) + " held, " +
                       std::to_string(s.points_computed) + " computed";
              });
}

}  // namespace pio::svc
