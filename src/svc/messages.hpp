// PIOEval svc: the pioevald wire protocol — typed, framed, CRC-guarded.
//
// The paper's closing argument is that parallel I/O evaluation should be a
// shared *service*: campaigns run on demand against a common corpus, and
// results accumulate comparably across users (the IO500 model). This
// header defines the protocol the `pio::svc::Evald` campaign service
// speaks (DESIGN.md §15): length-prefixed binary frames, each carrying one
// typed message, following the Ceph `Message` encode/decode discipline —
// every message knows how to encode itself into a payload and how to
// *strictly* decode one, rejecting truncated, oversized, trailing-garbage
// and out-of-range inputs by typed `Error` response, never by crash.
//
// Frame layout (all little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic   0x50494F46 ("FOIP" on the wire)
//        4     2  version (kProtocolVersion)
//        6     2  message type (MsgType)
//        8     4  payload length in bytes (<= kMaxPayloadBytes)
//       12     4  CRC-32 (IEEE) of the payload bytes
//       16     n  payload
//
// A decoder can always resynchronise after a payload-level fault (bad CRC,
// unknown type, malformed payload) because the header told it the frame
// length; header-level faults (bad magic/version, oversized length) poison
// the stream — the session is answered with an `Error` and ignored from
// then on, since framing itself can no longer be trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "eval/campaign.hpp"

namespace pio::svc {

inline constexpr std::uint32_t kFrameMagic = 0x50494F46u;  // "FOIP" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr std::size_t kMaxWorkloadsPerCampaign = 1024;
/// Most ops one workload spec may expand to (32 MiB of ops); `validate`
/// refuses a spec whose `max_ops` is larger.
inline constexpr std::uint64_t kMaxOpsPerWorkload = 1u << 20;

enum class MsgType : std::uint16_t {
  kSubmitCampaign = 1,  ///< client → server: one CampaignSpec
  kSubmitAck = 2,       ///< server → client: accepted, campaign id assigned
  kPointResult = 3,     ///< server → client: one computed/cached point (streamed)
  kCampaignDone = 4,    ///< server → client: campaign fully resolved
  kCancelCampaign = 5,  ///< client → server: drop queued points
  kStats = 6,           ///< client → server: request service counters
  kStatsReply = 7,      ///< server → client: the counters
  kError = 8,           ///< server → client: typed rejection
};

enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kBadMagic = 1,        ///< header magic mismatch (stream poisoned)
  kBadVersion = 2,      ///< unknown protocol version (stream poisoned)
  kOversizedFrame = 3,  ///< declared payload length > kMaxPayloadBytes (poisoned)
  kBadCrc = 4,          ///< payload CRC mismatch (frame skipped)
  kTruncatedFrame = 5,  ///< stream ended inside a frame
  kUnknownType = 6,     ///< message type not in MsgType
  kUnexpectedType = 7,  ///< a server→client type sent to the server
  kMalformed = 8,       ///< payload failed strict decode
  kLimitExceeded = 9,   ///< spec valid but over a service limit
  kOverloaded = 10,     ///< submission queue full; retry after the hint
  kUnknownCampaign = 11, ///< cancel for an id this session does not own
};

/// Where a streamed point result came from (the cache-semantics oracle:
/// the `blob` bytes must be identical across all three sources).
enum class ResultSource : std::uint8_t { kComputed = 0, kCached = 1, kCoalesced = 2 };

[[nodiscard]] const char* to_string(MsgType type);
[[nodiscard]] const char* to_string(ErrorCode code);
[[nodiscard]] const char* to_string(ResultSource source);

// ---------------------------------------------------------------- specs

enum class WorkloadKind : std::uint8_t { kIor = 1, kDlio = 2, kWorkflow = 3 };

/// One sweep-point workload, wire-encodable. A flat parameter record
/// (fields irrelevant to `kind` ride along at defaults) so encode/decode
/// and the cache key never depend on which kind is active.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kIor;
  std::uint32_t ranks = 4;
  // IOR-like fields.
  std::uint64_t block_kib = 1024;
  std::uint64_t transfer_kib = 256;
  bool read_phase = false;
  // DLIO-like fields.
  std::uint64_t samples = 64;
  std::uint64_t sample_kib = 64;
  std::uint64_t samples_per_file = 32;
  std::uint64_t batch = 8;
  bool shuffle = true;
  std::uint64_t workload_seed = 42;
  // Workflow-DAG fields.
  std::uint32_t stages = 2;
  std::uint32_t tasks_per_stage = 4;
  std::uint32_t files_per_task = 1;
  bool operator==(const WorkloadSpec&) const = default;
};

/// A PFS instance, wire-encodable: the config axes the service exposes.
struct SystemSpec {
  std::uint32_t clients = 8;
  std::uint32_t io_nodes = 2;
  std::uint32_t osts = 4;
  std::uint8_t disk = 1;  ///< 0 = HDD, 1 = SSD
  bool operator==(const SystemSpec&) const = default;
};

/// One service campaign: a seed, a calibration, the testbed/model pair,
/// and a sweep of workloads. Each workload is one independent *point*
/// (measure → replay → simulate at iteration 0), so points are cacheable
/// across campaigns and sessions.
struct CampaignSpec {
  std::uint64_t seed = 1;
  double calibration = 1.0;
  SystemSpec testbed{};
  SystemSpec model{};
  std::vector<WorkloadSpec> workloads;
  bool operator==(const CampaignSpec&) const = default;
};

/// nullptr when the spec is semantically valid, else a stable reason
/// string (bounds on ranks, counts, sizes — the strict-decode backstop
/// against resource-exhaustion requests).
[[nodiscard]] const char* validate(const CampaignSpec& spec);

/// Build the eval-layer view of a spec system pair. `threads` stays 0: the
/// service owns the pool; evaluate_point never fans out.
[[nodiscard]] eval::CampaignConfig to_campaign_config(const CampaignSpec& spec);

/// The number of ops `make_workload(spec)` builds, from the generator's own
/// closed-form count: nothing is built. Defined for a spec whose fields are
/// in range (`validate` checks them before it calls this).
[[nodiscard]] std::uint64_t max_ops(const WorkloadSpec& spec);

/// Instantiate workload `index` of the spec (fresh object per call: pool
/// tasks never share generator state).
[[nodiscard]] std::unique_ptr<workload::Workload> make_workload(const WorkloadSpec& spec);

/// The per-point request digest the result cache is keyed on: an FNV-1a
/// fold of the canonical encoding of every input that determines point
/// `index` — seed, calibration, both systems, the workload record, and the
/// index itself (it feeds derive_seed). Equal keys ⇒ byte-identical
/// results, across sessions and users.
[[nodiscard]] std::uint64_t point_key(const CampaignSpec& spec, std::uint32_t index);

/// point_key for every point of one campaign: the shared fields are encoded
/// and folded once, at construction; each call continues that fold with one
/// workload record and its index. Keys equal point_key's bit for bit.
class PointKeys {
 public:
  /// `spec` must outlive this object.
  explicit PointKeys(const CampaignSpec& spec);
  [[nodiscard]] std::uint64_t operator()(std::uint32_t index);

 private:
  const CampaignSpec& spec_;
  Fnv64 shared_;
  std::vector<std::uint8_t> scratch_;  ///< one point's encoding, reused
};

// ---------------------------------------------------------------- messages

struct SubmitCampaign {
  CampaignSpec spec;
};

struct SubmitAck {
  std::uint64_t campaign_id = 0;
  std::uint32_t points = 0;
};

struct PointResult {
  std::uint64_t campaign_id = 0;
  std::uint32_t index = 0;
  std::uint64_t key = 0;     ///< cache key (point_key of the request)
  std::uint64_t digest = 0;  ///< eval::point_digest of the decoded point
  ResultSource source = ResultSource::kComputed;
  std::vector<std::uint8_t> blob;  ///< canonical encoded CampaignPoint
};

/// A PointResult whose blob is borrowed (from the result cache): it frames
/// to exactly the bytes of the PointResult carrying a copy of that blob.
struct PointResultView {
  std::uint64_t campaign_id = 0;
  std::uint32_t index = 0;
  std::uint64_t key = 0;
  std::uint64_t digest = 0;
  ResultSource source = ResultSource::kComputed;
  std::span<const std::uint8_t> blob;
};

struct CampaignDone {
  std::uint64_t campaign_id = 0;
  std::uint32_t completed = 0;
  std::uint32_t cancelled = 0;
  bool was_cancelled = false;
};

struct CancelCampaign {
  std::uint64_t campaign_id = 0;
};

struct Stats {};

/// Service counters, wire-encodable (also the Evald's live counter block).
/// The quiescence audit holds these to exact accounting:
///   cache_lookups == cache_hits + cache_misses
///   cache_misses  == points_computed + points_coalesced
///   points_completed == points_computed + points_cached + points_coalesced
struct ServiceStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t campaigns_submitted = 0;
  std::uint64_t campaigns_accepted = 0;
  std::uint64_t campaigns_rejected = 0;
  std::uint64_t campaigns_completed = 0;
  std::uint64_t campaigns_cancelled = 0;
  std::uint64_t points_completed = 0;  ///< PointResult frames delivered
  std::uint64_t points_computed = 0;   ///< cold: ran the simulation
  std::uint64_t points_cached = 0;     ///< served from the result cache
  std::uint64_t points_coalesced = 0;  ///< joined an in-flight computation
  std::uint64_t points_cancelled = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  bool operator==(const ServiceStats&) const = default;
};

struct StatsReply {
  ServiceStats stats;
};

struct Error {
  ErrorCode code = ErrorCode::kNone;
  std::uint64_t retry_after_ns = 0;  ///< only meaningful for kOverloaded
  std::string detail;
};

// ---------------------------------------------------------------- framing

/// One parsed frame: the type plus its raw payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Outcome of scanning a byte stream for the next frame.
enum class FrameStatus : std::uint8_t {
  kFrame,       ///< *out filled, *consumed advanced past the frame
  kNeedMore,    ///< incomplete header or payload; feed more bytes
  kBadMagic,    ///< stream poisoned
  kBadVersion,  ///< stream poisoned
  kOversized,   ///< stream poisoned (length field untrustworthy)
  kBadCrc,      ///< frame skipped; *consumed advanced past it
};

/// Scan for one frame at the front of [data, data+n). Never throws, never
/// reads out of bounds. On kFrame and kBadCrc, `*consumed` is the number
/// of bytes to drop from the stream; on every other status it is 0.
[[nodiscard]] FrameStatus next_frame(const std::uint8_t* data, std::size_t n,
                                     std::size_t* consumed, Frame* out);

/// Append one full frame (header + CRC + payload) for `type` to `out`.
void append_frame(MsgType type, const std::vector<std::uint8_t>& payload,
                  std::vector<std::uint8_t>& out);

/// Append one full frame carrying server message `m` to `out`: the bytes
/// of append_frame(<m's type>, encode(m), out), with the payload encoded in
/// place and its length and CRC filled in after it, so each payload byte
/// is written once. On a throw (a string or payload over its limit) `out`
/// is left as it was.
void append_message(const SubmitAck& m, std::vector<std::uint8_t>& out);
void append_message(const PointResultView& m, std::vector<std::uint8_t>& out);
void append_message(const CampaignDone& m, std::vector<std::uint8_t>& out);
void append_message(const StatsReply& m, std::vector<std::uint8_t>& out);
void append_message(const Error& m, std::vector<std::uint8_t>& out);

/// Split a *trusted* stream (e.g. a session outbox written by the server)
/// into frames. Throws std::runtime_error on any corruption — untrusted
/// input goes through next_frame instead.
[[nodiscard]] std::vector<Frame> split_frames(const std::vector<std::uint8_t>& bytes);

// Payload encoders. Each returns only the payload; wrap with append_frame.
[[nodiscard]] std::vector<std::uint8_t> encode(const SubmitCampaign& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const SubmitAck& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PointResult& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CampaignDone& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CancelCampaign& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Stats& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const StatsReply& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Error& m);

// Strict payload decoders: false on truncation, trailing bytes, or any
// out-of-range field. Decoding never throws.
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, SubmitCampaign* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, SubmitAck* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, PointResult* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, CampaignDone* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, CancelCampaign* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, Stats* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, StatsReply* out);
[[nodiscard]] bool decode(const std::vector<std::uint8_t>& payload, Error* out);

/// Canonical encoding of a computed CampaignPoint — the bytes the result
/// cache stores and PointResult carries: the workload name, the three
/// times, then the RunCounters in their frozen field order (the
/// byte-identity contract; new counters append).
[[nodiscard]] std::vector<std::uint8_t> encode_point(const eval::CampaignPoint& point);
[[nodiscard]] bool decode_point(const std::vector<std::uint8_t>& blob, eval::CampaignPoint* out);

}  // namespace pio::svc
