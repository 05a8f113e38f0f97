#include "svc/messages.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/codec.hpp"
#include "common/fnv.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/workflow.hpp"

namespace pio::svc {

namespace {

// Semantic bounds on spec fields. The wire format can carry any u32/u64;
// these keep a single malformed-but-well-framed submit from asking the
// service for terabyte transfers or million-rank sweeps.
constexpr std::uint32_t kMaxRanks = 4096;
constexpr std::uint32_t kMaxNodes = 4096;
constexpr std::uint64_t kMaxKib = 1u << 20;  // 1 GiB per block/transfer/sample
constexpr std::uint64_t kMaxSamples = 1u << 20;
constexpr std::uint32_t kMaxStages = 64;
constexpr std::uint32_t kMaxTasks = 4096;

// ------------------------------------------------------------ field lists
//
// Each wire record lists its fields once, in a `fields(io, record)`
// overload that both directions walk: Encode appends every field to a
// codec::Writer, Decode reads each back from a codec::Reader and fails on a
// short read, an enum byte past its last value or a count over its limit.
// List order is wire order, frozen by the ServiceWire pins in
// tests/test_service.cpp.

using Payload = std::vector<std::uint8_t>;

/// `T` as a field list sees it: const while encoding.
template <class Io, class T>
using Field = std::conditional_t<Io::kEncodes, const T, T>;

class Encode {
 public:
  static constexpr bool kEncodes = true;

  /// Append to `out` in place.
  explicit Encode(Payload& out) : w_(out) {}

  void operator()(std::uint8_t v) { w_.u8(v); }
  void operator()(std::uint16_t v) { w_.u16(v); }
  void operator()(std::uint32_t v) { w_.u32(v); }
  void operator()(std::uint64_t v) { w_.u64(v); }
  void operator()(bool v) { w_.boolean(v); }
  void operator()(double v) { w_.f64(v); }
  void operator()(SimTime v) { w_.i64(v.ns()); }
  void operator()(Bytes v) { w_.u64(v.count()); }
  void operator()(const std::string& v) { w_.str(v); }
  void operator()(const Payload& v) { w_.blob(v); }
  void operator()(std::span<const std::uint8_t> v) { w_.blob(v); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v, E /*last*/ = E{}) {
    (*this)(static_cast<std::underlying_type_t<E>>(v));
  }
  /// u32 count, then the elements.
  template <class T>
  void operator()(const std::vector<T>& v, std::size_t /*max*/) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) (*this)(e);
  }
  template <class R>
    requires std::is_class_v<R>
  void operator()(const R& record) {
    fields(*this, record);
  }

  [[nodiscard]] codec::Writer& writer() { return w_; }

 private:
  codec::Writer w_;
};

class Decode {
 public:
  static constexpr bool kEncodes = false;

  explicit Decode(const Payload& bytes) : r_(bytes.data(), bytes.size()) {}

  void operator()(std::uint8_t& v) { v = r_.u8(); }
  void operator()(std::uint16_t& v) { v = r_.u16(); }
  void operator()(std::uint32_t& v) { v = r_.u32(); }
  void operator()(std::uint64_t& v) { v = r_.u64(); }
  void operator()(bool& v) { v = r_.boolean(); }
  void operator()(double& v) { v = r_.f64(); }
  void operator()(SimTime& v) { v = SimTime::from_ns(r_.i64()); }
  void operator()(Bytes& v) { v = Bytes{r_.u64()}; }
  void operator()(std::string& v) { v = r_.str(); }
  void operator()(Payload& v) { v = r_.blob(); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    std::underlying_type_t<E> raw{};
    (*this)(raw);
    v = static_cast<E>(raw);
  }
  /// An enum value past `last` fails the decode.
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v, E last) {
    (*this)(v);
    if (v > last) r_.fail();
  }
  /// A count over `max` fails the decode before anything is reserved.
  template <class T>
  void operator()(std::vector<T>& v, std::size_t max) {
    const std::uint32_t n = r_.u32();
    if (n > max) r_.fail();
    if (!r_.ok()) return;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && r_.ok(); ++i) (*this)(v.emplace_back());
  }
  template <class R>
    requires std::is_class_v<R>
  void operator()(R& record) {
    fields(*this, record);
  }

  /// Every byte consumed and every field in range.
  [[nodiscard]] bool done() const { return r_.done(); }

 private:
  codec::Reader r_;
};

template <class Io>
void fields(Io& io, Field<Io, SystemSpec>& s) {
  io(s.clients);
  io(s.io_nodes);
  io(s.osts);
  io(s.disk);
}

template <class Io>
void fields(Io& io, Field<Io, WorkloadSpec>& s) {
  io(s.kind);
  io(s.ranks);
  io(s.block_kib);
  io(s.transfer_kib);
  io(s.read_phase);
  io(s.samples);
  io(s.sample_kib);
  io(s.samples_per_file);
  io(s.batch);
  io(s.shuffle);
  io(s.workload_seed);
  io(s.stages);
  io(s.tasks_per_stage);
  io(s.files_per_task);
}

/// The fields every point of a campaign shares; point_key folds them too.
template <class Io>
void shared_fields(Io& io, Field<Io, CampaignSpec>& s) {
  io(s.seed);
  io(s.calibration);
  io(s.testbed);
  io(s.model);
}

template <class Io>
void fields(Io& io, Field<Io, CampaignSpec>& s) {
  shared_fields(io, s);
  io(s.workloads, kMaxWorkloadsPerCampaign);
}

template <class Io>
void fields(Io& io, Field<Io, SubmitCampaign>& m) {
  io(m.spec);
}

template <class Io>
void fields(Io& io, Field<Io, SubmitAck>& m) {
  io(m.campaign_id);
  io(m.points);
}

/// PointResult and its borrowed-blob view share one field list.
template <class Io, class M>
void point_result_fields(Io& io, M& m) {
  io(m.campaign_id);
  io(m.index);
  io(m.key);
  io(m.digest);
  io(m.source, ResultSource::kCoalesced);
  io(m.blob);
}

template <class Io>
void fields(Io& io, Field<Io, PointResult>& m) {
  point_result_fields(io, m);
}

void fields(Encode& io, const PointResultView& m) { point_result_fields(io, m); }

template <class Io>
void fields(Io& io, Field<Io, CampaignDone>& m) {
  io(m.campaign_id);
  io(m.completed);
  io(m.cancelled);
  io(m.was_cancelled);
}

template <class Io>
void fields(Io& io, Field<Io, CancelCampaign>& m) {
  io(m.campaign_id);
}

template <class Io>
void fields(Io& /*io*/, Field<Io, Stats>& /*m*/) {}

template <class Io>
void fields(Io& io, Field<Io, ServiceStats>& s) {
  io(s.sessions_opened);
  io(s.sessions_closed);
  io(s.frames_in);
  io(s.frames_out);
  io(s.protocol_errors);
  io(s.campaigns_submitted);
  io(s.campaigns_accepted);
  io(s.campaigns_rejected);
  io(s.campaigns_completed);
  io(s.campaigns_cancelled);
  io(s.points_completed);
  io(s.points_computed);
  io(s.points_cached);
  io(s.points_coalesced);
  io(s.points_cancelled);
  io(s.cache_lookups);
  io(s.cache_hits);
  io(s.cache_misses);
  io(s.cache_entries);
}

template <class Io>
void fields(Io& io, Field<Io, StatsReply>& m) {
  io(m.stats);
}

template <class Io>
void fields(Io& io, Field<Io, Error>& m) {
  io(m.code, ErrorCode::kUnknownCampaign);
  io(m.retry_after_ns);
  io(m.detail);
}

/// The canonical point blob: the workload name, the three times, then the
/// RunCounters in their frozen visitor order (eval::point_digest's order).
template <class Io>
void fields(Io& io, Field<Io, eval::CampaignPoint>& p) {
  io(p.workload);
  io(p.measured);
  io(p.simulated_raw);
  io(p.predicted);
  driver::for_each_counter(p, [&io](std::string_view, auto& v) { io(v); });
}

template <class M>
[[nodiscard]] Payload encode_record(const M& m) {
  Payload out;
  Encode e(out);
  e(m);
  return out;
}

/// The frame header for a `len`-byte payload with checksum `crc`.
void put_header(codec::Writer& w, MsgType type, std::uint32_t len, std::uint32_t crc) {
  w.u32(kFrameMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(len);
  w.u32(crc);
}

/// append_frame(type, encode(m), out) without the payload buffer: the
/// header goes in with a zero length and CRC, the payload is encoded right
/// behind it, and both fields are patched once it is there.
template <class M>
void append_record(MsgType type, const M& m, Payload& out) {
  const std::size_t start = out.size();
  try {
    Encode e(out);
    put_header(e.writer(), type, 0, 0);
    e(m);
    const std::size_t len = out.size() - start - kHeaderBytes;
    if (len > kMaxPayloadBytes) throw std::length_error("svc frame payload too large");
    const std::uint8_t* payload = out.data() + start + kHeaderBytes;
    e.writer().patch_u32(start + 8, static_cast<std::uint32_t>(len));
    e.writer().patch_u32(start + 12, codec::crc32(payload, len));
  } catch (...) {
    out.resize(start);
    throw;
  }
}

/// Strict: `*out` is written only when every byte decoded cleanly.
template <class M>
[[nodiscard]] bool decode_record(const Payload& bytes, M* out) {
  Decode d(bytes);
  M m;
  d(m);
  if (!d.done()) return false;
  *out = std::move(m);
  return true;
}

[[nodiscard]] const char* validate_system(const SystemSpec& s) {
  if (s.clients == 0 || s.clients > kMaxNodes) return "clients out of range";
  if (s.io_nodes == 0 || s.io_nodes > kMaxNodes) return "io_nodes out of range";
  if (s.osts == 0 || s.osts > kMaxNodes) return "osts out of range";
  if (s.disk > 1) return "disk kind out of range";
  return nullptr;
}

[[nodiscard]] const char* validate_workload(const WorkloadSpec& s) {
  switch (s.kind) {
    case WorkloadKind::kIor:
    case WorkloadKind::kDlio:
    case WorkloadKind::kWorkflow:
      break;
    default:
      return "unknown workload kind";
  }
  if (s.ranks == 0 || s.ranks > kMaxRanks) return "ranks out of range";
  if (s.block_kib == 0 || s.block_kib > kMaxKib) return "block_kib out of range";
  if (s.transfer_kib == 0 || s.transfer_kib > kMaxKib) return "transfer_kib out of range";
  if (s.transfer_kib > s.block_kib) return "transfer larger than block";
  // make_workload must never throw (a factory exception inside a pool task
  // would crash the service): mirror ior_like's divisibility precondition.
  if (s.block_kib % s.transfer_kib != 0) return "block not a multiple of transfer";
  if (s.samples == 0 || s.samples > kMaxSamples) return "samples out of range";
  if (s.sample_kib == 0 || s.sample_kib > kMaxKib) return "sample_kib out of range";
  if (s.samples_per_file == 0 || s.samples_per_file > kMaxSamples)
    return "samples_per_file out of range";
  if (s.batch == 0 || s.batch > s.samples) return "batch out of range";
  if (s.stages == 0 || s.stages > kMaxStages) return "stages out of range";
  if (s.tasks_per_stage == 0 || s.tasks_per_stage > kMaxTasks) return "tasks_per_stage out of range";
  if (s.files_per_task == 0 || s.files_per_task > kMaxTasks) return "files_per_task out of range";
  // The fields multiply: in range one by one, a spec can still ask a pool
  // task for billions of ops.
  if (max_ops(s) > kMaxOpsPerWorkload) return "workload expands past the op limit";
  return nullptr;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kSubmitCampaign: return "SubmitCampaign";
    case MsgType::kSubmitAck: return "SubmitAck";
    case MsgType::kPointResult: return "PointResult";
    case MsgType::kCampaignDone: return "CampaignDone";
    case MsgType::kCancelCampaign: return "CancelCampaign";
    case MsgType::kStats: return "Stats";
    case MsgType::kStatsReply: return "StatsReply";
    case MsgType::kError: return "Error";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kBadCrc: return "bad-crc";
    case ErrorCode::kTruncatedFrame: return "truncated-frame";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kUnexpectedType: return "unexpected-type";
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kLimitExceeded: return "limit-exceeded";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kUnknownCampaign: return "unknown-campaign";
  }
  return "?";
}

const char* to_string(ResultSource source) {
  switch (source) {
    case ResultSource::kComputed: return "computed";
    case ResultSource::kCached: return "cached";
    case ResultSource::kCoalesced: return "coalesced";
  }
  return "?";
}

const char* validate(const CampaignSpec& spec) {
  if (!std::isfinite(spec.calibration) || spec.calibration <= 0.0 || spec.calibration > 1000.0)
    return "calibration out of range";
  if (const char* reason = validate_system(spec.testbed)) return reason;
  if (const char* reason = validate_system(spec.model)) return reason;
  if (spec.workloads.empty()) return "no workloads";
  if (spec.workloads.size() > kMaxWorkloadsPerCampaign) return "too many workloads";
  for (const auto& wl : spec.workloads)
    if (const char* reason = validate_workload(wl)) return reason;
  return nullptr;
}

eval::CampaignConfig to_campaign_config(const CampaignSpec& spec) {
  const auto to_pfs = [](const SystemSpec& s) {
    pfs::PfsConfig c;
    c.clients = s.clients;
    c.io_nodes = s.io_nodes;
    c.osts = s.osts;
    c.disk_kind = s.disk == 0 ? pfs::DiskKind::kHdd : pfs::DiskKind::kSsd;
    return c;
  };
  eval::CampaignConfig config;
  config.testbed = to_pfs(spec.testbed);
  config.model = to_pfs(spec.model);
  config.seed = spec.seed;
  config.iterations = 1;
  config.threads = 0;
  // The default layout spans 4 OSTs; a spec may model a narrower system.
  config.layout.stripe_count =
      std::min({config.layout.stripe_count, spec.testbed.osts, spec.model.osts});
  return config;
}

namespace {

// The generator configs a spec stands for; make_workload builds from them
// and max_ops counts them, so both read a spec the same way.

workload::DlioConfig dlio_config(const WorkloadSpec& spec) {
  workload::DlioConfig c;
  c.ranks = static_cast<std::int32_t>(spec.ranks);
  c.samples = spec.samples;
  c.sample_size = Bytes::from_kib(spec.sample_kib);
  c.samples_per_file = spec.samples_per_file;
  c.batch_size = spec.batch;
  c.shuffle = spec.shuffle;
  c.seed = spec.workload_seed;
  c.compute_per_batch = SimTime::zero();
  return c;
}

workload::WorkflowConfig workflow_config(const WorkloadSpec& spec) {
  workload::WorkflowConfig c;
  c.workers = static_cast<std::int32_t>(spec.ranks);
  c.stages = static_cast<std::int32_t>(spec.stages);
  c.tasks_per_stage = static_cast<std::int32_t>(spec.tasks_per_stage);
  c.files_per_task = static_cast<std::int32_t>(spec.files_per_task);
  c.compute_per_task = SimTime::zero();
  return c;
}

workload::IorConfig ior_config(const WorkloadSpec& spec) {
  workload::IorConfig c;
  c.ranks = static_cast<std::int32_t>(spec.ranks);
  c.block_size = Bytes::from_kib(spec.block_kib);
  c.transfer_size = Bytes::from_kib(spec.transfer_kib);
  c.read_phase = spec.read_phase;
  return c;
}

}  // namespace

std::unique_ptr<workload::Workload> make_workload(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kDlio: return workload::dlio_like(dlio_config(spec));
    case WorkloadKind::kWorkflow: return workload::workflow_dag(workflow_config(spec));
    case WorkloadKind::kIor:
    default: return workload::ior_like(ior_config(spec));
  }
}

std::uint64_t max_ops(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kDlio: return workload::dlio_op_count(dlio_config(spec));
    case WorkloadKind::kWorkflow: return workload::workflow_op_count(workflow_config(spec));
    case WorkloadKind::kIor:
    default: return workload::ior_op_count(ior_config(spec));
  }
}

std::uint64_t point_key(const CampaignSpec& spec, std::uint32_t index) {
  return PointKeys(spec)(index);
}

PointKeys::PointKeys(const CampaignSpec& spec) : spec_(spec) {
  // Only the inputs that determine a point: the shared scalars, both
  // systems, the one workload record, and the index (it feeds derive_seed).
  // Campaigns sharing a workload prefix therefore share cache entries.
  // FNV-1a folds byte by byte, so folding the shared prefix once and the
  // rest per point gives the fold of the whole encoding.
  constexpr std::size_t kPointBytes = 128;  // a workload record and an index
  scratch_.reserve(kPointBytes);
  {
    Encode e(scratch_);
    shared_fields(e, spec_);
  }
  shared_.mix_bytes(scratch_.data(), scratch_.size());
}

std::uint64_t PointKeys::operator()(std::uint32_t index) {
  scratch_.clear();
  {
    Encode e(scratch_);
    e(spec_.workloads.at(index));
    e(index);
  }
  Fnv64 h = shared_;
  h.mix_bytes(scratch_.data(), scratch_.size());
  return h.digest();
}

// ---------------------------------------------------------------- framing

FrameStatus next_frame(const std::uint8_t* data, std::size_t n, std::size_t* consumed,
                       Frame* out) {
  *consumed = 0;
  if (n < kHeaderBytes) return FrameStatus::kNeedMore;
  codec::Reader r(data, kHeaderBytes);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint16_t type = r.u16();
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (magic != kFrameMagic) return FrameStatus::kBadMagic;
  if (version != kProtocolVersion) return FrameStatus::kBadVersion;
  if (len > kMaxPayloadBytes) return FrameStatus::kOversized;
  if (n - kHeaderBytes < len) return FrameStatus::kNeedMore;
  const std::uint8_t* payload = data + kHeaderBytes;
  if (codec::crc32(payload, len) != crc) {
    *consumed = kHeaderBytes + len;  // header was sane: resynchronise past it
    return FrameStatus::kBadCrc;
  }
  out->type = static_cast<MsgType>(type);
  out->payload.assign(payload, payload + len);
  *consumed = kHeaderBytes + len;
  return FrameStatus::kFrame;
}

void append_frame(MsgType type, const std::vector<std::uint8_t>& payload,
                  std::vector<std::uint8_t>& out) {
  if (payload.size() > kMaxPayloadBytes) throw std::length_error("svc frame payload too large");
  codec::Writer w(out);
  put_header(w, type, static_cast<std::uint32_t>(payload.size()),
             codec::crc32(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
}

void append_message(const SubmitAck& m, Payload& out) {
  append_record(MsgType::kSubmitAck, m, out);
}
void append_message(const PointResultView& m, Payload& out) {
  append_record(MsgType::kPointResult, m, out);
}
void append_message(const CampaignDone& m, Payload& out) {
  append_record(MsgType::kCampaignDone, m, out);
}
void append_message(const StatsReply& m, Payload& out) {
  append_record(MsgType::kStatsReply, m, out);
}
void append_message(const Error& m, Payload& out) { append_record(MsgType::kError, m, out); }

std::vector<Frame> split_frames(const std::vector<std::uint8_t>& bytes) {
  std::vector<Frame> frames;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    Frame f;
    std::size_t consumed = 0;
    const FrameStatus status = next_frame(bytes.data() + pos, bytes.size() - pos, &consumed, &f);
    if (status != FrameStatus::kFrame) throw std::runtime_error("svc: corrupt trusted stream");
    frames.push_back(std::move(f));
    pos += consumed;
  }
  return frames;
}

// ---------------------------------------------------------------- payloads

Payload encode(const SubmitCampaign& m) { return encode_record(m); }
Payload encode(const SubmitAck& m) { return encode_record(m); }
Payload encode(const PointResult& m) { return encode_record(m); }
Payload encode(const CampaignDone& m) { return encode_record(m); }
Payload encode(const CancelCampaign& m) { return encode_record(m); }
Payload encode(const Stats& m) { return encode_record(m); }
Payload encode(const StatsReply& m) { return encode_record(m); }
Payload encode(const Error& m) { return encode_record(m); }
Payload encode_point(const eval::CampaignPoint& p) { return encode_record(p); }

bool decode(const Payload& p, SubmitCampaign* out) { return decode_record(p, out); }
bool decode(const Payload& p, SubmitAck* out) { return decode_record(p, out); }
bool decode(const Payload& p, PointResult* out) { return decode_record(p, out); }
bool decode(const Payload& p, CampaignDone* out) { return decode_record(p, out); }
bool decode(const Payload& p, CancelCampaign* out) { return decode_record(p, out); }
bool decode(const Payload& p, Stats* out) { return decode_record(p, out); }
bool decode(const Payload& p, StatsReply* out) { return decode_record(p, out); }
bool decode(const Payload& p, Error* out) { return decode_record(p, out); }
bool decode_point(const Payload& p, eval::CampaignPoint* out) { return decode_record(p, out); }

}  // namespace pio::svc
