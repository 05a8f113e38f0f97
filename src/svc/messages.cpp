#include "svc/messages.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

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

void encode_system(codec::Writer& w, const SystemSpec& s) {
  w.u32(s.clients);
  w.u32(s.io_nodes);
  w.u32(s.osts);
  w.u8(s.disk);
}

[[nodiscard]] SystemSpec decode_system(codec::Reader& r) {
  SystemSpec s;
  s.clients = r.u32();
  s.io_nodes = r.u32();
  s.osts = r.u32();
  s.disk = r.u8();
  return s;
}

void encode_workload(codec::Writer& w, const WorkloadSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.u32(s.ranks);
  w.u64(s.block_kib);
  w.u64(s.transfer_kib);
  w.boolean(s.read_phase);
  w.u64(s.samples);
  w.u64(s.sample_kib);
  w.u64(s.samples_per_file);
  w.u64(s.batch);
  w.boolean(s.shuffle);
  w.u64(s.workload_seed);
  w.u32(s.stages);
  w.u32(s.tasks_per_stage);
  w.u32(s.files_per_task);
}

[[nodiscard]] WorkloadSpec decode_workload(codec::Reader& r) {
  WorkloadSpec s;
  s.kind = static_cast<WorkloadKind>(r.u8());
  s.ranks = r.u32();
  s.block_kib = r.u64();
  s.transfer_kib = r.u64();
  s.read_phase = r.boolean();
  s.samples = r.u64();
  s.sample_kib = r.u64();
  s.samples_per_file = r.u64();
  s.batch = r.u64();
  s.shuffle = r.boolean();
  s.workload_seed = r.u64();
  s.stages = r.u32();
  s.tasks_per_stage = r.u32();
  s.files_per_task = r.u32();
  return s;
}

void encode_spec(codec::Writer& w, const CampaignSpec& spec) {
  w.u64(spec.seed);
  w.f64(spec.calibration);
  encode_system(w, spec.testbed);
  encode_system(w, spec.model);
  w.u32(static_cast<std::uint32_t>(spec.workloads.size()));
  for (const auto& wl : spec.workloads) encode_workload(w, wl);
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
  if (s.samples_per_file == 0) return "samples_per_file zero";
  if (s.batch == 0 || s.batch > s.samples) return "batch out of range";
  if (s.stages == 0 || s.stages > kMaxStages) return "stages out of range";
  if (s.tasks_per_stage == 0 || s.tasks_per_stage > kMaxTasks) return "tasks_per_stage out of range";
  if (s.files_per_task == 0 || s.files_per_task > kMaxTasks) return "files_per_task out of range";
  return nullptr;
}

[[nodiscard]] std::vector<std::uint8_t> take(codec::Writer& w) { return w.take(); }

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

std::unique_ptr<workload::Workload> make_workload(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kDlio: {
      workload::DlioConfig c;
      c.ranks = static_cast<std::int32_t>(spec.ranks);
      c.samples = spec.samples;
      c.sample_size = Bytes::from_kib(spec.sample_kib);
      c.samples_per_file = spec.samples_per_file;
      c.batch_size = spec.batch;
      c.shuffle = spec.shuffle;
      c.seed = spec.workload_seed;
      c.compute_per_batch = SimTime::zero();
      return workload::dlio_like(c);
    }
    case WorkloadKind::kWorkflow: {
      workload::WorkflowConfig c;
      c.workers = static_cast<std::int32_t>(spec.ranks);
      c.stages = static_cast<std::int32_t>(spec.stages);
      c.tasks_per_stage = static_cast<std::int32_t>(spec.tasks_per_stage);
      c.files_per_task = static_cast<std::int32_t>(spec.files_per_task);
      c.compute_per_task = SimTime::zero();
      return workload::workflow_dag(c);
    }
    case WorkloadKind::kIor:
    default: {
      workload::IorConfig c;
      c.ranks = static_cast<std::int32_t>(spec.ranks);
      c.block_size = Bytes::from_kib(spec.block_kib);
      c.transfer_size = Bytes::from_kib(spec.transfer_kib);
      c.read_phase = spec.read_phase;
      return workload::ior_like(c);
    }
  }
}

std::uint64_t point_key(const CampaignSpec& spec, std::uint32_t index) {
  // Only the inputs that determine point `index`: the shared scalars, both
  // systems, the one workload record, and the index (it feeds derive_seed).
  // Campaigns sharing a workload prefix therefore share cache entries.
  codec::Writer w;
  w.u64(spec.seed);
  w.f64(spec.calibration);
  encode_system(w, spec.testbed);
  encode_system(w, spec.model);
  encode_workload(w, spec.workloads.at(index));
  w.u32(index);
  Fnv64 h;
  h.mix_bytes(w.view().data(), w.size());
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
  codec::Writer w;
  w.u32(kFrameMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(codec::crc32(payload.data(), payload.size()));
  out.insert(out.end(), w.view().begin(), w.view().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

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

std::vector<std::uint8_t> encode(const SubmitCampaign& m) {
  codec::Writer w;
  encode_spec(w, m.spec);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, SubmitCampaign* out) {
  codec::Reader r(payload.data(), payload.size());
  CampaignSpec spec;
  spec.seed = r.u64();
  spec.calibration = r.f64();
  spec.testbed = decode_system(r);
  spec.model = decode_system(r);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxWorkloadsPerCampaign) return false;
  spec.workloads.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) spec.workloads.push_back(decode_workload(r));
  if (!r.done()) return false;
  out->spec = std::move(spec);
  return true;
}

std::vector<std::uint8_t> encode(const SubmitAck& m) {
  codec::Writer w;
  w.u64(m.campaign_id);
  w.u32(m.points);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, SubmitAck* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  out->points = r.u32();
  return r.done();
}

std::vector<std::uint8_t> encode(const PointResult& m) {
  codec::Writer w;
  w.u64(m.campaign_id);
  w.u32(m.index);
  w.u64(m.key);
  w.u64(m.digest);
  w.u8(static_cast<std::uint8_t>(m.source));
  w.u32(static_cast<std::uint32_t>(m.blob.size()));
  w.bytes(m.blob.data(), m.blob.size());
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, PointResult* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  out->index = r.u32();
  out->key = r.u64();
  out->digest = r.u64();
  const std::uint8_t source = r.u8();
  if (source > static_cast<std::uint8_t>(ResultSource::kCoalesced)) return false;
  out->source = static_cast<ResultSource>(source);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n != r.remaining()) return false;
  out->blob.assign(payload.end() - static_cast<std::ptrdiff_t>(n), payload.end());
  return true;
}

std::vector<std::uint8_t> encode(const CampaignDone& m) {
  codec::Writer w;
  w.u64(m.campaign_id);
  w.u32(m.completed);
  w.u32(m.cancelled);
  w.boolean(m.was_cancelled);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, CampaignDone* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  out->completed = r.u32();
  out->cancelled = r.u32();
  out->was_cancelled = r.boolean();
  return r.done();
}

std::vector<std::uint8_t> encode(const CancelCampaign& m) {
  codec::Writer w;
  w.u64(m.campaign_id);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, CancelCampaign* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode(const Stats&) { return {}; }

bool decode(const std::vector<std::uint8_t>& payload, Stats*) { return payload.empty(); }

std::vector<std::uint8_t> encode(const StatsReply& m) {
  codec::Writer w;
  const ServiceStats& s = m.stats;
  w.u64(s.sessions_opened);
  w.u64(s.sessions_closed);
  w.u64(s.frames_in);
  w.u64(s.frames_out);
  w.u64(s.protocol_errors);
  w.u64(s.campaigns_submitted);
  w.u64(s.campaigns_accepted);
  w.u64(s.campaigns_rejected);
  w.u64(s.campaigns_completed);
  w.u64(s.campaigns_cancelled);
  w.u64(s.points_completed);
  w.u64(s.points_computed);
  w.u64(s.points_cached);
  w.u64(s.points_coalesced);
  w.u64(s.points_cancelled);
  w.u64(s.cache_lookups);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
  w.u64(s.cache_entries);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, StatsReply* out) {
  codec::Reader r(payload.data(), payload.size());
  ServiceStats& s = out->stats;
  s.sessions_opened = r.u64();
  s.sessions_closed = r.u64();
  s.frames_in = r.u64();
  s.frames_out = r.u64();
  s.protocol_errors = r.u64();
  s.campaigns_submitted = r.u64();
  s.campaigns_accepted = r.u64();
  s.campaigns_rejected = r.u64();
  s.campaigns_completed = r.u64();
  s.campaigns_cancelled = r.u64();
  s.points_completed = r.u64();
  s.points_computed = r.u64();
  s.points_cached = r.u64();
  s.points_coalesced = r.u64();
  s.points_cancelled = r.u64();
  s.cache_lookups = r.u64();
  s.cache_hits = r.u64();
  s.cache_misses = r.u64();
  s.cache_entries = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode(const Error& m) {
  codec::Writer w;
  w.u16(static_cast<std::uint16_t>(m.code));
  w.u64(m.retry_after_ns);
  w.str(m.detail);
  return take(w);
}

bool decode(const std::vector<std::uint8_t>& payload, Error* out) {
  codec::Reader r(payload.data(), payload.size());
  const std::uint16_t code = r.u16();
  if (code > static_cast<std::uint16_t>(ErrorCode::kUnknownCampaign)) return false;
  out->code = static_cast<ErrorCode>(code);
  out->retry_after_ns = r.u64();
  out->detail = r.str();
  return r.done();
}

// ---------------------------------------------------------------- points

std::vector<std::uint8_t> encode_point(const eval::CampaignPoint& p) {
  // Same canonical field order as eval::point_digest.
  codec::Writer w;
  w.str(p.workload);
  w.i64(p.measured.ns());
  w.i64(p.simulated_raw.ns());
  w.i64(p.predicted.ns());
  driver::for_each_counter(p, [&w](std::string_view, auto v) {
    w.u64(driver::counter_value(v));
  });
  return take(w);
}

bool decode_point(const std::vector<std::uint8_t>& blob, eval::CampaignPoint* out) {
  codec::Reader r(blob.data(), blob.size());
  eval::CampaignPoint p;
  p.workload = r.str();
  p.measured = SimTime::from_ns(r.i64());
  p.simulated_raw = SimTime::from_ns(r.i64());
  p.predicted = SimTime::from_ns(r.i64());
  driver::for_each_counter(p, [&r](std::string_view, auto& v) {
    driver::set_counter(v, r.u64());
  });
  if (!r.done()) return false;
  *out = std::move(p);
  return true;
}

}  // namespace pio::svc
