// Test-only differential oracle: the binary codec code that was replaced,
// kept verbatim apart from its names, namespaces and header-only packaging.
//   - codec::oracle::crc32: the byte-at-a-time table loop that slice-by-8
//     replaced (tests/test_service.cpp compares the two).
//   - trace::oracle::try_read_binary: the std::istream reader with host-order
//     struct reads and seek probes for the bytes remaining.
//   - svc::oracle::decode / decode_point: the per-message strict decoders
//     that spelled each record's fields a second time.
// tests/test_codec_fuzz.cpp feeds the decoders and the library decoders the
// same mutated inputs and requires the same accept set and equal values.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"
#include "common/result.hpp"
#include "svc/messages.hpp"
#include "trace/tracer.hpp"

namespace pio::codec::oracle {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = kCrcTable[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pio::codec::oracle

namespace pio::trace::oracle {

constexpr char kMagic[8] = {'P', 'I', 'O', 'T', 'R', 'C', '0', '1'};

struct BinaryRecord {
  std::uint8_t layer;
  std::uint8_t op;
  std::uint8_t ok;
  std::uint8_t pad = 0;
  std::int32_t rank;
  std::uint32_t path_id;
  std::uint32_t pad2 = 0;
  std::uint64_t offset;
  std::uint64_t size;
  std::int64_t start_ns;
  std::int64_t end_ns;
};
static_assert(sizeof(BinaryRecord) == 48);

/// Bytes left between the read position and end of stream, or nullopt when
/// the stream is not seekable (pipes). Restores the read position.
inline std::optional<std::uint64_t> bytes_remaining(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end == std::istream::pos_type(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

template <typename T>
bool try_get(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(in);
}

[[nodiscard]] inline Result<Trace> try_read_binary(std::istream& in) {
  const auto fail = [](std::string message) {
    return Error{1, "Trace::read_binary: " + std::move(message)};
  };
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail("bad magic");
  }
  const auto remaining = bytes_remaining(in);
  std::uint32_t path_count = 0;
  if (!try_get(in, path_count)) return fail("truncated stream");
  // A declared path table cannot be larger than the bytes behind it (each
  // entry carries at least its 4-byte length prefix): reject before any
  // allocation so a corrupt count cannot drive a huge resize.
  if (remaining.has_value() &&
      std::uint64_t{path_count} * sizeof(std::uint32_t) > *remaining) {
    return fail("path count exceeds stream size");
  }
  std::vector<std::string> paths;
  paths.reserve(std::min<std::uint64_t>(path_count, 4096));
  for (std::uint32_t p = 0; p < path_count; ++p) {
    std::uint32_t len = 0;
    if (!try_get(in, len)) return fail("truncated path table");
    if (const auto left = bytes_remaining(in); left.has_value() && len > *left) {
      return fail("path length exceeds stream size");
    }
    std::string path(len, '\0');
    in.read(path.data(), len);
    if (!in) return fail("truncated path table");
    paths.push_back(std::move(path));
  }
  std::uint64_t count = 0;
  if (!try_get(in, count)) return fail("truncated stream");
  if (const auto left = bytes_remaining(in);
      left.has_value() && count > *left / sizeof(BinaryRecord)) {
    return fail("event count exceeds stream size");
  }
  Trace trace;
  for (std::uint64_t i = 0; i < count; ++i) {
    BinaryRecord r{};
    if (!try_get(in, r)) return fail("truncated event records");
    if (r.path_id >= paths.size()) return fail("event references unknown path id");
    TraceEvent e;
    e.layer = static_cast<Layer>(r.layer);
    e.op = static_cast<OpKind>(r.op);
    e.ok = r.ok != 0;
    e.rank = r.rank;
    e.path = paths[r.path_id];
    e.offset = r.offset;
    e.size = r.size;
    e.start = SimTime::from_ns(r.start_ns);
    e.end = SimTime::from_ns(r.end_ns);
    trace.append(std::move(e));
  }
  return trace;
}

}  // namespace pio::trace::oracle

namespace pio::svc::oracle {

[[nodiscard]] inline SystemSpec decode_system(codec::Reader& r) {
  SystemSpec s;
  s.clients = r.u32();
  s.io_nodes = r.u32();
  s.osts = r.u32();
  s.disk = r.u8();
  return s;
}

[[nodiscard]] inline WorkloadSpec decode_workload(codec::Reader& r) {
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

inline bool decode(const std::vector<std::uint8_t>& payload, SubmitCampaign* out) {
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

inline bool decode(const std::vector<std::uint8_t>& payload, SubmitAck* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  out->points = r.u32();
  return r.done();
}

inline bool decode(const std::vector<std::uint8_t>& payload, PointResult* out) {
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

inline bool decode(const std::vector<std::uint8_t>& payload, CampaignDone* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  out->completed = r.u32();
  out->cancelled = r.u32();
  out->was_cancelled = r.boolean();
  return r.done();
}

inline bool decode(const std::vector<std::uint8_t>& payload, CancelCampaign* out) {
  codec::Reader r(payload.data(), payload.size());
  out->campaign_id = r.u64();
  return r.done();
}

inline bool decode(const std::vector<std::uint8_t>& payload, Stats*) { return payload.empty(); }

inline bool decode(const std::vector<std::uint8_t>& payload, StatsReply* out) {
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

inline bool decode(const std::vector<std::uint8_t>& payload, Error* out) {
  codec::Reader r(payload.data(), payload.size());
  const std::uint16_t code = r.u16();
  if (code > static_cast<std::uint16_t>(ErrorCode::kUnknownCampaign)) return false;
  out->code = static_cast<ErrorCode>(code);
  out->retry_after_ns = r.u64();
  out->detail = r.str();
  return r.done();
}

inline bool decode_point(const std::vector<std::uint8_t>& blob, eval::CampaignPoint* out) {
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

}  // namespace pio::svc::oracle
