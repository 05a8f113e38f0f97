// Tests for pio::svc — the pioevald campaign service (DESIGN.md §15).
//
// Three layers under test:
//   1. The frame codec: round-trips for every message type, the CRC check
//      vector, and a malformed-input sweep (truncated, bad CRC, oversized,
//      unknown type, trailing garbage) asserting typed Error responses and
//      no state corruption — never a crash.
//   2. The per-point determinism digest: pinned golden values freeze the
//      canonical field order of eval::point_digest, and the service's
//      carried digest matches a recomputation from the decoded blob.
//   3. Cache semantics and scheduling: cross-session hits, in-flight
//      coalescing, cancel paths, admission control with deterministic
//      retry-after, per-session caps, and byte-identical output streams at
//      any worker thread count — closed by the exact accounting audit.
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codec_oracle.hpp"
#include "common/codec.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "eval/campaign.hpp"
#include "svc/evald.hpp"
#include "svc/messages.hpp"

using namespace pio;

namespace {

/// The point of ServiceDigest.PointDigestGoldenValues: every counter holds a
/// distinct value, so a codec row that moves the wrong field shows.
eval::CampaignPoint distinct_point() {
  eval::CampaignPoint p;
  p.workload = "golden[r=4]";
  p.measured = SimTime::from_ns(1'000'000'001);
  p.simulated_raw = SimTime::from_ns(900'000'000);
  p.predicted = SimTime::from_ns(810'000'000);
  p.failed_ops = 1;
  p.retries = 2;
  p.timeouts = 3;
  p.giveups = 4;
  p.failovers = 5;
  p.degraded_reads = 6;
  p.data_lost_ops = 7;
  p.rebuilds_completed = 8;
  p.rebuilt_bytes = Bytes::from_kib(9);
  p.stale_map_retries = 10;
  p.map_refreshes = 11;
  p.down_detections = 12;
  p.migration_marked_bytes = Bytes::from_kib(13);
  p.overload_rejections = 14;
  p.budget_denied = 15;
  p.breaker_opens = 16;
  p.breaker_fast_fails = 17;
  p.deadline_giveups = 18;
  p.server_overload_rejected = 19;
  p.server_shed = 20;
  p.cache_hits = 21;
  p.cache_misses = 22;
  p.cache_evictions = 23;
  p.cache_prefetch_issued = 24;
  p.cache_prefetch_used = 25;
  p.cache_prefetch_wasted = 26;
  p.cache_writebacks = 27;
  p.cache_absorbed_writes = 28;
  return p;
}

/// A cheap deterministic spec: `points` IOR-like workloads distinguished by
/// (j, salt), so specs with different salts request disjoint cache keys and
/// equal salts collide completely.
svc::CampaignSpec make_spec(std::uint32_t points, std::uint32_t salt = 0) {
  svc::CampaignSpec spec;
  spec.seed = 7;
  spec.calibration = 0.9;
  spec.testbed = {4, 2, 4, 1};
  spec.model = {4, 2, 2, 1};
  for (std::uint32_t j = 0; j < points; ++j) {
    svc::WorkloadSpec w;
    w.kind = svc::WorkloadKind::kIor;
    w.ranks = 2;
    w.block_kib = 128 * (1 + j + salt);
    w.transfer_kib = 32;
    w.read_phase = (j + salt) % 2 == 0;
    spec.workloads.push_back(w);
  }
  return spec;
}

std::vector<std::uint8_t> frame_bytes(svc::MsgType type,
                                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  svc::append_frame(type, payload, wire);
  return wire;
}

std::vector<std::uint8_t> submit_bytes(const svc::CampaignSpec& spec) {
  return frame_bytes(svc::MsgType::kSubmitCampaign, svc::encode(svc::SubmitCampaign{spec}));
}

/// Take and parse a session's pending output.
std::vector<svc::Frame> collect(svc::Evald& evald, svc::SessionId sid) {
  return svc::split_frames(evald.take_output(sid));
}

/// The PointResult frames of a parsed stream, in delivery order.
std::vector<svc::PointResult> points_of(const std::vector<svc::Frame>& frames) {
  std::vector<svc::PointResult> points;
  for (const svc::Frame& f : frames) {
    if (f.type != svc::MsgType::kPointResult) continue;
    svc::PointResult p;
    EXPECT_TRUE(svc::decode(f.payload, &p));
    points.push_back(std::move(p));
  }
  return points;
}

/// The single Error frame expected in a parsed stream.
svc::Error only_error(const std::vector<svc::Frame>& frames) {
  svc::Error err;
  std::size_t count = 0;
  for (const svc::Frame& f : frames) {
    if (f.type != svc::MsgType::kError) continue;
    EXPECT_TRUE(svc::decode(f.payload, &err));
    ++count;
  }
  EXPECT_EQ(count, 1u);
  return err;
}

// ------------------------------------------------------------ frame codec

TEST(ServiceCodec, Crc32CheckVector) {
  const std::string check = "123456789";
  EXPECT_EQ(codec::crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(codec::crc32(nullptr, 0), 0u);
}

// Slice-by-8 against the byte-at-a-time loop it replaced: every length up
// to 1 KiB at every start alignment, so each head, 8-byte body and tail
// split is covered, then seeded random buffers up to 64 KiB.
TEST(ServiceCodec, Crc32MatchesBytewiseReference) {
  Rng rng{0xC4C3'2000ULL, 1};
  std::vector<std::uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(codec::crc32(p, n), codec::oracle::crc32(p, n))
          << n << " bytes at offset " << offset;
    }
  }
  for (int i = 0; i < 10'000; ++i) {
    buf.resize(rng.next_below((64 << 10) + 1));
    for (std::size_t j = 0; j < buf.size(); j += 8) {
      const std::uint64_t r = rng.next_u64();
      for (std::size_t k = 0; k < 8 && j + k < buf.size(); ++k) {
        buf[j + k] = static_cast<std::uint8_t>(r >> (8 * k));
      }
    }
    ASSERT_EQ(codec::crc32(buf.data(), buf.size()), codec::oracle::crc32(buf.data(), buf.size()))
        << "buffer " << i << " of " << buf.size() << " bytes";
  }
}

TEST(ServiceCodec, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const auto wire = frame_bytes(svc::MsgType::kPointResult, payload);
  ASSERT_EQ(wire.size(), svc::kHeaderBytes + payload.size());
  svc::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(svc::next_frame(wire.data(), wire.size(), &consumed, &frame),
            svc::FrameStatus::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.type, svc::MsgType::kPointResult);
  EXPECT_EQ(frame.payload, payload);
}

TEST(ServiceCodec, SubmitCampaignRoundTrip) {
  svc::SubmitCampaign in{make_spec(3, 5)};
  in.spec.workloads[1].kind = svc::WorkloadKind::kDlio;
  in.spec.workloads[2].kind = svc::WorkloadKind::kWorkflow;
  svc::SubmitCampaign out;
  ASSERT_TRUE(svc::decode(svc::encode(in), &out));
  EXPECT_EQ(in.spec, out.spec);
}

TEST(ServiceCodec, EveryReplyTypeRoundTrips) {
  svc::SubmitAck ack{42, 7};
  svc::SubmitAck ack2;
  ASSERT_TRUE(svc::decode(svc::encode(ack), &ack2));
  EXPECT_EQ(ack2.campaign_id, 42u);
  EXPECT_EQ(ack2.points, 7u);

  svc::PointResult pr;
  pr.campaign_id = 3;
  pr.index = 2;
  pr.key = 0xDEADBEEFu;
  pr.digest = 0xFEEDFACEu;
  pr.source = svc::ResultSource::kCoalesced;
  pr.blob = {9, 8, 7};
  svc::PointResult pr2;
  ASSERT_TRUE(svc::decode(svc::encode(pr), &pr2));
  EXPECT_EQ(pr2.campaign_id, 3u);
  EXPECT_EQ(pr2.index, 2u);
  EXPECT_EQ(pr2.key, 0xDEADBEEFu);
  EXPECT_EQ(pr2.digest, 0xFEEDFACEu);
  EXPECT_EQ(pr2.source, svc::ResultSource::kCoalesced);
  EXPECT_EQ(pr2.blob, pr.blob);

  svc::CampaignDone done{11, 4, 2, true};
  svc::CampaignDone done2;
  ASSERT_TRUE(svc::decode(svc::encode(done), &done2));
  EXPECT_EQ(done2.campaign_id, 11u);
  EXPECT_EQ(done2.completed, 4u);
  EXPECT_EQ(done2.cancelled, 2u);
  EXPECT_TRUE(done2.was_cancelled);

  svc::CancelCampaign cancel{11};
  svc::CancelCampaign cancel2;
  ASSERT_TRUE(svc::decode(svc::encode(cancel), &cancel2));
  EXPECT_EQ(cancel2.campaign_id, 11u);

  svc::Stats stats;
  svc::Stats stats2;
  ASSERT_TRUE(svc::decode(svc::encode(stats), &stats2));

  svc::StatsReply reply;
  reply.stats.points_completed = 123;
  reply.stats.cache_hits = 45;
  svc::StatsReply reply2;
  ASSERT_TRUE(svc::decode(svc::encode(reply), &reply2));
  EXPECT_EQ(reply.stats, reply2.stats);

  svc::Error err{svc::ErrorCode::kOverloaded, 2500, "queue full"};
  svc::Error err2;
  ASSERT_TRUE(svc::decode(svc::encode(err), &err2));
  EXPECT_EQ(err2.code, svc::ErrorCode::kOverloaded);
  EXPECT_EQ(err2.retry_after_ns, 2500u);
  EXPECT_EQ(err2.detail, "queue full");
}

TEST(ServiceCodec, StrictDecodeRejectsTruncationAndTrailingBytes) {
  auto payload = svc::encode(svc::SubmitCampaign{make_spec(2)});
  svc::SubmitCampaign out;
  ASSERT_TRUE(svc::decode(payload, &out));
  // Truncated at every prefix length.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const std::vector<std::uint8_t> cut(payload.begin(),
                                        payload.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_FALSE(svc::decode(cut, &out)) << "accepted a " << n << "-byte prefix";
  }
  // One trailing byte.
  payload.push_back(0);
  EXPECT_FALSE(svc::decode(payload, &out));
  // Hostile workload count: header claims more entries than bytes follow.
  auto hostile = svc::encode(svc::SubmitCampaign{make_spec(1)});
  hostile[8 + 8 + 13 + 13] = 0xFF;  // the u32 workload count field, low byte
  EXPECT_FALSE(svc::decode(hostile, &out));
}

// Every RunCounters field is eight bytes; a field added without its
// for_each_counter_field row also fails run_counters.hpp's own check.
static_assert(sizeof(driver::RunCounters) == 28 * sizeof(std::uint64_t));

TEST(ServiceCodec, PointBlobRoundTrip) {
  const eval::CampaignPoint p = distinct_point();
  const auto blob = svc::encode_point(p);
  eval::CampaignPoint q;
  ASSERT_TRUE(svc::decode_point(blob, &q));
  EXPECT_EQ(q.workload, p.workload);
  EXPECT_EQ(q.measured, p.measured);
  EXPECT_EQ(q.simulated_raw, p.simulated_raw);
  EXPECT_EQ(q.predicted, p.predicted);
  driver::for_each_counter_field([&](std::string_view name, auto field) {
    EXPECT_EQ(q.*field, p.*field) << name;
  });
  // A truncated blob is rejected, not misparsed.
  const std::vector<std::uint8_t> cut(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(svc::decode_point(cut, &q));
}

// Every string the encoder writes reads back: the encoder refuses a string
// past the decoder's 64 KiB bound instead of emitting bytes the decoder
// rejects.
TEST(ServiceCodec, StringsAtTheLimitRoundTripAndPastItAreRefused) {
  constexpr std::size_t kLimit = 1 << 16;
  svc::Error err{svc::ErrorCode::kMalformed, 0, std::string(kLimit, 'd')};
  svc::Error err2;
  ASSERT_TRUE(svc::decode(svc::encode(err), &err2));
  EXPECT_EQ(err2.detail, err.detail);
  err.detail.push_back('d');
  EXPECT_THROW((void)svc::encode(err), std::length_error);
  // Framed in place, a refused string leaves the buffer as it was.
  std::vector<std::uint8_t> out = frame_bytes(svc::MsgType::kStats, {});
  const std::vector<std::uint8_t> before = out;
  EXPECT_THROW(svc::append_message(err, out), std::length_error);
  EXPECT_EQ(out, before);

  eval::CampaignPoint p = distinct_point();
  p.workload = std::string(kLimit, 'w');
  eval::CampaignPoint q;
  ASSERT_TRUE(svc::decode_point(svc::encode_point(p), &q));
  EXPECT_EQ(q.workload, p.workload);
  p.workload.push_back('w');
  EXPECT_THROW((void)svc::encode_point(p), std::length_error);
}

// -------------------------------------------- malformed frames, live service

TEST(ServiceProtocol, ByteAtATimeFeedStillParses) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  const auto wire = submit_bytes(make_spec(1));
  for (const std::uint8_t byte : wire) evald.feed(sid, &byte, 1);
  const auto frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, svc::MsgType::kSubmitAck);
  evald.drain();
  evald.close_session(sid);
}

TEST(ServiceProtocol, BadCrcSkipsFrameAndRecovers) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  auto damaged = submit_bytes(make_spec(1));
  damaged.back() ^= 0xFF;  // corrupt the payload, keep the header
  evald.feed(sid, damaged);
  auto frames = collect(evald, sid);
  EXPECT_EQ(only_error(frames).code, svc::ErrorCode::kBadCrc);
  // The stream recovered: the next well-formed frame is served normally.
  evald.feed(sid, submit_bytes(make_spec(1)));
  frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, svc::MsgType::kSubmitAck);
  evald.drain();
  (void)evald.take_output(sid);
  evald.close_session(sid);
  evald.audit_quiescent();
  EXPECT_EQ(evald.stats().protocol_errors, 1u);
}

TEST(ServiceProtocol, HeaderFaultsPoisonTheSession) {
  struct Case {
    const char* name;
    std::size_t offset;   // byte to clobber in the header
    std::uint8_t value;
    svc::ErrorCode expect;
  };
  const Case cases[] = {
      {"magic", 0, 0x00, svc::ErrorCode::kBadMagic},
      {"version", 4, 0x77, svc::ErrorCode::kBadVersion},
      {"length", 11, 0xFF, svc::ErrorCode::kOversizedFrame},  // top byte of len
  };
  for (const Case& c : cases) {
    svc::Evald evald{{.threads = 1}};
    const svc::SessionId sid = evald.open_session();
    auto wire = submit_bytes(make_spec(1));
    wire[c.offset] = c.value;
    evald.feed(sid, wire);
    EXPECT_EQ(only_error(collect(evald, sid)).code, c.expect) << c.name;
    // Poisoned: even a valid follow-up frame is ignored, silently.
    evald.feed(sid, submit_bytes(make_spec(1)));
    EXPECT_TRUE(collect(evald, sid).empty()) << c.name;
    evald.close_session(sid);
    evald.audit_quiescent();
  }
}

TEST(ServiceProtocol, UnknownAndUnexpectedTypesGetTypedErrors) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, frame_bytes(static_cast<svc::MsgType>(99), {}));
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kUnknownType);
  // A server→client type sent by the client is known but not acceptable.
  evald.feed(sid, frame_bytes(svc::MsgType::kSubmitAck, svc::encode(svc::SubmitAck{1, 1})));
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kUnexpectedType);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceProtocol, ZeroAndMalformedPayloads) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  // Zero-length payload where one is required → typed malformed error.
  evald.feed(sid, frame_bytes(svc::MsgType::kSubmitCampaign, {}));
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kMalformed);
  // Zero-length payload where it is the contract → served.
  evald.feed(sid, frame_bytes(svc::MsgType::kStats, {}));
  const auto frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, svc::MsgType::kStatsReply);
  // Stats with a stray payload byte → malformed, not a crash.
  evald.feed(sid, frame_bytes(svc::MsgType::kStats, {1}));
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kMalformed);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceProtocol, SemanticallyInvalidSpecIsLimitExceeded) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  auto spec = make_spec(1);
  spec.workloads[0].ranks = 1u << 20;
  evald.feed(sid, submit_bytes(spec));
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kLimitExceeded);
  EXPECT_EQ(evald.stats().campaigns_rejected, 1u);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceProtocol, FinishInsideFrameReportsTruncation) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  const auto wire = submit_bytes(make_spec(1));
  evald.feed(sid, wire.data(), wire.size() - 3);
  EXPECT_TRUE(collect(evald, sid).empty());  // incomplete: nothing happened yet
  evald.finish(sid);
  EXPECT_EQ(only_error(collect(evald, sid)).code, svc::ErrorCode::kTruncatedFrame);
  evald.close_session(sid);
  evald.audit_quiescent();
}

// ------------------------------------------------------- digest goldens

TEST(ServiceDigest, PointDigestGoldenValues) {
  // Frozen oracle for the canonical field order of eval::point_digest. If
  // this test breaks, the digest definition changed — which invalidates
  // every recorded campaign digest and the service cache's byte-identity
  // contract. Append new CampaignPoint fields; never reorder.
  eval::CampaignConfig config;
  config.seed = 7;
  eval::CampaignPoint zero;
  EXPECT_EQ(eval::point_digest(config, zero), 218557649205177348ULL);

  eval::CampaignPoint p;
  p.workload = "golden[r=4]";
  p.measured = SimTime::from_ns(1'000'000'001);
  p.simulated_raw = SimTime::from_ns(900'000'000);
  p.predicted = SimTime::from_ns(810'000'000);
  p.failed_ops = 1;
  p.retries = 2;
  p.timeouts = 3;
  p.giveups = 4;
  p.failovers = 5;
  p.degraded_reads = 6;
  p.data_lost_ops = 7;
  p.rebuilds_completed = 8;
  p.rebuilt_bytes = Bytes::from_kib(9);
  p.stale_map_retries = 10;
  p.map_refreshes = 11;
  p.down_detections = 12;
  p.migration_marked_bytes = Bytes::from_kib(13);
  p.overload_rejections = 14;
  p.budget_denied = 15;
  p.breaker_opens = 16;
  p.breaker_fast_fails = 17;
  p.deadline_giveups = 18;
  p.server_overload_rejected = 19;
  p.server_shed = 20;
  p.cache_hits = 21;
  p.cache_misses = 22;
  p.cache_evictions = 23;
  p.cache_prefetch_issued = 24;
  p.cache_prefetch_used = 25;
  p.cache_prefetch_wasted = 26;
  p.cache_writebacks = 27;
  p.cache_absorbed_writes = 28;
  EXPECT_EQ(eval::point_digest(config, p), 10869046104899268794ULL);

  // The seed is part of the digest: same point, different campaign seed.
  config.seed = 8;
  EXPECT_NE(eval::point_digest(config, p), 10869046104899268794ULL);
}

TEST(ServiceDigest, PointBlobIsFrozen) {
  // Differential pin for svc::encode_point: the byte length and Fnv64 of the
  // blob of PointDigestGoldenValues' 28-distinct-value point. A codec row
  // that writes the wrong field, or in the wrong order, moves the digest.
  eval::CampaignConfig config;
  config.seed = 7;
  const eval::CampaignPoint p = distinct_point();
  ASSERT_EQ(eval::point_digest(config, p), 10869046104899268794ULL);
  const auto blob = svc::encode_point(p);
  Fnv64 h;
  h.mix_bytes(blob.data(), blob.size());
  EXPECT_EQ(blob.size(), 263u);
  EXPECT_EQ(h.digest(), 3133890158991746153ULL);
}

// ------------------------------------------------------------ wire pins

/// (length, Fnv64) of an encoded payload.
std::pair<std::size_t, std::uint64_t> pin(const std::vector<std::uint8_t>& bytes) {
  Fnv64 h;
  h.mix_bytes(bytes.data(), bytes.size());
  return {bytes.size(), h.digest()};
}

/// A spec whose every field differs from its neighbours': one IOR and one
/// DLIO workload, each with all fourteen WorkloadSpec fields set.
svc::CampaignSpec distinct_spec() {
  svc::CampaignSpec spec;
  spec.seed = 0x0102030405060708ULL;
  spec.calibration = 1.25;
  spec.testbed = {16, 3, 8, 0};
  spec.model = {32, 5, 6, 1};
  svc::WorkloadSpec ior;
  ior.kind = svc::WorkloadKind::kIor;
  ior.ranks = 9;
  ior.block_kib = 2048;
  ior.transfer_kib = 512;
  ior.read_phase = true;
  ior.samples = 70;
  ior.sample_kib = 33;
  ior.samples_per_file = 14;
  ior.batch = 6;
  ior.shuffle = false;
  ior.workload_seed = 1234;
  ior.stages = 7;
  ior.tasks_per_stage = 11;
  ior.files_per_task = 13;
  svc::WorkloadSpec dlio;
  dlio.kind = svc::WorkloadKind::kDlio;
  dlio.ranks = 6;
  dlio.block_kib = 4096;
  dlio.transfer_kib = 1024;
  dlio.read_phase = false;
  dlio.samples = 200;
  dlio.sample_kib = 96;
  dlio.samples_per_file = 25;
  dlio.batch = 10;
  dlio.shuffle = true;
  dlio.workload_seed = 99;
  dlio.stages = 3;
  dlio.tasks_per_stage = 5;
  dlio.files_per_task = 2;
  spec.workloads = {ior, dlio};
  return spec;
}

TEST(ServiceWire, MessageBytesArePinned) {
  // Byte-identity pins for every payload encoder: one instance per message
  // type, every field distinct, so a field written in the wrong order or
  // width moves the digest.
  EXPECT_EQ(pin(svc::encode(svc::SubmitCampaign{distinct_spec()})),
            std::make_pair(std::size_t{196}, std::uint64_t{6563518893136349909ULL}));
  EXPECT_EQ(pin(svc::encode(svc::SubmitAck{0xA1B2C3D4E5F60718ULL, 37})),
            std::make_pair(std::size_t{12}, std::uint64_t{12266063222548876462ULL}));
  svc::PointResult pr;
  pr.campaign_id = 11;
  pr.index = 4;
  pr.key = 0x1122334455667788ULL;
  pr.digest = 0x99AABBCCDDEEFF00ULL;
  pr.source = svc::ResultSource::kCached;
  pr.blob = svc::encode_point(distinct_point());
  EXPECT_EQ(pin(svc::encode(pr)),
            std::make_pair(std::size_t{296}, std::uint64_t{4105494447278387873ULL}));
  EXPECT_EQ(pin(svc::encode(svc::CampaignDone{12, 9, 3, true})),
            std::make_pair(std::size_t{17}, std::uint64_t{10670164093030019196ULL}));
  EXPECT_EQ(pin(svc::encode(svc::CancelCampaign{0x0F0E0D0C0B0A0908ULL})),
            std::make_pair(std::size_t{8}, std::uint64_t{12798899912430635715ULL}));
  EXPECT_TRUE(svc::encode(svc::Stats{}).empty());
  svc::StatsReply reply;
  svc::ServiceStats& s = reply.stats;
  s.sessions_opened = 101;
  s.sessions_closed = 102;
  s.frames_in = 103;
  s.frames_out = 104;
  s.protocol_errors = 105;
  s.campaigns_submitted = 106;
  s.campaigns_accepted = 107;
  s.campaigns_rejected = 108;
  s.campaigns_completed = 109;
  s.campaigns_cancelled = 110;
  s.points_completed = 111;
  s.points_computed = 112;
  s.points_cached = 113;
  s.points_coalesced = 114;
  s.points_cancelled = 115;
  s.cache_lookups = 116;
  s.cache_hits = 117;
  s.cache_misses = 118;
  s.cache_entries = 119;
  EXPECT_EQ(pin(svc::encode(reply)),
            std::make_pair(std::size_t{152}, std::uint64_t{14973975457576769159ULL}));
  EXPECT_EQ(pin(svc::encode(svc::Error{svc::ErrorCode::kOverloaded, 2'500'000,
                                       "queue full: retry later"})),
            std::make_pair(std::size_t{37}, std::uint64_t{4510481629023185895ULL}));
}

TEST(ServiceWire, PointKeyIsPinned) {
  // The cache key is an Fnv64 over the canonical encoding of one point's
  // inputs; pinning it freezes that encoding (and every cache entry).
  const svc::CampaignSpec spec = distinct_spec();
  EXPECT_EQ(svc::point_key(spec, 0), 11653290426414425370ULL);
  EXPECT_EQ(svc::point_key(spec, 1), 13093776182942019769ULL);
}

TEST(ServiceWire, OutboxBytesArePinned) {
  // Every byte the service writes in a fixed scenario, pinned: frames built
  // in place and frames parsed straight from the fed bytes must reproduce
  // the stream of the copy-based service exactly. Three sessions: cold,
  // coalesced and cached points, a cancel, a bad-CRC frame, a byte-at-a-time
  // feed, frames split across feeds and a Stats request.
  svc::EvaldConfig config;
  config.threads = 1;
  config.batch_points = 4;
  svc::Evald evald{config};
  const svc::SessionId a = evald.open_session();
  const svc::SessionId b = evald.open_session();
  const svc::SessionId c = evald.open_session();
  std::vector<std::uint8_t> all;
  const auto take = [&](svc::SessionId sid) {
    const auto bytes = evald.take_output(sid);
    all.insert(all.end(), bytes.begin(), bytes.end());
    return bytes;
  };

  evald.feed(a, submit_bytes(make_spec(4)));
  for (const std::uint8_t byte : submit_bytes(make_spec(4))) evald.feed(b, &byte, 1);
  auto burst = submit_bytes(make_spec(1, 50));
  burst.back() ^= 0xFF;  // bad CRC: skipped, answered, stream recovers
  for (const auto& spec : {make_spec(3, 30), make_spec(2, 40)}) {
    const auto wire = submit_bytes(spec);
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  evald.feed(c, burst);
  (void)evald.pump();
  svc::SubmitAck last;
  for (const svc::Frame& f : svc::split_frames(take(c))) {
    if (f.type == svc::MsgType::kSubmitAck) {
      ASSERT_TRUE(svc::decode(f.payload, &last));
    }
  }
  evald.feed(c, frame_bytes(svc::MsgType::kCancelCampaign,
                            svc::encode(svc::CancelCampaign{last.campaign_id})));
  evald.drain();

  // Two frames split across three feeds: a partial header, then the rest of
  // one frame, a whole cached replay and the head of a Stats request.
  std::vector<std::uint8_t> stream = submit_bytes(make_spec(2, 30));
  const auto replay = submit_bytes(make_spec(4));
  const auto stats = frame_bytes(svc::MsgType::kStats, {});
  stream.insert(stream.end(), replay.begin(), replay.end());
  stream.insert(stream.end(), stats.begin(), stats.end());
  const std::size_t cut1 = 7;
  const std::size_t cut2 = stream.size() - 5;
  evald.feed(a, stream.data(), cut1);
  evald.feed(a, stream.data() + cut1, cut2 - cut1);
  evald.feed(a, stream.data() + cut2, stream.size() - cut2);
  evald.drain();
  evald.feed(b, stats);

  for (const svc::SessionId sid : {a, b, c}) {
    (void)take(sid);
    evald.close_session(sid);
  }
  evald.audit_quiescent();
  EXPECT_GT(evald.stats().points_coalesced, 0u);
  EXPECT_GT(evald.stats().points_cached, 0u);
  EXPECT_EQ(evald.stats().protocol_errors, 1u);
  EXPECT_EQ(pin(all), std::make_pair(std::size_t{5920}, std::uint64_t{370096867606279039ULL}));
}

TEST(ServiceDigest, CarriedDigestMatchesDecodedBlob) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  const auto spec = make_spec(2);
  evald.feed(sid, submit_bytes(spec));
  evald.drain();
  const auto results = points_of(collect(evald, sid));
  ASSERT_EQ(results.size(), 2u);
  const eval::CampaignConfig config = svc::to_campaign_config(spec);
  for (const svc::PointResult& r : results) {
    eval::CampaignPoint point;
    ASSERT_TRUE(svc::decode_point(r.blob, &point));
    EXPECT_EQ(eval::point_digest(config, point), r.digest);
    EXPECT_EQ(r.key, svc::point_key(spec, r.index));
  }
  evald.close_session(sid);
  evald.audit_quiescent();
}

// ------------------------------------------------------- cache semantics

TEST(ServiceCache, CrossSessionHitIsByteIdentical) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId a = evald.open_session();
  evald.feed(a, submit_bytes(make_spec(3)));
  evald.drain();
  const auto cold = points_of(collect(evald, a));
  ASSERT_EQ(cold.size(), 3u);
  for (const auto& r : cold) EXPECT_EQ(r.source, svc::ResultSource::kComputed);

  const svc::SessionId b = evald.open_session();
  evald.feed(b, submit_bytes(make_spec(3)));
  evald.drain();
  const auto warm = points_of(collect(evald, b));
  ASSERT_EQ(warm.size(), 3u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].source, svc::ResultSource::kCached);
    EXPECT_EQ(warm[i].key, cold[i].key);
    EXPECT_EQ(warm[i].digest, cold[i].digest);
    EXPECT_EQ(warm[i].blob, cold[i].blob);  // the byte-identity contract
  }
  const svc::ServiceStats& s = evald.stats();
  EXPECT_EQ(s.points_computed, 3u);
  EXPECT_EQ(s.points_cached, 3u);
  EXPECT_EQ(s.cache_hits, 3u);
  EXPECT_EQ(s.cache_entries, 3u);
  evald.close_session(a);
  evald.close_session(b);
  evald.audit_quiescent();
}

TEST(ServiceCache, InflightRequestsCoalesce) {
  // Both sessions submit the same spec before any scheduling round: the
  // first selection of each key computes, the second waits on the in-flight
  // result instead of recomputing.
  svc::Evald evald{{.threads = 2}};
  const svc::SessionId a = evald.open_session();
  const svc::SessionId b = evald.open_session();
  evald.feed(a, submit_bytes(make_spec(3)));
  evald.feed(b, submit_bytes(make_spec(3)));
  evald.drain();
  const auto ra = points_of(collect(evald, a));
  const auto rb = points_of(collect(evald, b));
  ASSERT_EQ(ra.size(), 3u);
  ASSERT_EQ(rb.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ra[i].source, svc::ResultSource::kComputed);
    EXPECT_EQ(rb[i].source, svc::ResultSource::kCoalesced);
    EXPECT_EQ(ra[i].blob, rb[i].blob);
  }
  const svc::ServiceStats& s = evald.stats();
  EXPECT_EQ(s.points_computed, 3u);
  EXPECT_EQ(s.points_coalesced, 3u);
  EXPECT_EQ(s.points_cached, 0u);
  EXPECT_EQ(s.cache_misses, 6u);  // every selection missed; half coalesced
  evald.close_session(a);
  evald.close_session(b);
  evald.audit_quiescent();
}

TEST(ServiceCache, CancelQueuedCampaign) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(4)));
  auto frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  svc::SubmitAck ack;
  ASSERT_TRUE(svc::decode(frames[0].payload, &ack));
  evald.feed(sid, frame_bytes(svc::MsgType::kCancelCampaign,
                              svc::encode(svc::CancelCampaign{ack.campaign_id})));
  frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, svc::MsgType::kCampaignDone);
  svc::CampaignDone done;
  ASSERT_TRUE(svc::decode(frames[0].payload, &done));
  EXPECT_TRUE(done.was_cancelled);
  EXPECT_EQ(done.completed, 0u);
  EXPECT_EQ(done.cancelled, 4u);
  EXPECT_EQ(evald.pending_points(), 0u);
  EXPECT_EQ(evald.stats().points_cancelled, 4u);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceCache, CancelPartwayLeavesCacheConsistent) {
  svc::EvaldConfig config;
  config.threads = 1;
  config.batch_points = 1;  // one point per round, so a cancel lands mid-campaign
  svc::Evald evald{config};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(3)));
  (void)evald.pump();  // computes exactly point 0
  auto frames = collect(evald, sid);
  svc::SubmitAck ack;
  ASSERT_TRUE(svc::decode(frames[0].payload, &ack));
  const auto delivered = points_of(frames);
  ASSERT_EQ(delivered.size(), 1u);
  evald.feed(sid, frame_bytes(svc::MsgType::kCancelCampaign,
                              svc::encode(svc::CancelCampaign{ack.campaign_id})));
  frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  svc::CampaignDone done;
  ASSERT_TRUE(svc::decode(frames[0].payload, &done));
  EXPECT_TRUE(done.was_cancelled);
  EXPECT_EQ(done.completed, 1u);
  EXPECT_EQ(done.cancelled, 2u);
  // The completed point's cache entry survived the cancellation: a fresh
  // session is served from cache, byte-identically.
  const svc::SessionId other = evald.open_session();
  evald.feed(other, submit_bytes(make_spec(3)));
  evald.drain();
  const auto warm = points_of(collect(evald, other));
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(warm[0].source, svc::ResultSource::kCached);
  EXPECT_EQ(warm[0].blob, delivered[0].blob);
  EXPECT_EQ(warm[1].source, svc::ResultSource::kComputed);
  evald.close_session(sid);
  evald.close_session(other);
  evald.audit_quiescent();
}

TEST(ServiceCache, CancelUnknownOrForeignCampaign) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId a = evald.open_session();
  const svc::SessionId b = evald.open_session();
  evald.feed(a, submit_bytes(make_spec(1)));
  auto frames = collect(evald, a);
  svc::SubmitAck ack;
  ASSERT_TRUE(svc::decode(frames[0].payload, &ack));
  // Unknown id.
  evald.feed(a, frame_bytes(svc::MsgType::kCancelCampaign,
                            svc::encode(svc::CancelCampaign{999})));
  EXPECT_EQ(only_error(collect(evald, a)).code, svc::ErrorCode::kUnknownCampaign);
  // Another session's campaign is invisible to b.
  evald.feed(b, frame_bytes(svc::MsgType::kCancelCampaign,
                            svc::encode(svc::CancelCampaign{ack.campaign_id})));
  EXPECT_EQ(only_error(collect(evald, b)).code, svc::ErrorCode::kUnknownCampaign);
  evald.drain();
  evald.close_session(a);
  evald.close_session(b);
  evald.audit_quiescent();
}

TEST(ServiceCache, CloseSessionCancelsItsQueuedWork) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(5)));
  evald.close_session(sid);  // no pump ever ran
  EXPECT_EQ(evald.pending_points(), 0u);
  EXPECT_EQ(evald.stats().points_cancelled, 5u);
  EXPECT_EQ(evald.stats().campaigns_cancelled, 1u);
  evald.audit_quiescent();
}

// -------------------------------------------------- admission & fairness

TEST(ServiceAdmission, RejectsAtTheDoorWithDeterministicRetryAfter) {
  svc::EvaldConfig config;
  config.threads = 1;
  config.max_queue_points = 4;
  config.retry_after_floor_ns = 1000;
  config.per_point_cost_hint_ns = 500;
  svc::Evald evald{config};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(3)));
  ASSERT_EQ(collect(evald, sid)[0].type, svc::MsgType::kSubmitAck);
  // 3 queued + 3 requested > 4 → rejected, hint = floor + 3 × cost.
  evald.feed(sid, submit_bytes(make_spec(3, 10)));
  const svc::Error err = only_error(collect(evald, sid));
  EXPECT_EQ(err.code, svc::ErrorCode::kOverloaded);
  EXPECT_EQ(err.retry_after_ns, 1000u + 3u * 500u);
  EXPECT_EQ(evald.stats().campaigns_rejected, 1u);
  // After the backlog drains the same submit is accepted.
  evald.drain();
  (void)evald.take_output(sid);  // discard the first campaign's results
  evald.feed(sid, submit_bytes(make_spec(3, 10)));
  EXPECT_EQ(collect(evald, sid)[0].type, svc::MsgType::kSubmitAck);
  evald.drain();
  (void)evald.take_output(sid);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceScheduler, RoundRobinWithInflightCapKeepsSmallCampaignsLive) {
  // A first-come 8-point campaign must not monopolize the round: with a
  // per-session cap of 2 and a batch of 4, the later 2-point campaign
  // finishes in the very first round.
  svc::EvaldConfig config;
  config.threads = 1;
  config.batch_points = 4;
  config.session_inflight_cap = 2;
  svc::Evald evald{config};
  const svc::SessionId big = evald.open_session();
  const svc::SessionId small = evald.open_session();
  evald.feed(big, submit_bytes(make_spec(8)));
  evald.feed(small, submit_bytes(make_spec(2, 20)));
  (void)evald.pump();
  const auto big_frames = collect(evald, big);
  const auto small_frames = collect(evald, small);
  EXPECT_EQ(points_of(big_frames).size(), 2u);   // capped
  EXPECT_EQ(points_of(small_frames).size(), 2u); // complete
  bool small_done = false;
  for (const auto& f : small_frames)
    if (f.type == svc::MsgType::kCampaignDone) small_done = true;
  EXPECT_TRUE(small_done);
  evald.drain();
  EXPECT_EQ(points_of(collect(evald, big)).size(), 6u);
  (void)evald.take_output(big);
  evald.close_session(big);
  evald.close_session(small);
  evald.audit_quiescent();
}

TEST(ServiceScheduler, InflightCapBindsBeforeTheBatchFills) {
  // A lone session gets at most session_inflight_cap points per round even
  // when the batch has room for more.
  svc::EvaldConfig config;
  config.threads = 1;
  config.batch_points = 8;
  config.session_inflight_cap = 3;
  svc::Evald evald{config};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(7)));
  for (const std::size_t expected : {3u, 3u, 1u}) {
    EXPECT_EQ(evald.pump(), expected == 3u);
    EXPECT_EQ(points_of(collect(evald, sid)).size(), expected);
  }
  evald.close_session(sid);
  evald.audit_quiescent();
}

// ------------------------------------------------ determinism & accounting

TEST(ServiceDeterminism, OutputBytesInvariantAcrossThreadCounts) {
  // The full server→client byte stream of a mixed scenario — submissions,
  // partial rounds, a cancel, cache hits and coalescing — must be identical
  // at 1, 2, and 8 worker threads.
  const auto run = [](int threads) {
    svc::EvaldConfig config;
    config.threads = threads;
    config.batch_points = 4;
    svc::Evald evald{config};
    const svc::SessionId a = evald.open_session();
    const svc::SessionId b = evald.open_session();
    const svc::SessionId c = evald.open_session();
    evald.feed(a, submit_bytes(make_spec(4)));
    evald.feed(b, submit_bytes(make_spec(4)));      // coalesces with a
    evald.feed(c, submit_bytes(make_spec(3, 30)));  // disjoint keys
    (void)evald.pump();
    evald.feed(c, submit_bytes(make_spec(2, 40)));
    auto frames = collect(evald, c);
    svc::SubmitAck ack;  // cancel c's *second* campaign mid-flight
    for (const auto& f : frames) {
      if (f.type == svc::MsgType::kSubmitAck) {
        EXPECT_TRUE(svc::decode(f.payload, &ack));
      }
    }
    evald.feed(c, frame_bytes(svc::MsgType::kCancelCampaign,
                              svc::encode(svc::CancelCampaign{ack.campaign_id})));
    evald.drain();
    evald.feed(a, submit_bytes(make_spec(4)));  // fully cached replay
    evald.drain();
    std::vector<std::uint8_t> all;
    for (const svc::SessionId sid : {a, b, c}) {
      // Frames already taken mid-scenario for c are not replayed; what
      // matters is that the remaining stream and counters agree.
      const auto rest = evald.take_output(sid);
      all.insert(all.end(), rest.begin(), rest.end());
      evald.close_session(sid);
    }
    evald.audit_quiescent();
    return std::make_pair(all, evald.stats());
  };
  const auto [bytes1, stats1] = run(1);
  const auto [bytes2, stats2] = run(2);
  const auto [bytes8, stats8] = run(8);
  EXPECT_EQ(bytes1, bytes2);
  EXPECT_EQ(bytes1, bytes8);
  EXPECT_EQ(stats1, stats2);
  EXPECT_EQ(stats1, stats8);
  EXPECT_GT(stats1.points_coalesced, 0u);
  EXPECT_GT(stats1.points_cached, 0u);
}

TEST(ServiceStats, StatsRequestSnapshotsCounters) {
  svc::Evald evald{{.threads = 1}};
  const svc::SessionId sid = evald.open_session();
  evald.feed(sid, submit_bytes(make_spec(2)));
  evald.drain();
  (void)evald.take_output(sid);
  evald.feed(sid, frame_bytes(svc::MsgType::kStats, {}));
  const auto frames = collect(evald, sid);
  ASSERT_EQ(frames.size(), 1u);
  svc::StatsReply reply;
  ASSERT_TRUE(svc::decode(frames[0].payload, &reply));
  EXPECT_EQ(reply.stats.sessions_opened, 1u);
  EXPECT_EQ(reply.stats.campaigns_completed, 1u);
  EXPECT_EQ(reply.stats.points_completed, 2u);
  EXPECT_EQ(reply.stats.points_computed, 2u);
  // The snapshot was taken before the reply frame was emitted.
  EXPECT_EQ(reply.stats.frames_out, evald.stats().frames_out - 1);
  evald.close_session(sid);
  evald.audit_quiescent();
}

TEST(ServiceAudit, AccountingExactAfterMixedLoad) {
  svc::Evald evald{{.threads = 2}};
  std::vector<svc::SessionId> ids;
  for (std::uint32_t s = 0; s < 12; ++s) {
    const svc::SessionId sid = evald.open_session();
    ids.push_back(sid);
    evald.feed(sid, submit_bytes(make_spec(2 + s % 3, s % 4)));
    if (s % 3 == 2) (void)evald.pump();
  }
  evald.drain();
  const svc::ServiceStats& s = evald.stats();
  EXPECT_EQ(s.cache_lookups, s.cache_hits + s.cache_misses);
  EXPECT_EQ(s.cache_misses, s.points_computed + s.points_coalesced);
  EXPECT_EQ(s.points_completed, s.points_computed + s.points_cached + s.points_coalesced);
  EXPECT_GT(s.cache_hits, 0u);
  for (const svc::SessionId sid : ids) {
    (void)evald.take_output(sid);
    evald.close_session(sid);
  }
  evald.audit_quiescent();
}

}  // namespace
