// Mutation fuzzer for the untrusted-input decoders (label `fuzz`):
// Trace::try_read_binary and every svc payload decoder, each against the
// decoder it replaced (codec_oracle.hpp); and, against their contracts, the
// svc frame scanner next_frame, the size-string parser parse_bytes, the
// workload DSL parser parse_dsl and the H5-lite header parser behind
// H5File::open_all.
//
// Each target starts from a corpus the library itself encodes and applies
// kMutationsPerTarget (20,000) seeded mutations, or PIO_FUZZ_ITERS when that
// is set (the sanitizer CI leg runs 100,000): bit flips, truncations,
// splices of two corpus entries, and overwrites of a length or count field
// with a hostile value. Both decoders see every mutant; they must accept exactly
// the same inputs and decode equal values. The one sanctioned difference:
// the trace decoder rejects layer and op bytes outside their enums, which
// the oracle cast straight into events. The seed is a constant, so a
// failure reproduces bit for bit; a crash or sanitizer report is a bug in
// the decoder under test.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codec_oracle.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "eval/campaign.hpp"
#include "h5/h5.hpp"
#include "par/comm.hpp"
#include "svc/messages.hpp"
#include "trace/tracer.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"
#include "workload/dsl.hpp"

using namespace pio;

namespace {

constexpr std::uint64_t kFuzzSeed = 0xF022'C0DE'C5EEDULL;
constexpr int kMutationsPerTarget = 20'000;

/// Mutations per target: PIO_FUZZ_ITERS when set, else kMutationsPerTarget.
/// A value that is not a positive count fails the test that reads it.
int mutations() {
  static const int count = [] {
    const char* env = std::getenv("PIO_FUZZ_ITERS");
    if (env == nullptr || *env == '\0') return kMutationsPerTarget;
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (*end != '\0' || n <= 0 || n > 100'000'000) {
      throw std::invalid_argument(std::string("PIO_FUZZ_ITERS is not a positive count: ") + env);
    }
    return static_cast<int>(n);
  }();
  return count;
}

using Bytes8 = std::vector<std::uint8_t>;

/// A length or count field of a corpus entry: its offset and width.
struct LengthField {
  std::size_t offset = 0;
  std::size_t width = 4;
};

struct Seed {
  Bytes8 bytes;
  std::vector<LengthField> lengths;
};

void put_le(Bytes8& b, LengthField f, std::uint64_t v) {
  for (std::size_t i = 0; i < f.width && f.offset + i < b.size(); ++i) {
    b[f.offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// One seeded mutation of a corpus entry (one to three stacked edits).
Bytes8 mutate(Rng& rng, const std::vector<Seed>& corpus) {
  const Seed& seed = corpus[rng.next_below(corpus.size())];
  Bytes8 b = seed.bytes;
  const std::uint64_t edits = 1 + rng.next_below(3);
  for (std::uint64_t k = 0; k < edits; ++k) {
    switch (rng.next_below(4)) {
      case 0: {  // bit flips
        const std::uint64_t flips = 1 + rng.next_below(4);
        for (std::uint64_t f = 0; f < flips && !b.empty(); ++f) {
          b[rng.next_below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncation
        b.resize(rng.next_below(b.size() + 1));
        break;
      case 2: {  // splice: a prefix of this entry, a suffix of another
        const Bytes8& other = corpus[rng.next_below(corpus.size())].bytes;
        const std::size_t cut = rng.next_below(b.size() + 1);
        const std::size_t from = rng.next_below(other.size() + 1);
        b.resize(cut);
        b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
        break;
      }
      default: {  // length/count field overwritten with a hostile value
        LengthField f;
        if (!seed.lengths.empty() && rng.chance(0.8)) {
          f = seed.lengths[rng.next_below(seed.lengths.size())];
        } else if (!b.empty()) {
          f = {rng.next_below(b.size()), rng.chance(0.5) ? 4u : 8u};
        }
        const std::uint64_t size = b.size();
        const std::uint64_t hostile[] = {0,        1,         2,          size / 48,
                                         size / 4, size - 1,  size,       size + 1,
                                         0xFFu,    0xFFFFu,   0x7FFFFFFFu, 0xFFFFFFFFu,
                                         1ULL << 32, ~0ULL,   rng.next_u64()};
        put_le(b, f, hostile[rng.next_below(std::size(hostile))]);
        break;
      }
    }
  }
  return b;
}

std::string hex_prefix(const Bytes8& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < b.size() && i < 64; ++i) {
    out += kDigits[b[i] >> 4];
    out += kDigits[b[i] & 0xF];
  }
  return out + (b.size() > 64 ? "..." : "") + " (" + std::to_string(b.size()) + " bytes)";
}

/// Accept/reject tallies, so a run that never reaches one side fails.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

void expect_both_sides(const Tally& t) {
  // A corpus or mutator that only ever produces garbage (or only clean
  // inputs) would make agreement vacuous.
  EXPECT_GT(t.accepted, mutations() / 100);
  EXPECT_GT(t.rejected, mutations() / 100);
}

// ------------------------------------------------------------------ trace

trace::TraceEvent event(trace::Layer layer, trace::OpKind op, std::int32_t rank, std::string path,
                        std::uint64_t offset, std::uint64_t size, std::int64_t start,
                        std::int64_t end, bool ok) {
  trace::TraceEvent e;
  e.layer = layer;
  e.op = op;
  e.rank = rank;
  e.path = std::move(path);
  e.offset = offset;
  e.size = size;
  e.start = SimTime::from_ns(start);
  e.end = SimTime::from_ns(end);
  e.ok = ok;
  return e;
}

/// A written trace plus the offsets of its path count, path lengths and
/// event count.
Seed trace_seed(const trace::Trace& t) {
  std::stringstream out;
  t.write_binary(out);
  const std::string s = out.str();
  Seed seed{Bytes8(s.begin(), s.end()), {{8, 4}}};
  std::vector<std::string> table;
  for (const auto& e : t.events()) {
    if (std::find(table.begin(), table.end(), e.path) == table.end()) table.push_back(e.path);
  }
  std::size_t at = 12;
  for (const auto& path : table) {
    seed.lengths.push_back({at, 4});
    at += 4 + path.size();
  }
  seed.lengths.push_back({at, 8});
  return seed;
}

std::vector<Seed> trace_corpus() {
  using trace::Layer;
  using trace::OpKind;
  std::vector<Seed> corpus;
  corpus.push_back(trace_seed(trace::Trace{}));
  trace::Trace one;
  one.append(event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 1, 0, 1, true));
  corpus.push_back(trace_seed(one));
  trace::Trace mixed;
  mixed.append(event(Layer::kApp, OpKind::kOpen, 3, "/data/a", 0, 0, 10, 20, true));
  mixed.append(event(Layer::kHdf5, OpKind::kWrite, -1, "", 1ULL << 40, 4096, 30, 45, false));
  mixed.append(event(Layer::kCache, OpKind::kOther, 7, "/x \"q\"\n", 5, 6, -8, 9, true));
  mixed.append(event(Layer::kMpiIo, OpKind::kRead, 2, "/data/a", 99, 1 << 20, 50, 60, true));
  corpus.push_back(trace_seed(mixed));
  // Draws land in locals first: argument evaluation order is unspecified.
  Rng rng{kFuzzSeed, 99};
  trace::Trace wide;
  for (int i = 0; i < 12; ++i) {
    const auto layer = static_cast<Layer>(rng.next_below(5));
    const auto op = static_cast<OpKind>(rng.next_below(11));
    const auto rank = static_cast<std::int32_t>(rng.next_below(64));
    const std::string path = "/p" + std::to_string(rng.next_below(5));
    const std::uint64_t offset = rng.next_u64();
    const std::uint64_t size = rng.next_below(1 << 22);
    const auto start = static_cast<std::int64_t>(rng.next_below(1'000'000));
    const auto end = start + static_cast<std::int64_t>(rng.next_below(10'000));
    wide.append(event(layer, op, rank, path, offset, size, start, end, rng.chance(0.9)));
  }
  corpus.push_back(trace_seed(wide));
  return corpus;
}

bool same_events(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    if (x.layer != y.layer || x.op != y.op || x.rank != y.rank || x.path != y.path ||
        x.offset != y.offset || x.size != y.size || x.start != y.start || x.end != y.end ||
        x.ok != y.ok) {
      return false;
    }
  }
  return true;
}

bool has_out_of_range_enum(const trace::Trace& t) {
  for (const auto& e : t.events()) {
    if (static_cast<std::uint8_t>(e.layer) > static_cast<std::uint8_t>(trace::Layer::kCache) ||
        static_cast<std::uint8_t>(e.op) > static_cast<std::uint8_t>(trace::OpKind::kOther)) {
      return true;
    }
  }
  return false;
}

TEST(CodecFuzz, TraceBinaryMatchesOracle) {
  const std::vector<Seed> corpus = trace_corpus();
  Rng rng{kFuzzSeed, 0};
  Tally tally;
  int enum_rejections = 0;
  for (int i = 0; i < mutations(); ++i) {
    const Bytes8 input = mutate(rng, corpus);
    const std::string text(input.begin(), input.end());
    std::stringstream oracle_in(text);
    std::stringstream library_in(text);
    const auto expected = trace::oracle::try_read_binary(oracle_in);
    const auto actual = trace::Trace::try_read_binary(library_in);
    if (expected.ok() && !actual.ok() && has_out_of_range_enum(expected.value())) {
      // The sanctioned difference: an enum byte the oracle let through.
      ASSERT_NE(actual.error().message.find("unknown"), std::string::npos)
          << actual.error().message << " on " << hex_prefix(input);
      ++enum_rejections;
      ++tally.rejected;
      continue;
    }
    ASSERT_EQ(actual.ok(), expected.ok())
        << "mutation " << i << ": oracle "
        << (expected.ok() ? "accepted" : expected.error().message) << ", library "
        << (actual.ok() ? "accepted" : actual.error().message) << " on " << hex_prefix(input);
    if (!actual.ok()) {
      ++tally.rejected;
      continue;
    }
    ++tally.accepted;
    ASSERT_TRUE(same_events(actual.value(), expected.value()))
        << "mutation " << i << " decoded differently: " << hex_prefix(input);
  }
  expect_both_sides(tally);
  EXPECT_GT(enum_rejections, 0);
}

// -------------------------------------------------------------------- svc

/// Fuzz one decoder against its oracle. Decoded values are compared
/// through the (byte-pinned) encoder, which also compares NaN calibrations
/// bit for bit.
template <class M, class Oracle, class Library, class Encode>
void fuzz_decoder(std::uint64_t stream, const std::vector<Seed>& corpus, Oracle oracle,
                  Library library, Encode encode) {
  Rng rng{kFuzzSeed, stream};
  Tally tally;
  for (int i = 0; i < mutations(); ++i) {
    const Bytes8 input = mutate(rng, corpus);
    M expected{};
    M actual{};
    const bool oracle_ok = oracle(input, &expected);
    const bool library_ok = library(input, &actual);
    ASSERT_EQ(library_ok, oracle_ok) << "mutation " << i << " on " << hex_prefix(input);
    if (!library_ok) {
      ++tally.rejected;
      continue;
    }
    ++tally.accepted;
    ASSERT_EQ(encode(actual), encode(expected))
        << "mutation " << i << " decoded differently: " << hex_prefix(input);
  }
  expect_both_sides(tally);
}

/// Fuzz one svc payload type's decode overload.
template <class M>
void fuzz_payload(std::uint64_t stream, const std::vector<Seed>& corpus) {
  fuzz_decoder<M>(
      stream, corpus, [](const Bytes8& b, M* m) { return svc::oracle::decode(b, m); },
      [](const Bytes8& b, M* m) { return svc::decode(b, m); },
      [](const M& m) { return svc::encode(m); });
}

eval::CampaignPoint sample_point(std::string name, std::uint64_t salt) {
  eval::CampaignPoint p;
  p.workload = std::move(name);
  p.measured = SimTime::from_ns(static_cast<std::int64_t>(1000 + salt));
  p.simulated_raw = SimTime::from_ns(static_cast<std::int64_t>(900 + salt));
  p.predicted = SimTime::from_ns(-static_cast<std::int64_t>(salt));
  std::uint64_t v = salt;
  driver::for_each_counter(p, [&v](std::string_view, auto& c) { driver::set_counter(c, ++v); });
  return p;
}

svc::CampaignSpec sample_spec(std::uint32_t workloads) {
  svc::CampaignSpec spec;
  spec.seed = 7 + workloads;
  spec.calibration = 0.9;
  spec.testbed = {4, 2, 4, 1};
  spec.model = {8, 3, 2, 0};
  for (std::uint32_t j = 0; j < workloads; ++j) {
    svc::WorkloadSpec w;
    w.kind = static_cast<svc::WorkloadKind>(1 + j % 3);
    w.ranks = 2 + j;
    w.read_phase = j % 2 == 0;
    w.shuffle = j % 2 == 1;
    spec.workloads.push_back(w);
  }
  return spec;
}

/// Offset of the workload count in an encoded SubmitCampaign: seed (8),
/// calibration (8), then two 13-byte systems.
constexpr std::size_t kWorkloadCountAt = 8 + 8 + 13 + 13;
/// Offset of the blob length in an encoded PointResult.
constexpr std::size_t kBlobLengthAt = 8 + 4 + 8 + 8 + 1;
/// Offset of the detail length in an encoded Error.
constexpr std::size_t kDetailLengthAt = 2 + 8;

TEST(CodecFuzz, SubmitCampaignMatchesOracle) {
  std::vector<Seed> corpus;
  for (const std::uint32_t n : {0u, 1u, 2u, 5u}) {
    corpus.push_back({svc::encode(svc::SubmitCampaign{sample_spec(n)}), {{kWorkloadCountAt, 4}}});
  }
  fuzz_payload<svc::SubmitCampaign>(1, corpus);
}

TEST(CodecFuzz, SubmitAckMatchesOracle) {
  fuzz_payload<svc::SubmitAck>(2, {{svc::encode(svc::SubmitAck{42, 7}), {}},
                                   {svc::encode(svc::SubmitAck{~0ULL, 0}), {}}});
}

TEST(CodecFuzz, PointResultMatchesOracle) {
  std::vector<Seed> corpus;
  for (std::uint8_t source = 0; source < 3; ++source) {
    svc::PointResult pr;
    pr.campaign_id = 3 + source;
    pr.index = source;
    pr.key = 0xDEADBEEFu;
    pr.digest = 0xFEEDFACEu;
    pr.source = static_cast<svc::ResultSource>(source);
    if (source > 0) pr.blob = svc::encode_point(sample_point("ior[r=4]", source));
    corpus.push_back({svc::encode(pr), {{kBlobLengthAt, 4}}});
  }
  fuzz_payload<svc::PointResult>(3, corpus);
}

TEST(CodecFuzz, CampaignDoneMatchesOracle) {
  fuzz_payload<svc::CampaignDone>(4, {{svc::encode(svc::CampaignDone{11, 4, 2, true}), {}},
                                      {svc::encode(svc::CampaignDone{1, 0, 0, false}), {}}});
}

TEST(CodecFuzz, CancelCampaignMatchesOracle) {
  fuzz_payload<svc::CancelCampaign>(5, {{svc::encode(svc::CancelCampaign{11}), {}}});
}

TEST(CodecFuzz, StatsMatchesOracle) {
  // Only the empty payload is valid, and every mutant of it is empty too:
  // a one-byte entry gives the mutator inputs to reject.
  fuzz_payload<svc::Stats>(6, {{svc::encode(svc::Stats{}), {}}, {Bytes8{0}, {}}});
}

TEST(CodecFuzz, StatsReplyMatchesOracle) {
  svc::StatsReply reply;
  std::uint64_t v = 100;
  for (std::uint64_t* c : {&reply.stats.sessions_opened, &reply.stats.frames_in,
                           &reply.stats.points_completed, &reply.stats.cache_entries}) {
    *c = ++v;
  }
  fuzz_payload<svc::StatsReply>(7, {{svc::encode(reply), {}},
                                    {svc::encode(svc::StatsReply{}), {}}});
}

TEST(CodecFuzz, ErrorMatchesOracle) {
  fuzz_payload<svc::Error>(
      8, {{svc::encode(svc::Error{svc::ErrorCode::kOverloaded, 2500, "queue full"}),
           {{kDetailLengthAt, 4}}},
          {svc::encode(svc::Error{svc::ErrorCode::kUnknownCampaign, 0, ""}),
           {{kDetailLengthAt, 4}}},
          {svc::encode(svc::Error{svc::ErrorCode::kNone, 1, std::string(300, 'x')}),
           {{kDetailLengthAt, 4}}}});
}

TEST(CodecFuzz, PointBlobMatchesOracle) {
  const std::vector<Seed> corpus{{svc::encode_point(sample_point("golden[r=4]", 1)), {{0, 4}}},
                                 {svc::encode_point(eval::CampaignPoint{}), {{0, 4}}},
                                 {svc::encode_point(sample_point(std::string(200, 'w'), 9)),
                                  {{0, 4}}}};
  fuzz_decoder<eval::CampaignPoint>(9, corpus, svc::oracle::decode_point, svc::decode_point,
                                    svc::encode_point);
}

// ---------------------------------------------------------- frame scanner

/// A stream of frames as append_frame writes them; each frame's length
/// field is a mutation target.
Seed frame_seed(const std::vector<std::pair<svc::MsgType, Bytes8>>& frames) {
  Seed seed;
  for (const auto& [type, payload] : frames) {
    seed.lengths.push_back({seed.bytes.size() + 8, 4});
    svc::append_frame(type, payload, seed.bytes);
  }
  return seed;
}

// next_frame never throws; it consumes at most the bytes given, and nothing
// except on kFrame and kBadCrc; a kFrame is exactly the bytes append_frame
// writes for its type and payload. Each mutant is scanned frame by frame
// until a status that does not advance.
TEST(CodecFuzz, NextFrameKeepsItsContract) {
  using svc::MsgType;
  svc::PointResult pr;
  pr.campaign_id = 3;
  pr.blob = svc::encode_point(sample_point("ior[r=4]", 2));
  const std::vector<Seed> corpus{
      frame_seed({{MsgType::kStats, {}}}),
      frame_seed({{MsgType::kSubmitAck, svc::encode(svc::SubmitAck{42, 7})}}),
      frame_seed({{MsgType::kError,
                   svc::encode(svc::Error{svc::ErrorCode::kOverloaded, 2500, "queue full"})},
                  {MsgType::kCancelCampaign, svc::encode(svc::CancelCampaign{11})}}),
      frame_seed({{MsgType::kSubmitCampaign, svc::encode(svc::SubmitCampaign{sample_spec(2)})},
                  {MsgType::kStats, {}},
                  {MsgType::kPointResult, svc::encode(pr)}})};
  Rng rng{kFuzzSeed, 10};
  Tally tally;  // by the status of each mutant's first frame
  int bad_crc = 0;
  for (int i = 0; i < mutations(); ++i) {
    const Bytes8 input = mutate(rng, corpus);
    std::size_t pos = 0;
    for (bool first = true;; first = false) {
      const std::size_t n = input.size() - pos;
      svc::Frame frame;
      std::size_t consumed = n + 1;
      svc::FrameStatus status{};
      ASSERT_NO_THROW(status = svc::next_frame(input.data() + pos, n, &consumed, &frame))
          << "mutation " << i << " at byte " << pos << " of " << hex_prefix(input);
      ASSERT_LE(consumed, n) << "mutation " << i << " on " << hex_prefix(input);
      if (first) ++(status == svc::FrameStatus::kFrame ? tally.accepted : tally.rejected);
      if (status == svc::FrameStatus::kFrame) {
        Bytes8 rewritten;
        svc::append_frame(frame.type, frame.payload, rewritten);
        const auto at = input.begin() + static_cast<std::ptrdiff_t>(pos);
        ASSERT_EQ(rewritten, Bytes8(at, at + static_cast<std::ptrdiff_t>(consumed)))
            << "mutation " << i << " at byte " << pos << " of " << hex_prefix(input);
      } else if (status == svc::FrameStatus::kBadCrc) {
        ASSERT_GE(consumed, svc::kHeaderBytes) << "mutation " << i << " on " << hex_prefix(input);
        ++bad_crc;
      } else {
        ASSERT_EQ(consumed, 0u) << "mutation " << i << " on " << hex_prefix(input);
        break;
      }
      pos += consumed;
    }
  }
  expect_both_sides(tally);
  EXPECT_GT(bad_crc, mutations() / 100);
}

// ------------------------------------------------------------ size strings

// parse_bytes returns a value or throws std::invalid_argument, nothing else.
TEST(CodecFuzz, ParseBytesThrowsOnlyInvalidArgument) {
  std::vector<Seed> corpus;
  for (const std::string_view text :
       {"512", "512B", "64KiB", "4 MiB", "1gib", " 7 kb ", "0", "12parsecs", "abc",
        "18446744073709551615", "17179869183GiB", "16777215 m"}) {
    corpus.push_back({Bytes8(text.begin(), text.end()), {}});
  }
  Rng rng{kFuzzSeed, 11};
  Tally tally;
  for (int i = 0; i < mutations(); ++i) {
    const Bytes8 input = mutate(rng, corpus);
    const std::string text(input.begin(), input.end());
    try {
      (void)parse_bytes(text);
      ++tally.accepted;
    } catch (const std::invalid_argument&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw \"" << e.what() << "\" on " << hex_prefix(input);
    }
  }
  expect_both_sides(tally);
}

// ------------------------------------------------------------ workload DSL

// parse_dsl returns a workload or throws workload::DslError, nothing else.
// The corpus is the programs test_workload and test_replay parse, valid and
// rejected, plus the overflow regression seeds.
TEST(CodecFuzz, ParseDslThrowsOnlyDslError) {
  std::vector<Seed> corpus;
  for (const std::string_view text : {
           R"(name "demo"
ranks 3
mkdir "/out"
barrier
create "/out/f.{rank}"
loop i 2 {
  write "/out/f.{rank}" at i * 1MiB size 64KiB
  compute 5ms
}
close "/out/f.{rank}")",
           "ranks 4\nwrite \"/f\" at (rank * 2 + 1) * 1KiB size 2KiB + 512",
           "ranks 2\nwrite \"/f\" at 0",
           "ranks 0",
           "write \"/f\" at 0 size 1",
           "ranks 1\nbogus",
           "ranks 1\nread \"/f\" at rank size oops2",
           "ranks 1\nloop i 2 { loop i 2 { barrier } }",
           "ranks 1\ncompute 5parsecs",
           "ranks 1\nwrite \"/f\" at 1/0 size 4",
           R"(name "fpp"
ranks 4
create "/out/f.{rank}"
loop i 8 {
  write "/out/f.{rank}" at i * 1MiB size 1MiB
}
close "/out/f.{rank}")",
           "name \"shared\"\nranks 4\nopen \"/shared\"\n"
           "write \"/shared\" at rank * 4MiB size 4MiB\nclose \"/shared\"",
           "name \"quadratic\"\nranks 4\nwrite \"/f\" at rank * rank * 1KiB size 1KiB",
           "ranks 99999999999999999999",
           "ranks 9999999999GiB",
           "ranks 1\nwrite \"/f\" at 0 size (4611686018427387904 * 4)",
           "ranks 1\ncompute (0 - 9223372036854775807 - 1) / (0 - 1)",
       }) {
    corpus.push_back({Bytes8(text.begin(), text.end()), {}});
  }
  Rng rng{kFuzzSeed, 12};
  Tally tally;
  for (int i = 0; i < mutations(); ++i) {
    const Bytes8 input = mutate(rng, corpus);
    const std::string text(input.begin(), input.end());
    try {
      (void)workload::parse_dsl(text);
      ++tally.accepted;
    } catch (const workload::DslError&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw \"" << e.what() << "\" on " << hex_prefix(input);
    }
  }
  expect_both_sides(tally);
}

// ------------------------------------------------------------ H5 headers

/// Replaces `path` with exactly `bytes` (no padding to the header size).
void put_file(vfs::Backend& backend, const std::string& path, const Bytes8& bytes) {
  auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, true, true});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(backend.pwrite(fd.value(), std::as_bytes(std::span{bytes}), 0).ok());
  ASSERT_EQ(backend.close(fd.value()), vfs::FsStatus::kOk);
}

/// The header text close_all wrote to `path`: the bytes before the padding.
Bytes8 header_of(vfs::Backend& backend, const std::string& path) {
  Bytes8 bytes(h5::H5File::kHeaderSize);
  auto fd = backend.open(path, {vfs::OpenMode::kRead, false, false});
  EXPECT_TRUE(fd.ok());
  auto r = backend.pread(fd.value(), std::as_writable_bytes(std::span{bytes}), 0);
  EXPECT_TRUE(r.ok());
  (void)backend.close(fd.value());
  bytes.resize(static_cast<std::size_t>(std::find(bytes.begin(), bytes.end(), 0) - bytes.begin()));
  return bytes;
}

// H5File::open_all returns a file or an Error on any header, and never
// throws. The corpus is headers close_all wrote: groups, contiguous and
// chunked datasets, and attributes whose values need escaping.
TEST(CodecFuzz, H5OpenReturnsOnlyResult) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    std::vector<Seed> corpus;
    const auto write_header = [&](const auto& fill) {
      auto file = h5::H5File::create_all(comm, backend, "/corpus.h5");
      ASSERT_TRUE(file.ok());
      fill(*file.value());
      ASSERT_EQ(file.value()->close_all(), vfs::FsStatus::kOk);
      corpus.push_back({header_of(backend, "/corpus.h5"), {}});
    };
    write_header([](h5::H5File&) {});
    write_header([](h5::H5File& f) {
      ASSERT_TRUE(f.create_group("/fields").ok());
      ASSERT_TRUE(f.create_dataset("/fields/rho", 8, h5::Dataspace{{32, 32}}, {8, 8}).ok());
      ASSERT_TRUE(f.set_attribute("/fields/rho", "units", "g / cm^3").ok());
      ASSERT_TRUE(f.set_attribute("/", "creator", "pioeval 100% test\tool").ok());
    });
    write_header([](h5::H5File& f) {
      ASSERT_TRUE(f.create_dataset("/u", 4, h5::Dataspace{{16, 16, 4}}).ok());
      ASSERT_TRUE(f.create_dataset("/v", 2, h5::Dataspace{{1000000}}, {4096}).ok());
      ASSERT_TRUE(f.set_attribute("/u", "note", "").ok());
      ASSERT_TRUE(f.set_attribute("/v", "step", "18446744073709551615").ok());
    });
    Rng rng{kFuzzSeed, 13};
    Tally tally;
    for (int i = 0; i < mutations(); ++i) {
      const Bytes8 input = mutate(rng, corpus);
      put_file(backend, "/mutant.h5", input);
      try {
        auto file = h5::H5File::open_all(comm, backend, "/mutant.h5");
        ++(file.ok() ? tally.accepted : tally.rejected);
      } catch (const std::exception& e) {
        FAIL() << "mutation " << i << " threw \"" << e.what() << "\" on " << hex_prefix(input);
      }
    }
    expect_both_sides(tally);
  });
}

}  // namespace
