// Unit tests for tracing, profiling, the backend shim, and server stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "trace/backend_shim.hpp"
#include "trace/event.hpp"
#include "trace/profiler.hpp"
#include "trace/server_stats.hpp"
#include "trace/tracer.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"

namespace pio::trace {
namespace {

using namespace pio::literals;

TraceEvent make_event(Layer layer, OpKind op, std::int32_t rank, std::string path,
                      std::uint64_t offset, std::uint64_t size, std::int64_t start_ns,
                      std::int64_t end_ns, bool ok = true) {
  TraceEvent e;
  e.layer = layer;
  e.op = op;
  e.rank = rank;
  e.path = std::move(path);
  e.offset = offset;
  e.size = size;
  e.start = SimTime::from_ns(start_ns);
  e.end = SimTime::from_ns(end_ns);
  e.ok = ok;
  return e;
}

TEST(EventTest, Classification) {
  EXPECT_TRUE(is_data_op(OpKind::kRead));
  EXPECT_TRUE(is_data_op(OpKind::kWrite));
  EXPECT_FALSE(is_data_op(OpKind::kStat));
  EXPECT_TRUE(is_metadata_op(OpKind::kOpen));
  EXPECT_TRUE(is_metadata_op(OpKind::kFsync));
  EXPECT_FALSE(is_metadata_op(OpKind::kRead));
  EXPECT_FALSE(is_metadata_op(OpKind::kSync));
  EXPECT_STREQ(to_string(Layer::kMpiIo), "mpiio");
  EXPECT_STREQ(to_string(OpKind::kReaddir), "readdir");
}

TEST(TraceTest, FiltersAndAggregates) {
  Trace t;
  t.append(make_event(Layer::kPosix, OpKind::kWrite, 0, "/a", 0, 100, 0, 10));
  t.append(make_event(Layer::kPosix, OpKind::kRead, 1, "/b", 0, 40, 5, 12));
  t.append(make_event(Layer::kMpiIo, OpKind::kWrite, 0, "/a", 100, 60, 2, 9));
  EXPECT_EQ(t.layer(Layer::kPosix).size(), 2u);
  EXPECT_EQ(t.rank(0).size(), 2u);
  EXPECT_EQ(t.bytes_written(), Bytes{160});
  EXPECT_EQ(t.bytes_read(), Bytes{40});
  EXPECT_EQ(t.span(), SimTime::from_ns(12));
  EXPECT_EQ(t.ranks(), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(t.paths(), (std::vector<std::string>{"/a", "/b"}));
}

TEST(TraceTest, MergeSortsByTime) {
  Trace a;
  a.append(make_event(Layer::kPosix, OpKind::kWrite, 0, "/a", 0, 1, 10, 11));
  Trace b;
  b.append(make_event(Layer::kPosix, OpKind::kWrite, 1, "/b", 0, 1, 5, 6));
  const Trace merged = Trace::merge(a, b);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.events()[0].rank, 1);
  EXPECT_EQ(merged.events()[1].rank, 0);
}

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng{seed, 0};
  Trace t;
  const std::vector<std::string> paths{"/data/a", "/data/b", "/x \"quoted\"\n", ""};
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = static_cast<std::int64_t>(rng.next_below(1'000'000));
    t.append(make_event(static_cast<Layer>(rng.next_below(4)),
                        static_cast<OpKind>(rng.next_below(11)),
                        static_cast<std::int32_t>(rng.next_below(64)),
                        paths[rng.next_below(paths.size())], rng.next_below(1 << 30),
                        rng.next_below(1 << 22), start,
                        start + static_cast<std::int64_t>(rng.next_below(10'000)),
                        rng.chance(0.9)));
  }
  return t;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    EXPECT_EQ(x.layer, y.layer) << i;
    EXPECT_EQ(x.op, y.op) << i;
    EXPECT_EQ(x.rank, y.rank) << i;
    EXPECT_EQ(x.path, y.path) << i;
    EXPECT_EQ(x.offset, y.offset) << i;
    EXPECT_EQ(x.size, y.size) << i;
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.ok, y.ok) << i;
  }
}

class TraceRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTripTest, JsonlRoundTripIsLossless) {
  const Trace t = random_trace(GetParam(), 200);
  std::stringstream buffer;
  t.write_jsonl(buffer);
  expect_traces_equal(t, Trace::read_jsonl(buffer));
}

TEST_P(TraceRoundTripTest, BinaryRoundTripIsLossless) {
  const Trace t = random_trace(GetParam(), 200);
  std::stringstream buffer;
  t.write_binary(buffer);
  expect_traces_equal(t, Trace::read_binary(buffer));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTripTest, ::testing::Values(1, 2, 3, 42, 1234));

TEST(TraceSerializationTest, BinaryIsSmallerThanJsonl) {
  const Trace t = random_trace(5, 1000);
  std::stringstream json;
  std::stringstream binary;
  t.write_jsonl(json);
  t.write_binary(binary);
  EXPECT_LT(binary.str().size(), json.str().size() / 2);
}

// The path table's reader bounds a path only by the bytes present, so the
// writer takes paths past the 64 KiB default string bound.
TEST(TraceSerializationTest, BinaryRoundTripsPathsPast64KiB) {
  Trace t = random_trace(3, 4);
  TraceEvent e = t.events().front();
  e.path = "/" + std::string(70'000, 'p');
  t.append(e);
  std::stringstream buffer;
  t.write_binary(buffer);
  expect_traces_equal(t, Trace::read_binary(buffer));
}

// A .jsonl trace is untrusted input: each bad field is an Error naming it,
// never a value wrapped, truncated or parsed from a prefix.
TEST(TraceSerializationTest, JsonlReaderRejectsEachBadField) {
  const std::string good =
      R"({"layer":"posix","op":"write","rank":3,"path":"/a\u0001\"b","offset":5,)"
      R"("size":4096,"start_ns":10,"end_ns":20,"ok":false,"extra":1.5})";
  {
    std::stringstream in(good + "\n\n" + good);
    const auto result = Trace::try_read_jsonl(in);
    ASSERT_TRUE(result.ok()) << result.error().message;
    ASSERT_EQ(result.value().size(), 2u);
    const TraceEvent& e = result.value().events()[0];
    EXPECT_EQ(e.rank, 3);
    EXPECT_EQ(e.path, "/a\x01\"b");
    EXPECT_EQ(e.start, SimTime::from_ns(10));
    EXPECT_FALSE(e.ok);
  }
  const auto with = [&](std::string_view from, std::string_view to) {
    std::string line = good;
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  const std::pair<std::string, std::string_view> bad[] = {
      {with(R"("rank":3)", R"("rank":4294967297)"), "bad rank"},
      {with(R"("rank":3)", R"("rank":2147483648)"), "bad rank"},
      {with(R"("rank":3)", R"("rank":"3")"), "bad rank"},
      {with(R"("offset":5)", R"("offset":-5)"), "bad offset"},
      {with(R"("offset":5)", R"("offset":+5)"), "bad offset"},
      {with(R"("size":4096)", R"("size":"4096xyz")"), "bad size"},
      {with(R"("size":4096)", R"("size":4096xyz)"), "bad size"},
      {with(R"("size":4096)", R"("size":18446744073709551616)"), "bad size"},
      {with(R"("start_ns":10)", R"("start_ns":9223372036854775808)"), "bad start_ns"},
      {with(R"("start_ns":10)", R"("start_ns":-1)"), "negative start_ns"},
      {with(R"("end_ns":20)", R"("end_ns":9)"), "end_ns before start_ns"},
      {with(R"("end_ns":20)", R"("end_ns":2.5)"), "bad end_ns"},
      {with(R"("ok":false)", R"("ok":1)"), "bad ok"},
      {with(R"("layer":"posix")", R"("layer":"nfs")"), "bad layer"},
      {with(R"("op":"write")", R"("op":write)"), "bad op"},
      {with(R"("path":"/a\u0001\"b")", R"("path":7)"), "bad path"},
      {with(R"(\u0001)", R"(\u01)"), "bad \\u escape"},
      {with(R"(\u0001)", R"(\u0100)"), "\\u escape past one byte"},
      {with(R"(\u0001)", R"(\q)"), "unknown escape"},
      {with(R"("rank":3,)", ""), "missing field"},
      {with(R"("rank":3)", R"("rank":3,"rank":3)"), "duplicate key"},
      {with(R"("ok":false)", R"("ok":)"), "missing value"},
      {good + "x", "bytes after the object"},
      {good.substr(0, good.size() - 1), "expected ',' or '}'"},
      {good.substr(0, 40), "unterminated string"},
      {"[]", "expected '{'"},
  };
  for (const auto& [line, why] : bad) {
    std::stringstream in(good + "\n" + line + "\n");
    const auto result = Trace::try_read_jsonl(in);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_EQ(result.error().message, "Trace::read_jsonl: line 2: " + std::string(why)) << line;
    std::stringstream again(line);
    EXPECT_THROW((void)Trace::read_jsonl(again), std::runtime_error) << line;
  }
}

// Times at the ends of the i64 range: subtracting them overflowed span()
// ("span: -1 ns" from pio-trace stats). The reader refuses the first line.
TEST(TraceSerializationTest, JsonlReaderRefusesTimesThatOverflowTheSpan) {
  std::stringstream in(
      R"({"layer":"posix","op":"read","rank":0,"path":"/a","offset":0,"size":1,)"
      R"("start_ns":-9223372036854775808,"end_ns":0,"ok":true})"
      "\n"
      R"({"layer":"posix","op":"read","rank":0,"path":"/a","offset":0,"size":1,)"
      R"("start_ns":0,"end_ns":9223372036854775807,"ok":true})"
      "\n");
  const auto result = Trace::try_read_jsonl(in);
  ASSERT_FALSE(result.ok()) << "span " << result.value().span().ns() << " ns";
  EXPECT_EQ(result.error().message, "Trace::read_jsonl: line 1: negative start_ns");
}

TEST(TraceSerializationTest, BinaryReaderRefusesNegativeAndReversedTimes) {
  for (const auto& [start, end, why] :
       {std::tuple{-1, 5, "event has negative start time"},
        std::tuple{7, 6, "event ends before its start time"}}) {
    Trace t;
    TraceEvent e;
    e.path = "/a";
    e.start = SimTime::from_ns(start);
    e.end = SimTime::from_ns(end);
    t.append(e);
    std::stringstream buffer;
    t.write_binary(buffer);
    const auto result = Trace::try_read_binary(buffer);
    ASSERT_FALSE(result.ok()) << why;
    EXPECT_EQ(result.error().message, std::string("Trace::read_binary: ") + why);
  }
}

TEST(TraceSerializationTest, BadMagicThrows) {
  std::stringstream buffer;
  buffer << "NOTATRACE";
  EXPECT_THROW((void)Trace::read_binary(buffer), std::runtime_error);
}

TEST(TraceSerializationTest, TryReadBinaryReportsBadMagicAsError) {
  std::stringstream buffer;
  buffer << "NOTATRACE";
  const auto result = Trace::try_read_binary(buffer);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("bad magic"), std::string::npos);
}

TEST(TraceSerializationTest, TryReadBinaryRoundTripsCleanStream) {
  const Trace t = random_trace(7, 50);
  std::stringstream buffer;
  t.write_binary(buffer);
  const auto result = Trace::try_read_binary(buffer);
  ASSERT_TRUE(result.ok());
  expect_traces_equal(t, result.value());
}

// Corrupt a serialized trace by truncating it at every prefix length: the
// reader must fail cleanly each time, never crash or misallocate.
TEST(TraceSerializationTest, TruncatedStreamsFailCleanlyAtEveryLength) {
  const Trace t = random_trace(11, 20);
  std::stringstream whole;
  t.write_binary(whole);
  const std::string bytes = whole.str();
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::stringstream cut(bytes.substr(0, len));
    const auto result = Trace::try_read_binary(cut);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_THROW((void)[&] {
      std::stringstream again(bytes.substr(0, len));
      return Trace::read_binary(again);
    }(), std::runtime_error);
  }
}

TEST(TraceSerializationTest, HugeDeclaredPathCountIsRejectedBeforeAllocation) {
  const Trace t = random_trace(13, 5);
  std::stringstream whole;
  t.write_binary(whole);
  std::string bytes = whole.str();
  // Overwrite the 4-byte path count (just after the 8-byte magic) with a
  // count far larger than the stream itself.
  const std::uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 8, &bogus, sizeof bogus);
  std::stringstream corrupt(bytes);
  const auto result = Trace::try_read_binary(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("path count"), std::string::npos);
}

TEST(TraceSerializationTest, HugeDeclaredPathLengthIsRejected) {
  const Trace t = random_trace(17, 5);
  std::stringstream whole;
  t.write_binary(whole);
  std::string bytes = whole.str();
  // First path length sits right after magic (8) + path count (4).
  const std::uint32_t bogus = 0x7FFFFFFFu;
  std::memcpy(bytes.data() + 12, &bogus, sizeof bogus);
  std::stringstream corrupt(bytes);
  const auto result = Trace::try_read_binary(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("path length"), std::string::npos);
}

TEST(TraceSerializationTest, HugeDeclaredEventCountIsRejected) {
  Trace t;
  t.append(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 1, 0, 1));
  std::stringstream whole;
  t.write_binary(whole);
  std::string bytes = whole.str();
  // Event count (8 bytes) follows the path table: magic(8) + count(4) +
  // len(4) + "/f"(2).
  const std::uint64_t bogus = UINT64_MAX;
  std::memcpy(bytes.data() + 18, &bogus, sizeof bogus);
  std::stringstream corrupt(bytes);
  const auto result = Trace::try_read_binary(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("event count"), std::string::npos);
}

TEST(TraceSerializationTest, OutOfRangePathIdIsRejected) {
  Trace t;
  t.append(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 1, 0, 1));
  std::stringstream whole;
  t.write_binary(whole);
  std::string bytes = whole.str();
  // The record's path_id field is 8 bytes into the 48-byte record, which
  // starts after magic(8) + count(4) + len(4) + "/f"(2) + event count(8).
  const std::size_t record_start = 8 + 4 + 4 + 2 + 8;
  const std::uint32_t bogus = 42;
  std::memcpy(bytes.data() + record_start + 8, &bogus, sizeof bogus);
  std::stringstream corrupt(bytes);
  const auto result = Trace::try_read_binary(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unknown path id"), std::string::npos);
}

TEST(TraceSerializationTest, OutOfRangeLayerOrOpIsRejected) {
  Trace t;
  t.append(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 1, 0, 1));
  std::stringstream whole;
  t.write_binary(whole);
  const std::string bytes = whole.str();
  // The layer byte opens the record and the op byte follows it; the record
  // starts after magic(8) + count(4) + len(4) + "/f"(2) + event count(8).
  const std::size_t layer_at = 8 + 4 + 4 + 2 + 8;
  const auto read_with = [&](std::size_t at, std::uint8_t value) {
    std::string patched = bytes;
    patched[at] = static_cast<char>(value);
    std::stringstream in(patched);
    return Trace::try_read_binary(in);
  };
  // Layer has five values and OpKind eleven: the last of each decodes, the
  // next byte up (and 0xFF) is an Error, not an event no switch handles.
  const auto last_layer = read_with(layer_at, 4);
  ASSERT_TRUE(last_layer.ok());
  EXPECT_EQ(last_layer.value().events()[0].layer, Layer::kCache);
  const auto last_op = read_with(layer_at + 1, 10);
  ASSERT_TRUE(last_op.ok());
  EXPECT_EQ(last_op.value().events()[0].op, OpKind::kOther);
  for (const std::uint8_t bad : {std::uint8_t{5}, std::uint8_t{0xFF}}) {
    const auto result = read_with(layer_at, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unknown layer"), std::string::npos);
  }
  for (const std::uint8_t bad : {std::uint8_t{11}, std::uint8_t{0xFF}}) {
    const auto result = read_with(layer_at + 1, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unknown op kind"), std::string::npos);
  }
}

TEST(TraceSerializationTest, BinaryBytesArePinned) {
  // Byte-identity pin for write_binary: three events over two paths, every
  // field distinct (a negative rank and a path id reused out of order), so
  // a field written in the wrong order, width or byte order moves the digest.
  Trace t;
  t.append(make_event(Layer::kHdf5, OpKind::kWrite, 5, "/ckpt/a", 0x1122, 4096, 1000, 2500));
  t.append(make_event(Layer::kMpiIo, OpKind::kRead, -3, "/ckpt/b.h5", 1ULL << 40, 77, 3000,
                      9000, false));
  t.append(make_event(Layer::kCache, OpKind::kFsync, 17, "/ckpt/a", 12345, 0, 123'456'789'012,
                      123'456'789'999));
  std::stringstream out;
  t.write_binary(out);
  const std::string bytes = out.str();
  // magic + path count + two (length, bytes) entries + event count + records.
  EXPECT_EQ(bytes.size(), 8u + 4u + (4u + 7u) + (4u + 10u) + 8u + 3u * 48u);
  Fnv64 h;
  h.mix_bytes(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  EXPECT_EQ(h.digest(), 9484845780625251338ULL);
}

TEST(TracerTest, SnapshotAndTake) {
  Tracer tracer;
  tracer.record(make_event(Layer::kPosix, OpKind::kOpen, 0, "/f", 0, 0, 0, 1));
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.snapshot().size(), 1u);
  const Trace taken = tracer.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(MultiSinkTest, FansOut) {
  Tracer a;
  Tracer b;
  MultiSink multi;
  multi.add(a);
  multi.add(b);
  multi.record(make_event(Layer::kApp, OpKind::kOther, 0, "", 0, 0, 0, 0));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(ProfilerTest, CountersAndHistograms) {
  Profiler profiler;
  profiler.record(make_event(Layer::kPosix, OpKind::kOpen, 0, "/f", 0, 0, 0, 100));
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 4096, 100, 300));
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 4096, 4096, 300, 500));
  profiler.record(make_event(Layer::kPosix, OpKind::kRead, 0, "/f", 0, 100, 500, 600));
  profiler.record(make_event(Layer::kPosix, OpKind::kClose, 0, "/f", 0, 0, 600, 650));
  // Non-POSIX layers are ignored by the POSIX profiler.
  profiler.record(make_event(Layer::kHdf5, OpKind::kWrite, 0, "/f", 0, 9999, 0, 1));
  const Profile profile = profiler.snapshot();
  ASSERT_EQ(profile.records().size(), 1u);
  const auto& r = profile.records()[0];
  EXPECT_EQ(r.opens, 1u);
  EXPECT_EQ(r.closes, 1u);
  EXPECT_EQ(r.writes, 2u);
  EXPECT_EQ(r.reads, 1u);
  EXPECT_EQ(r.bytes_written, Bytes{8192});
  EXPECT_EQ(r.bytes_read, Bytes{100});
  EXPECT_EQ(r.write_time, SimTime::from_ns(400));
  EXPECT_EQ(r.write_sizes.bucket_count(12), 2u);  // 4096 twice
  EXPECT_EQ(r.max_offset, 8192u);
  const JobSummary s = profile.summarize();
  EXPECT_EQ(s.total_ops, 5u);
  EXPECT_EQ(s.metadata_ops, 2u);
  EXPECT_EQ(s.span, SimTime::from_ns(650));
  EXPECT_NEAR(s.read_fraction_bytes(), 100.0 / 8292.0, 1e-12);
}

TEST(ProfilerTest, SequentialityDetection) {
  Profiler profiler;
  // Consecutive writes from offset 0.
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 100, 0, 1));
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 100, 100, 1, 2));
  // Forward jump: sequential but not consecutive.
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 500, 100, 2, 3));
  // Backward jump: neither.
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 100, 3, 4));
  // Keep the snapshot alive: records() returns a reference into it, so
  // binding through the temporary dangles (caught by ASan).
  const auto profile = profiler.snapshot();
  const auto& r = profile.records()[0];
  EXPECT_EQ(r.writes, 4u);
  EXPECT_EQ(r.sequential_writes, 3u);
  EXPECT_EQ(r.consecutive_writes, 2u);
  EXPECT_DOUBLE_EQ(r.write_seq_fraction(), 0.75);
}

TEST(ProfilerTest, PerRankRecordsMergeByFile) {
  Profiler profiler;
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/f", 0, 10, 0, 1));
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 1, "/f", 10, 20, 0, 1));
  const Profile profile = profiler.snapshot();
  EXPECT_EQ(profile.records().size(), 2u);
  const auto by_file = profile.by_file();
  ASSERT_EQ(by_file.size(), 1u);
  EXPECT_EQ(by_file[0].writes, 2u);
  EXPECT_EQ(by_file[0].bytes_written, Bytes{30});
  EXPECT_EQ(by_file[0].rank, -1);
}

TEST(ProfilerTest, ReportMentionsFiles) {
  Profiler profiler;
  profiler.record(make_event(Layer::kPosix, OpKind::kWrite, 0, "/data/out", 0, 10, 0, 1));
  const std::string report = profiler.snapshot().report();
  EXPECT_NE(report.find("/data/out"), std::string::npos);
  EXPECT_NE(report.find("bytes written"), std::string::npos);
}

TEST(BackendShimTest, EmitsPosixEventsWithPaths) {
  vfs::FileSystem fs;
  vfs::LocalBackend inner{fs};
  Tracer tracer;
  ManualClock clock;
  TracingBackend backend{inner, tracer, clock, 3};

  clock.set(10_us);
  auto fd = backend.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  clock.set(20_us);
  std::vector<std::byte> buf(256);
  ASSERT_TRUE(backend.pwrite(fd.value(), buf, 0).ok());
  clock.set(30_us);
  ASSERT_TRUE(backend.pread(fd.value(), buf, 0).ok());
  EXPECT_EQ(backend.close(fd.value()), vfs::FsStatus::kOk);
  (void)backend.stat("/f");
  (void)backend.open("/missing", {vfs::OpenMode::kRead, false, false});  // fails

  const Trace t = tracer.snapshot();
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t.events()[0].op, OpKind::kOpen);
  EXPECT_EQ(t.events()[0].rank, 3);
  EXPECT_EQ(t.events()[0].start, 10_us);
  EXPECT_EQ(t.events()[1].op, OpKind::kWrite);
  EXPECT_EQ(t.events()[1].path, "/f");
  EXPECT_EQ(t.events()[1].size, 256u);
  EXPECT_EQ(t.events()[2].op, OpKind::kRead);
  EXPECT_EQ(t.events()[2].start, 30_us);
  EXPECT_FALSE(t.events()[5].ok);
}

/// An OST span on `ost` from `start` to `end`.
obs::Span ost_span(std::uint32_t ost, SimTime start, SimTime end, Bytes bytes, bool is_write,
                   bool ok = true) {
  return obs::Span{
      .layer = obs::Layer::kOst,
      .kind = static_cast<std::uint8_t>(is_write ? obs::DataKind::kWrite : obs::DataKind::kRead),
      .ok = ok,
      .component = ost,
      .start = start,
      .end = end,
      .bytes = bytes,
  };
}

TEST(ServerStatsTest, BinsIntoWindows) {
  ServerStatsCollector collector{10_ms};
  collector.on_span(ost_span(0, 1_ms, 5_ms, 1_MiB, true));     // window 0
  collector.on_span(ost_span(0, 12_ms, 15_ms, 1_MiB, false));  // window 1
  collector.on_span(obs::Span{.layer = obs::Layer::kMds, .start = 2_ms, .end = 3_ms});

  const auto& series = collector.ost_series().at(0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at(0).write_ops, 1u);
  EXPECT_EQ(series.at(0).bytes_written, 1_MiB);
  EXPECT_EQ(series.at(1).read_ops, 1u);
  EXPECT_EQ(series.at(0).total_latency, 4_ms);
  EXPECT_EQ(collector.mds_series().at(0).meta_ops, 1u);
}

TEST(ServerStatsTest, AggregateSumsFailuresAcrossOsts) {
  ServerStatsCollector collector{10_ms};
  auto record = [&](std::uint32_t ost, bool ok) {
    collector.on_span(ost_span(ost, SimTime::zero(), 5_ms, 1_MiB, true, ok));
  };
  // Failures on two OSTs in one window, plus successes on a third.
  record(0, false);
  record(0, true);
  record(1, false);
  record(1, false);
  record(2, true);
  const auto aggregate = collector.aggregate_osts();
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_EQ(aggregate.at(0).failed_ops, 3u);
  EXPECT_EQ(aggregate.at(0).write_ops, 5u);
  EXPECT_EQ(aggregate.at(0).bytes_written, 2_MiB);
}

TEST(ServerStatsTest, ImbalanceDetectsHotOst) {
  ServerStatsCollector collector{10_ms};
  auto record = [&](std::uint32_t ost, std::uint64_t mib) {
    collector.on_span(ost_span(ost, SimTime::zero(), 5_ms, Bytes::from_mib(mib), true));
  };
  record(0, 30);
  record(1, 1);
  record(2, 1);
  const auto imbalance = collector.ost_imbalance();
  ASSERT_EQ(imbalance.size(), 1u);
  // max/mean = 30 / (32/3) = 2.81...
  EXPECT_NEAR(imbalance[0].second, 30.0 / (32.0 / 3.0), 1e-9);
}

}  // namespace
}  // namespace pio::trace
