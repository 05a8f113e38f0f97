#include "trace/tracer.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/record_io.hpp"

namespace pio::trace {

bool time_order(const TraceEvent& a, const TraceEvent& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.end < b.end;
}

void Trace::sort_by_time() { std::stable_sort(events_.begin(), events_.end(), time_order); }

Trace Trace::filtered(const std::function<bool(const TraceEvent&)>& keep) const {
  Trace out;
  for (const auto& e : events_) {
    if (keep(e)) out.append(e);
  }
  return out;
}

Trace Trace::layer(Layer layer) const {
  return filtered([layer](const TraceEvent& e) { return e.layer == layer; });
}

Trace Trace::rank(std::int32_t rank) const {
  return filtered([rank](const TraceEvent& e) { return e.rank == rank; });
}

std::vector<std::int32_t> Trace::ranks() const {
  std::set<std::int32_t> set;
  for (const auto& e : events_) set.insert(e.rank);
  return {set.begin(), set.end()};
}

std::vector<std::string> Trace::paths() const {
  std::set<std::string> set;
  for (const auto& e : events_) {
    if (!e.path.empty()) set.insert(e.path);
  }
  return {set.begin(), set.end()};
}

SimTime Trace::span() const {
  if (events_.empty()) return SimTime::zero();
  SimTime first = SimTime::max();
  SimTime last = SimTime::zero();
  for (const auto& e : events_) {
    first = std::min(first, e.start);
    last = std::max(last, e.end);
  }
  return last - first;
}

Bytes Trace::bytes_read() const {
  Bytes total = Bytes::zero();
  for (const auto& e : events_) {
    if (e.op == OpKind::kRead) total += Bytes{e.size};
  }
  return total;
}

Bytes Trace::bytes_written() const {
  Bytes total = Bytes::zero();
  for (const auto& e : events_) {
    if (e.op == OpKind::kWrite) total += Bytes{e.size};
  }
  return total;
}

Trace Trace::merge(const Trace& a, const Trace& b) {
  Trace out;
  std::vector<TraceEvent> merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.events_.begin(), a.events_.end());
  merged.insert(merged.end(), b.events_.begin(), b.events_.end());
  out = Trace{std::move(merged)};
  out.sort_by_time();
  return out;
}

// ------------------------------------------------------------------- JSONL

void Trace::write_jsonl(std::ostream& out) const {
  for (const auto& e : events_) {
    Record r{{"layer", std::string(to_string(e.layer))},
             {"op", std::string(to_string(e.op))},
             {"rank", static_cast<std::int64_t>(e.rank)},
             {"path", e.path},
             {"offset", e.offset},
             {"size", e.size},
             {"start_ns", e.start.ns()},
             {"end_ns", e.end.ns()},
             {"ok", e.ok}};
    out << r.to_json_line() << "\n";
  }
}

namespace {

Layer layer_from(const std::string& s) {
  if (s == "app") return Layer::kApp;
  if (s == "hdf5") return Layer::kHdf5;
  if (s == "mpiio") return Layer::kMpiIo;
  if (s == "posix") return Layer::kPosix;
  if (s == "cache") return Layer::kCache;
  throw std::invalid_argument("unknown layer: " + s);
}

OpKind op_from(const std::string& s) {
  static const std::map<std::string, OpKind> table{
      {"open", OpKind::kOpen},       {"close", OpKind::kClose},
      {"read", OpKind::kRead},       {"write", OpKind::kWrite},
      {"stat", OpKind::kStat},       {"mkdir", OpKind::kMkdir},
      {"unlink", OpKind::kUnlink},   {"readdir", OpKind::kReaddir},
      {"fsync", OpKind::kFsync},     {"sync", OpKind::kSync},
      {"other", OpKind::kOther},
  };
  const auto it = table.find(s);
  if (it == table.end()) throw std::invalid_argument("unknown op: " + s);
  return it->second;
}

// Minimal JSON value scanner sufficient for the flat objects we emit.
std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  auto parse_string = [&]() -> std::string {
    std::string s;
    ++i;  // opening quote
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        ++i;
        switch (line[i]) {
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u':
            // \uXXXX: we only emit control characters this way; decode the
            // low byte.
            if (i + 4 < line.size()) {
              s += static_cast<char>(std::stoi(line.substr(i + 1, 4), nullptr, 16));
              i += 4;
            }
            break;
          default: s += line[i];
        }
      } else {
        s += line[i];
      }
      ++i;
    }
    ++i;  // closing quote
    return s;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') throw std::invalid_argument("bad json line");
  ++i;
  for (;;) {
    skip_ws();
    if (i < line.size() && line[i] == '}') break;
    if (i >= line.size() || line[i] != '"') throw std::invalid_argument("bad json key");
    const std::string key = parse_string();
    skip_ws();
    if (i >= line.size() || line[i] != ':') throw std::invalid_argument("bad json separator");
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      value = parse_string();
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}') value += line[i++];
    }
    out[key] = value;
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') break;
  }
  return out;
}

}  // namespace

Trace Trace::read_jsonl(std::istream& in) {
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto obj = parse_flat_json(line);
    TraceEvent e;
    e.layer = layer_from(obj.at("layer"));
    e.op = op_from(obj.at("op"));
    e.rank = static_cast<std::int32_t>(std::stol(obj.at("rank")));
    e.path = obj.at("path");
    e.offset = std::stoull(obj.at("offset"));
    e.size = std::stoull(obj.at("size"));
    e.start = SimTime::from_ns(std::stoll(obj.at("start_ns")));
    e.end = SimTime::from_ns(std::stoll(obj.at("end_ns")));
    e.ok = obj.at("ok") == "true";
    trace.append(std::move(e));
  }
  return trace;
}

// ------------------------------------------------------------------ binary
//
// Little-endian through common/codec; the layout is documented once, in
// DESIGN.md §15: the magic, a u32 path count with u32-length-prefixed
// paths, a u64 event count, then one 48-byte record per event.

namespace {

constexpr char kMagic[8] = {'P', 'I', 'O', 'T', 'R', 'C', '0', '1'};
constexpr std::size_t kRecordBytes = 48;

}  // namespace

void Trace::write_binary(std::ostream& out) const {
  // Path ids in first-use order.
  std::map<std::string, std::uint32_t> path_ids;
  std::vector<const std::string*> table;
  for (const auto& e : events_) {
    if (path_ids.emplace(e.path, static_cast<std::uint32_t>(table.size())).second) {
      table.push_back(&e.path);
    }
  }
  std::vector<std::uint8_t> bytes;
  codec::Writer w(bytes);
  w.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic);
  w.u32(static_cast<std::uint32_t>(table.size()));
  // The reader bounds a path only by the bytes present.
  for (const auto* path : table) w.str(*path, UINT32_MAX);
  w.u64(events_.size());
  for (const auto& e : events_) {
    w.u8(static_cast<std::uint8_t>(e.layer));
    w.u8(static_cast<std::uint8_t>(e.op));
    w.boolean(e.ok);
    w.u8(0);  // pad
    w.u32(static_cast<std::uint32_t>(e.rank));
    w.u32(path_ids.at(e.path));
    w.u32(0);  // pad
    w.u64(e.offset);
    w.u64(e.size);
    w.i64(e.start.ns());
    w.i64(e.end.ns());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Result<Trace> Trace::try_read_binary(std::istream& in) {
  const auto fail = [](std::string message) {
    return Error{1, "Trace::read_binary: " + std::move(message)};
  };
  // Bytes after the last record are ignored.
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  codec::Reader r(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  const std::uint8_t* magic = r.bytes(sizeof kMagic);
  if (magic == nullptr || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail("bad magic");
  }
  const std::uint32_t path_count = r.u32();
  if (!r.ok()) return fail("truncated stream");
  // Each path entry carries at least its 4-byte length prefix and each
  // record is 48 bytes: counts the bytes present cannot hold are rejected
  // before anything is allocated.
  if (std::uint64_t{path_count} * sizeof(std::uint32_t) > r.remaining()) {
    return fail("path count exceeds stream size");
  }
  std::vector<std::string> paths;
  paths.reserve(path_count);
  for (std::uint32_t p = 0; p < path_count; ++p) {
    const std::uint32_t len = r.u32();
    if (!r.ok()) return fail("truncated path table");
    if (len > r.remaining()) return fail("path length exceeds stream size");
    paths.emplace_back(reinterpret_cast<const char*>(r.bytes(len)), len);
  }
  const std::uint64_t count = r.u64();
  if (!r.ok()) return fail("truncated stream");
  if (count > r.remaining() / kRecordBytes) return fail("event count exceeds stream size");
  Trace trace;
  trace.events_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t layer = r.u8();
    const std::uint8_t op = r.u8();
    TraceEvent e;
    e.ok = r.u8() != 0;
    (void)r.u8();  // pad
    e.rank = static_cast<std::int32_t>(r.u32());
    const std::uint32_t path_id = r.u32();
    (void)r.u32();  // pad
    e.offset = r.u64();
    e.size = r.u64();
    e.start = SimTime::from_ns(r.i64());
    e.end = SimTime::from_ns(r.i64());
    if (path_id >= paths.size()) return fail("event references unknown path id");
    if (layer > static_cast<std::uint8_t>(Layer::kCache)) return fail("event has unknown layer");
    if (op > static_cast<std::uint8_t>(OpKind::kOther)) return fail("event has unknown op kind");
    e.layer = static_cast<Layer>(layer);
    e.op = static_cast<OpKind>(op);
    e.path = paths[path_id];
    trace.events_.push_back(std::move(e));
  }
  return trace;
}

Trace Trace::read_binary(std::istream& in) {
  auto result = try_read_binary(in);
  if (!result.ok()) throw std::runtime_error(result.error().message);
  return std::move(result.value());
}

// ------------------------------------------------------------------ Tracer

void Tracer::record(const TraceEvent& event) {
  const std::scoped_lock lock(mutex_);
  trace_.append(event);
}

Trace Tracer::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return trace_;
}

Trace Tracer::take() {
  const std::scoped_lock lock(mutex_);
  Trace out = std::move(trace_);
  trace_ = Trace{};
  return out;
}

std::size_t Tracer::size() const {
  const std::scoped_lock lock(mutex_);
  return trace_.size();
}

}  // namespace pio::trace
