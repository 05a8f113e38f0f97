#include "trace/tracer.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <istream>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string_view>

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

std::optional<Layer> layer_from(std::string_view s) {
  if (s == "app") return Layer::kApp;
  if (s == "hdf5") return Layer::kHdf5;
  if (s == "mpiio") return Layer::kMpiIo;
  if (s == "posix") return Layer::kPosix;
  if (s == "cache") return Layer::kCache;
  return std::nullopt;
}

std::optional<OpKind> op_from(std::string_view s) {
  static const std::map<std::string, OpKind, std::less<>> table{
      {"open", OpKind::kOpen},       {"close", OpKind::kClose},
      {"read", OpKind::kRead},       {"write", OpKind::kWrite},
      {"stat", OpKind::kStat},       {"mkdir", OpKind::kMkdir},
      {"unlink", OpKind::kUnlink},   {"readdir", OpKind::kReaddir},
      {"fsync", OpKind::kFsync},     {"sync", OpKind::kSync},
      {"other", OpKind::kOther},
  };
  const auto it = table.find(s);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

/// A value of a flat JSON object: a string's decoded contents, or a bare
/// token (a number, true, false) as written.
struct JsonValue {
  std::string text;
  bool quoted = false;
};
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Decode the JSON string that opens at `line[i]` into `out`, leaving `i`
/// past its closing quote. Returns why the string is malformed, or nullptr.
/// A \u escape takes exactly four hex digits and names one byte: the writer
/// escapes control bytes this way and writes every other byte as it is.
const char* scan_string(std::string_view line, std::size_t& i, std::string& out) {
  ++i;  // opening quote
  while (i < line.size()) {
    const char c = line[i++];
    if (c == '"') return nullptr;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i == line.size()) break;
    switch (line[i++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (line.size() - i < 4) return "short \\u escape";
        unsigned code = 0;
        const char* digits = line.data() + i;
        const auto [end, ec] = std::from_chars(digits, digits + 4, code, 16);
        if (ec != std::errc{} || end != digits + 4) return "bad \\u escape";
        if (code > 0xFF) return "\\u escape past one byte";
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return "unknown escape";
    }
  }
  return "unterminated string";
}

/// Parse one line as a flat JSON object with string and bare values, and
/// nothing but spaces after it. Returns why the line is malformed, or nullptr.
const char* parse_flat_json(std::string_view line, JsonObject& out) {
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < line.size() && is_space(line[i])) ++i;
  };
  skip_space();
  if (i == line.size() || line[i] != '{') return "expected '{'";
  ++i;
  skip_space();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_space();
      if (i == line.size() || line[i] != '"') return "expected a key";
      std::string key;
      if (const char* why = scan_string(line, i, key)) return why;
      skip_space();
      if (i == line.size() || line[i] != ':') return "expected ':'";
      ++i;
      skip_space();
      JsonValue value;
      if (i < line.size() && line[i] == '"') {
        value.quoted = true;
        if (const char* why = scan_string(line, i, value.text)) return why;
      } else {
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' && !is_space(line[i])) ++i;
        if (i == start) return "missing value";
        value.text = line.substr(start, i - start);
      }
      if (!out.emplace(std::move(key), std::move(value)).second) return "duplicate key";
      skip_space();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return "expected ',' or '}'";
    }
  }
  skip_space();
  return i == line.size() ? nullptr : "bytes after the object";
}

/// A bare integer read whole into `T`: no sign on an unsigned type, no '+',
/// no trailing bytes, no overflow.
template <class T>
bool parse_integer(const JsonValue& v, T& out) {
  if (v.quoted) return false;
  const char* first = v.text.data();
  const char* last = first + v.text.size();
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && end == last;
}

}  // namespace

Result<Trace> Trace::try_read_jsonl(std::istream& in) {
  Trace trace;
  std::string line;
  std::uint64_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty()) continue;
    const auto fail = [&](std::string_view why) {
      return Error{1, "Trace::read_jsonl: line " + std::to_string(number) + ": " +
                          std::string(why)};
    };
    JsonObject obj;
    if (const char* why = parse_flat_json(line, obj)) return fail(why);
    const auto field = [&](std::string_view key) -> const JsonValue* {
      const auto it = obj.find(key);
      return it == obj.end() ? nullptr : &it->second;
    };
    const JsonValue* layer = field("layer");
    const JsonValue* op = field("op");
    const JsonValue* rank = field("rank");
    const JsonValue* path = field("path");
    const JsonValue* offset = field("offset");
    const JsonValue* size = field("size");
    const JsonValue* start = field("start_ns");
    const JsonValue* end = field("end_ns");
    const JsonValue* ok = field("ok");
    if (!layer || !op || !rank || !path || !offset || !size || !start || !end || !ok) {
      return fail("missing field");
    }
    TraceEvent e;
    const auto layer_value = layer->quoted ? layer_from(layer->text) : std::nullopt;
    if (!layer_value) return fail("bad layer");
    e.layer = *layer_value;
    const auto op_value = op->quoted ? op_from(op->text) : std::nullopt;
    if (!op_value) return fail("bad op");
    e.op = *op_value;
    if (!parse_integer(*rank, e.rank)) return fail("bad rank");
    if (!path->quoted) return fail("bad path");
    e.path = path->text;
    if (!parse_integer(*offset, e.offset)) return fail("bad offset");
    if (!parse_integer(*size, e.size)) return fail("bad size");
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    if (!parse_integer(*start, start_ns)) return fail("bad start_ns");
    if (!parse_integer(*end, end_ns)) return fail("bad end_ns");
    // Simulated time starts at zero and an event ends no earlier than it
    // starts; span() and the profile stats subtract these times.
    if (start_ns < 0) return fail("negative start_ns");
    if (end_ns < start_ns) return fail("end_ns before start_ns");
    e.start = SimTime::from_ns(start_ns);
    e.end = SimTime::from_ns(end_ns);
    if (ok->quoted || (ok->text != "true" && ok->text != "false")) return fail("bad ok");
    e.ok = ok->text == "true";
    trace.append(std::move(e));
  }
  return trace;
}

Trace Trace::read_jsonl(std::istream& in) {
  auto result = try_read_jsonl(in);
  if (!result.ok()) throw std::runtime_error(result.error().message);
  return std::move(result.value());
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
    if (e.start < SimTime::zero()) return fail("event has negative start time");
    if (e.end < e.start) return fail("event ends before its start time");
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
