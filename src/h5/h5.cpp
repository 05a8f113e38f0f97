#include "h5/h5.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <string_view>

namespace pio::h5 {

namespace {

constexpr const char* kMagicLine = "H5LITE1";

bool valid_name(const std::string& name) {
  return !name.empty() && name.front() == '/' &&
         name.find_first_of(" \t\n\r") == std::string::npos &&
         (name.size() == 1 || name.back() != '/');
}

std::string encode_value(const std::string& v) {
  std::string out;
  for (const char c : v) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// True when all of `text` is one unsigned number in `base`.
template <class T>
bool parse_number(std::string_view text, T& out, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
  return ec == std::errc{} && ptr == end;
}

/// Inverse of encode_value; nullopt when a '%' is not followed by two hex
/// digits.
std::optional<std::string> decode_value(const std::string& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '%') {
      out += v[i];
      continue;
    }
    unsigned char c = 0;
    if (i + 3 > v.size() || !parse_number(std::string_view{v}.substr(i + 1, 2), c, 16)) {
      return std::nullopt;
    }
    out += static_cast<char>(c);
    i += 2;
  }
  return out;
}

std::string join_u64(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out.empty() ? "-" : out;
}

/// Inverse of join_u64; nullopt on an empty, non-numeric or out-of-range
/// token.
std::optional<std::vector<std::uint64_t>> split_u64(const std::string& text) {
  std::vector<std::uint64_t> out;
  if (text == "-") return out;
  std::size_t pos = 0;
  while (true) {
    const auto comma = text.find(',', pos);
    const std::string_view tok = std::string_view{text}.substr(pos, comma - pos);
    if (!parse_number(tok, out.emplace_back())) return std::nullopt;
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

/// Why a dataset's shape cannot be stored, or nullopt when it can.
std::optional<Error> shape_error(const std::string& name, std::uint32_t elem_size,
                                 const Dataspace& space,
                                 const std::vector<std::uint64_t>& chunk_dims) {
  if (elem_size == 0 || space.dims.empty()) {
    return Error{-27, "dataset needs a positive element size and at least one dimension"};
  }
  for (const auto d : space.dims) {
    if (d == 0) return Error{-27, "zero-length dimension in " + name};
  }
  if (!chunk_dims.empty()) {
    if (chunk_dims.size() != space.dims.size()) {
      return Error{-28, "chunk rank mismatch for " + name};
    }
    for (std::size_t d = 0; d < chunk_dims.size(); ++d) {
      if (chunk_dims[d] == 0 || chunk_dims[d] > space.dims[d]) {
        return Error{-28, "bad chunk dimension for " + name};
      }
    }
  }
  return std::nullopt;
}

std::string group_line(const std::string& name) { return "group " + name + "\n"; }

std::string dataset_line(const DatasetInfo& d) {
  return "dataset " + d.name + " elem " + std::to_string(d.elem_size) + " dims " +
         join_u64(d.space.dims) + " chunks " + join_u64(d.chunk_dims) + " offset " +
         std::to_string(d.data_offset) + "\n";
}

std::string attr_line(const std::string& owner, const std::string& key,
                      const std::string& value) {
  return "attr " + owner + " " + key + " " + encode_value(value) + "\n";
}

/// Size of a serialized header whose group, dataset and attribute lines take
/// `line_bytes`.
std::uint64_t header_size(std::uint64_t line_bytes, std::uint64_t alloc_cursor) {
  return std::strlen(kMagicLine) + std::strlen("\nalloc ") + std::to_string(alloc_cursor).size() +
         std::strlen("\n") + line_bytes + std::strlen("end\n");
}

Error header_full(const std::string& what) {
  return Error{-36, "metadata header region full: " + what};
}

}  // namespace

std::uint64_t Dataspace::elements() const {
  std::uint64_t n = 1;
  for (const auto d : dims) n *= d;
  return dims.empty() ? 0 : n;
}

std::uint64_t Hyperslab::elements() const {
  if (count.empty()) return 0;
  std::uint64_t n = 1;
  for (const auto c : count) n *= c;
  return n;
}

std::vector<std::uint64_t> DatasetInfo::chunk_grid() const {
  std::vector<std::uint64_t> grid;
  if (!chunked()) return grid;
  grid.reserve(chunk_dims.size());
  for (std::size_t d = 0; d < chunk_dims.size(); ++d) {
    grid.push_back((space.dims[d] + chunk_dims[d] - 1) / chunk_dims[d]);
  }
  return grid;
}

std::uint64_t DatasetInfo::chunk_bytes() const {
  std::uint64_t n = elem_size;
  for (const auto c : chunk_dims) n *= c;
  return n;
}

// ------------------------------------------------------------------ Dataset

Result<std::vector<mio::Extent>> Dataset::extents_of(const Hyperslab& slab) const {
  const auto& dims = info_.space.dims;
  const std::size_t r = dims.size();
  if (slab.start.size() != r || slab.count.size() != r) {
    return Error{-20, "hyperslab rank mismatch for " + info_.name};
  }
  for (std::size_t d = 0; d < r; ++d) {
    if (slab.count[d] == 0 || slab.start[d] + slab.count[d] > dims[d]) {
      return Error{-21, "hyperslab out of bounds for " + info_.name};
    }
  }
  std::vector<mio::Extent> extents;
  const std::uint64_t elem = info_.elem_size;

  // Row-major odometer over all dimensions except the innermost.
  std::vector<std::uint64_t> idx = slab.start;
  const std::uint64_t inner_count = slab.count[r - 1];
  auto emit_extent = [&](std::uint64_t file_offset, std::uint64_t bytes) {
    if (!extents.empty() &&
        extents.back().offset + extents.back().length.count() == file_offset) {
      extents.back().length += Bytes{bytes};  // coalesce contiguous pieces
    } else {
      extents.push_back(mio::Extent{file_offset, Bytes{bytes}});
    }
  };

  for (;;) {
    if (!info_.chunked()) {
      // Contiguous layout: linear index of idx (with innermost at start).
      std::uint64_t linear = 0;
      for (std::size_t d = 0; d < r; ++d) linear = linear * dims[d] + idx[d];
      emit_extent(info_.data_offset + linear * elem, inner_count * elem);
    } else {
      // Chunked: split the innermost run at chunk boundaries.
      const auto grid = info_.chunk_grid();
      std::uint64_t inner = idx[r - 1];
      std::uint64_t remaining = inner_count;
      while (remaining > 0) {
        const std::uint64_t chunk_inner = inner / info_.chunk_dims[r - 1];
        const std::uint64_t within_inner = inner % info_.chunk_dims[r - 1];
        const std::uint64_t run =
            std::min(remaining, info_.chunk_dims[r - 1] - within_inner);
        // Chunk coordinates + linear chunk index.
        std::uint64_t chunk_linear = 0;
        std::uint64_t within_linear = 0;
        for (std::size_t d = 0; d < r; ++d) {
          const std::uint64_t coord = d + 1 == r ? chunk_inner : idx[d] / info_.chunk_dims[d];
          const std::uint64_t within =
              d + 1 == r ? within_inner : idx[d] % info_.chunk_dims[d];
          chunk_linear = chunk_linear * grid[d] + coord;
          within_linear = within_linear * info_.chunk_dims[d] + within;
        }
        emit_extent(info_.data_offset + chunk_linear * info_.chunk_bytes() +
                        within_linear * elem,
                    run * elem);
        inner += run;
        remaining -= run;
      }
    }
    // Odometer increment over dims [0, r-1).
    if (r == 1) break;
    std::size_t d = r - 2;
    for (;;) {
      if (++idx[d] < slab.start[d] + slab.count[d]) break;
      idx[d] = slab.start[d];
      if (d == 0) goto done;
      --d;
    }
  }
done:
  return extents;
}

Result<std::size_t> Dataset::write(const Hyperslab& slab, std::span<const std::byte> data,
                                   bool collective) {
  const SimTime start = file_->now();
  const std::uint64_t want = slab.elements() * info_.elem_size;
  if (data.size() != want) {
    return Error{-22, "dataset write: buffer size mismatch for " + info_.name};
  }
  auto extents = extents_of(slab);
  if (!extents.ok()) return extents.error();
  std::size_t written = 0;
  if (collective) {
    auto r = file_->mio_->write_at_all(extents.value(), data);
    if (!r.ok()) return r;
    written = r.value();
  } else {
    std::size_t pos = 0;
    for (const auto& e : extents.value()) {
      const auto len = static_cast<std::size_t>(e.length.count());
      auto r = file_->mio_->write_at(e.offset, data.subspan(pos, len));
      if (!r.ok()) return r;
      pos += len;
    }
    written = pos;
  }
  file_->emit(trace::OpKind::kWrite, info_.name, written, start, true);
  return written;
}

Result<std::size_t> Dataset::read(const Hyperslab& slab, std::span<std::byte> out,
                                  bool collective) {
  const SimTime start = file_->now();
  const std::uint64_t want = slab.elements() * info_.elem_size;
  if (out.size() != want) {
    return Error{-23, "dataset read: buffer size mismatch for " + info_.name};
  }
  auto extents = extents_of(slab);
  if (!extents.ok()) return extents.error();
  std::size_t read_bytes = 0;
  if (collective) {
    auto r = file_->mio_->read_at_all(extents.value(), out);
    if (!r.ok()) return r;
    read_bytes = r.value();
  } else {
    std::size_t pos = 0;
    for (const auto& e : extents.value()) {
      const auto len = static_cast<std::size_t>(e.length.count());
      auto r = file_->mio_->read_at(e.offset, out.subspan(pos, len));
      if (!r.ok()) return r;
      if (r.value() < len) std::memset(out.data() + pos + r.value(), 0, len - r.value());
      pos += len;
    }
    read_bytes = pos;
  }
  file_->emit(trace::OpKind::kRead, info_.name, read_bytes, start, true);
  return read_bytes;
}

// ------------------------------------------------------------------- H5File

H5File::H5File(par::Comm& comm, std::unique_ptr<mio::File> mio, trace::Sink* sink,
               const trace::Clock* clock)
    : comm_(comm), mio_(std::move(mio)), sink_(sink), clock_(clock) {}

H5File::~H5File() {
  // Collective close must be explicit; the destructor only closes the
  // underlying descriptor (mio::~File handles it).
}

SimTime H5File::now() const { return clock_ != nullptr ? clock_->now() : SimTime::zero(); }

void H5File::emit(trace::OpKind op, const std::string& path, std::uint64_t size, SimTime start,
                  bool ok) {
  if (sink_ == nullptr) return;
  trace::TraceEvent e;
  e.layer = trace::Layer::kHdf5;
  e.op = op;
  e.rank = comm_.rank();
  e.path = path;
  e.size = size;
  e.start = start;
  e.end = now();
  e.ok = ok;
  sink_->record(e);
}

Result<std::unique_ptr<H5File>> H5File::create_all(par::Comm& comm, vfs::Backend& backend,
                                                   const std::string& path,
                                                   const mio::Hints& hints, trace::Sink* sink,
                                                   const trace::Clock* clock) {
  auto mio_file = mio::File::open_all(comm, backend, path, /*create=*/true, hints, sink, clock);
  if (!mio_file.ok()) return mio_file.error();
  auto file = std::unique_ptr<H5File>(
      new H5File{comm, std::move(mio_file.value()), sink, clock});
  file->emit(trace::OpKind::kOpen, path, 0, file->now(), true);
  return file;
}

Result<std::unique_ptr<H5File>> H5File::open_all(par::Comm& comm, vfs::Backend& backend,
                                                 const std::string& path,
                                                 const mio::Hints& hints, trace::Sink* sink,
                                                 const trace::Clock* clock) {
  auto mio_file = mio::File::open_all(comm, backend, path, /*create=*/false, hints, sink, clock);
  if (!mio_file.ok()) return mio_file.error();
  auto file = std::unique_ptr<H5File>(
      new H5File{comm, std::move(mio_file.value()), sink, clock});
  // Every rank parses the header independently (read-only, no races).
  std::vector<std::byte> header(kHeaderSize);
  auto r = file->mio_->read_at(0, header);
  if (!r.ok()) return r.error();
  std::string text(reinterpret_cast<const char*>(header.data()),
                   std::min<std::size_t>(r.value(), kHeaderSize));
  const auto end = text.find('\0');
  if (end != std::string::npos) text.resize(end);
  auto parsed = file->parse_header(text);
  if (!parsed.ok()) return parsed.error();
  file->line_bytes_ = file->serialize_header().size() - header_size(0, file->alloc_cursor_);
  file->emit(trace::OpKind::kOpen, path, 0, file->now(), true);
  return file;
}

Result<bool> H5File::create_group(const std::string& name) {
  if (!valid_name(name)) return Error{-24, "invalid group name: " + name};
  if (std::find(groups_.begin(), groups_.end(), name) == groups_.end()) {
    const std::uint64_t lines = line_bytes_ + group_line(name).size();
    if (header_size(lines, alloc_cursor_) >= kHeaderSize) return header_full(name);
    groups_.push_back(name);
    line_bytes_ = lines;
  }
  emit(trace::OpKind::kMkdir, name, 0, now(), true);
  return true;
}

Result<Dataset> H5File::create_dataset(const std::string& name, std::uint32_t elem_size,
                                       Dataspace space, std::vector<std::uint64_t> chunk_dims) {
  if (!valid_name(name)) return Error{-25, "invalid dataset name: " + name};
  if (datasets_.contains(name)) return Error{-26, "dataset exists: " + name};
  if (auto error = shape_error(name, elem_size, space, chunk_dims)) return *error;
  DatasetInfo info;
  info.name = name;
  info.elem_size = elem_size;
  info.space = std::move(space);
  info.chunk_dims = std::move(chunk_dims);
  info.data_offset = alloc_cursor_;
  // Eager dense allocation: every rank derives the same cursor because
  // create_dataset is collective and deterministic.
  std::uint64_t bytes;
  if (info.chunked()) {
    std::uint64_t chunks = 1;
    for (const auto g : info.chunk_grid()) chunks *= g;
    bytes = chunks * info.chunk_bytes();
  } else {
    bytes = info.space.elements() * info.elem_size;
  }
  const std::uint64_t lines = line_bytes_ + dataset_line(info).size();
  if (header_size(lines, alloc_cursor_ + bytes) >= kHeaderSize) return header_full(name);
  alloc_cursor_ += bytes;
  line_bytes_ = lines;
  const auto [it, inserted] = datasets_.emplace(name, std::move(info));
  emit(trace::OpKind::kOpen, name, 0, now(), true);
  return Dataset{*this, it->second};
}

Result<Dataset> H5File::open_dataset(const std::string& name) {
  const auto it = datasets_.find(name);
  if (it == datasets_.end()) return Error{-29, "no such dataset: " + name};
  emit(trace::OpKind::kOpen, name, 0, now(), true);
  return Dataset{*this, it->second};
}

Result<bool> H5File::set_attribute(const std::string& owner, const std::string& key,
                                   const std::string& value) {
  if (owner != "/" && !datasets_.contains(owner) &&
      std::find(groups_.begin(), groups_.end(), owner) == groups_.end()) {
    return Error{-30, "attribute owner does not exist: " + owner};
  }
  if (key.empty() || key.find_first_of(" \t\n\r") != std::string::npos) {
    return Error{-31, "invalid attribute key: " + key};
  }
  std::uint64_t lines = line_bytes_ + attr_line(owner, key, value).size();
  if (const auto old = attribute(owner, key)) lines -= attr_line(owner, key, *old).size();
  if (header_size(lines, alloc_cursor_) >= kHeaderSize) return header_full(owner + " " + key);
  attributes_[owner][key] = value;
  line_bytes_ = lines;
  return true;
}

std::optional<std::string> H5File::attribute(const std::string& owner,
                                             const std::string& key) const {
  const auto o = attributes_.find(owner);
  if (o == attributes_.end()) return std::nullopt;
  const auto k = o->second.find(key);
  if (k == o->second.end()) return std::nullopt;
  return k->second;
}

std::vector<std::string> H5File::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, info] : datasets_) names.push_back(name);
  return names;
}

std::vector<std::string> H5File::group_names() const { return groups_; }

std::string H5File::serialize_header() const {
  std::string out = kMagicLine;
  out += "\nalloc " + std::to_string(alloc_cursor_) + "\n";
  for (const auto& g : groups_) out += group_line(g);
  for (const auto& [name, d] : datasets_) out += dataset_line(d);
  for (const auto& [owner, kv] : attributes_) {
    for (const auto& [key, value] : kv) out += attr_line(owner, key, value);
  }
  out += "end\n";
  return out;
}

Result<bool> H5File::parse_header(const std::string& text) {
  std::istringstream in{text};
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    return Error{-32, "not an H5-lite file (bad magic)"};
  }
  while (std::getline(in, line)) {
    if (line == "end") return true;
    const auto malformed = [&line] { return Error{-35, "malformed header line: " + line}; };
    std::istringstream ls{line};
    std::string kind;
    ls >> kind;
    if (kind == "alloc") {
      if (!(ls >> alloc_cursor_)) return malformed();
    } else if (kind == "group") {
      std::string name;
      if (!(ls >> name) || !valid_name(name)) return malformed();
      groups_.push_back(name);
    } else if (kind == "dataset") {
      DatasetInfo d;
      std::string tok;
      std::string dims_text;
      std::string chunks_text;
      ls >> d.name >> tok >> d.elem_size >> tok >> dims_text >> tok >> chunks_text >> tok >>
          d.data_offset;
      auto dims = split_u64(dims_text);
      auto chunks = split_u64(chunks_text);
      if (!ls || !valid_name(d.name) || !dims || !chunks) return malformed();
      d.space.dims = std::move(*dims);
      d.chunk_dims = std::move(*chunks);
      if (auto error = shape_error(d.name, d.elem_size, d.space, d.chunk_dims)) return *error;
      datasets_.emplace(d.name, std::move(d));
    } else if (kind == "attr") {
      std::string owner;
      std::string key;
      std::string value;
      if (!(ls >> owner >> key)) return malformed();
      ls >> value;  // an empty value leaves nothing to read
      auto decoded = decode_value(value);
      if (!decoded) return malformed();
      attributes_[owner][key] = std::move(*decoded);
    } else {
      return Error{-33, "unknown header line: " + line};
    }
  }
  return Error{-34, "truncated header (no end marker)"};
}

vfs::FsStatus H5File::close_all() {
  if (closed_) return vfs::FsStatus::kInvalid;
  closed_ = true;
  comm_.barrier();
  if (comm_.rank() == 0) {
    // The metadata calls refuse any line that would not fit, so the header
    // always does.
    std::string header = serialize_header();
    header.resize(kHeaderSize, '\0');
    (void)mio_->write_at(0, std::as_bytes(std::span{header.data(), header.size()}));
  }
  emit(trace::OpKind::kClose, mio_->path(), 0, now(), true);
  return mio_->close_all();
}

}  // namespace pio::h5
