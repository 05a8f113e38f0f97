#include "mio/mio.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/interval_set.hpp"

namespace pio::mio {

namespace {

/// Byte range [lo, hi) covered by a set of extents.
struct Bounds {
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
};

Bounds bounds_of(std::span<const Extent> extents) {
  Bounds b;
  for (const auto& e : extents) {
    b.lo = std::min(b.lo, e.offset);
    b.hi = std::max(b.hi, e.offset + e.length.count());
  }
  return b;
}

/// A par message: codec-encoded fields followed by raw payload bytes.
par::Buffer to_buffer(const std::vector<std::uint8_t>& fields,
                      std::span<const std::byte> tail = {}) {
  par::Buffer out(fields.size() + tail.size());
  std::ranges::transform(fields, out.begin(), [](std::uint8_t b) { return std::byte{b}; });
  std::ranges::copy(tail, out.begin() + static_cast<std::ptrdiff_t>(fields.size()));
  return out;
}

codec::Reader reader_of(const par::Buffer& buf) {
  return {reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size()};
}

/// The union of every rank's `local` bounds: gathered at rank 0 and
/// broadcast back.
Bounds global_bounds(par::Comm& comm, Bounds local) {
  const auto encode = [](Bounds b) {
    std::vector<std::uint8_t> fields;
    codec::Writer w(fields);
    w.u64(b.lo);
    w.u64(b.hi);
    return to_buffer(fields);
  };
  const auto decode = [](const par::Buffer& buf) {
    codec::Reader r = reader_of(buf);
    Bounds b;
    b.lo = r.u64();
    b.hi = r.u64();
    if (!r.done()) throw std::runtime_error("mio: malformed bounds message");
    return b;
  };
  Bounds global;
  for (const auto& buf : comm.gather(0, encode(local))) {
    const Bounds each = decode(buf);
    global.lo = std::min(global.lo, each.lo);
    global.hi = std::max(global.hi, each.hi);
  }
  return decode(comm.bcast(0, encode(global)));
}

/// Wire format for a piece list (little-endian): u64 count, then per piece
/// u64 offset + u64 length, then the payloads back-to-back. A read request
/// carries no payload.
struct PieceList {
  std::vector<Extent> extents;
  std::vector<std::byte> payload;

  [[nodiscard]] par::Buffer serialize() const {
    std::vector<std::uint8_t> fields;
    codec::Writer w(fields);
    w.u64(extents.size());
    for (const auto& e : extents) {
      w.u64(e.offset);
      w.u64(e.length.count());
    }
    return to_buffer(fields, payload);
  }

  static PieceList deserialize(const par::Buffer& buf) {
    codec::Reader r = reader_of(buf);
    const std::uint64_t n = r.u64();
    // Each piece is 16 bytes: a count the buffer cannot hold is rejected
    // before anything is reserved.
    if (!r.ok() || n > r.remaining() / 16) throw std::runtime_error("PieceList: truncated buffer");
    PieceList list;
    list.extents.reserve(n);
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      Extent e;
      e.offset = r.u64();
      e.length = Bytes{r.u64()};
      if (e.length.count() > UINT64_MAX - total) {
        throw std::runtime_error("PieceList: payload size overflows");
      }
      total += e.length.count();
      list.extents.push_back(e);
    }
    if (r.remaining() != 0 && r.remaining() != total) {
      throw std::runtime_error("PieceList: payload size mismatch");
    }
    const std::size_t at = buf.size() - r.remaining();
    list.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(at), buf.end());
    return list;
  }
};

}  // namespace

Bytes total_length(std::span<const Extent> extents) {
  Bytes total = Bytes::zero();
  for (const auto& e : extents) total += e.length;
  return total;
}

Result<std::unique_ptr<File>> File::open_all(par::Comm& comm, vfs::Backend& backend,
                                             const std::string& path, bool create,
                                             const Hints& hints, trace::Sink* sink,
                                             const trace::Clock* clock) {
  // Rank 0 creates; everyone opens after the existence barrier.
  if (comm.rank() == 0 && create) {
    auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, true, true});
    if (!fd.ok()) {
      comm.barrier();
      return fd.error();
    }
    backend.close(fd.value());
  }
  comm.barrier();
  auto fd = backend.open(path, {vfs::OpenMode::kReadWrite, false, false});
  if (!fd.ok()) return fd.error();
  auto file = std::unique_ptr<File>(
      new File{comm, backend, path, fd.value(), hints, sink, clock});
  return file;
}

File::File(par::Comm& comm, vfs::Backend& backend, std::string path, vfs::Fd fd, Hints hints,
           trace::Sink* sink, const trace::Clock* clock)
    : comm_(comm),
      backend_(backend),
      path_(std::move(path)),
      fd_(fd),
      hints_(hints),
      sink_(sink),
      clock_(clock) {}

File::~File() {
  if (fd_ >= 0) backend_.close(fd_);
}

SimTime File::now() const { return clock_ != nullptr ? clock_->now() : SimTime::zero(); }

void File::emit(trace::OpKind op, std::uint64_t offset, std::uint64_t size, SimTime start,
                bool ok) {
  if (sink_ == nullptr) return;
  trace::TraceEvent e;
  e.layer = trace::Layer::kMpiIo;
  e.op = op;
  e.rank = comm_.rank();
  e.path = path_;
  e.offset = offset;
  e.size = size;
  e.start = start;
  e.end = now();
  e.ok = ok;
  sink_->record(e);
}

Result<std::size_t> File::read_at(std::uint64_t offset, std::span<std::byte> out) {
  const SimTime start = now();
  auto r = backend_.pread(fd_, out, offset);
  if (r.ok()) {
    ++counters_.reads;
    counters_.bytes_read += Bytes{r.value()};
  }
  emit(trace::OpKind::kRead, offset, r.ok() ? r.value() : 0, start, r.ok());
  return r;
}

Result<std::size_t> File::write_at(std::uint64_t offset, std::span<const std::byte> data) {
  const SimTime start = now();
  auto r = backend_.pwrite(fd_, data, offset);
  if (r.ok()) {
    ++counters_.writes;
    counters_.bytes_written += Bytes{r.value()};
  }
  emit(trace::OpKind::kWrite, offset, r.ok() ? r.value() : 0, start, r.ok());
  return r;
}

Result<std::size_t> File::read_strided(std::span<const Extent> extents,
                                       std::span<std::byte> out) {
  const SimTime start = now();
  const Bytes want = total_length(extents);
  if (out.size() != want.count()) {
    return Error{-10, "read_strided: output buffer size mismatch"};
  }
  if (extents.empty()) return std::size_t{0};
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].offset < extents[i - 1].offset + extents[i - 1].length.count()) {
      return Error{-11, "read_strided: extents must be sorted and disjoint"};
    }
  }
  const std::uint64_t lo = extents.front().offset;
  const std::uint64_t hi = extents.back().offset + extents.back().length.count();
  const std::uint64_t span = hi - lo;
  const double hole_fraction =
      span == 0 ? 0.0 : 1.0 - want.as_double() / static_cast<double>(span);
  std::size_t produced = 0;
  if (hints_.ds_max_hole_fraction > 0.0 && hole_fraction <= hints_.ds_max_hole_fraction &&
      span <= hints_.cb_buffer_size.count()) {
    // Data sieving: one big read, extract pieces.
    std::vector<std::byte> gulp(span);
    auto r = backend_.pread(fd_, gulp, lo);
    if (!r.ok()) return r;
    ++counters_.reads;
    counters_.bytes_read += Bytes{r.value()};
    for (const auto& e : extents) {
      const std::size_t within = static_cast<std::size_t>(e.offset - lo);
      const auto len = static_cast<std::size_t>(e.length.count());
      const std::size_t have = r.value() > within ? std::min(len, r.value() - within) : 0;
      if (have > 0) std::memcpy(out.data() + produced, gulp.data() + within, have);
      if (have < len) std::memset(out.data() + produced + have, 0, len - have);
      produced += len;
    }
  } else {
    for (const auto& e : extents) {
      const auto len = static_cast<std::size_t>(e.length.count());
      auto r = backend_.pread(fd_, out.subspan(produced, len), e.offset);
      if (!r.ok()) return r;
      ++counters_.reads;
      counters_.bytes_read += Bytes{r.value()};
      if (r.value() < len) std::memset(out.data() + produced + r.value(), 0, len - r.value());
      produced += len;
    }
  }
  emit(trace::OpKind::kRead, lo, produced, start, true);
  return produced;
}

std::vector<File::Domain> File::split_domains(std::uint64_t lo, std::uint64_t hi,
                                              std::uint32_t aggregators) const {
  std::vector<Domain> domains;
  const std::uint64_t span = hi - lo;
  const std::uint64_t per = (span + aggregators - 1) / aggregators;
  for (std::uint32_t a = 0; a < aggregators; ++a) {
    const std::uint64_t dlo = lo + per * a;
    const std::uint64_t dhi = std::min(hi, dlo + per);
    domains.push_back(Domain{std::min(dlo, hi), dhi});
  }
  return domains;
}

Result<std::size_t> File::write_at_all(std::span<const Extent> extents,
                                       std::span<const std::byte> data) {
  const SimTime start = now();
  const Bytes mine = total_length(extents);
  if (data.size() != mine.count()) {
    return Error{-12, "write_at_all: payload size mismatch"};
  }
  const int size = comm_.size();
  const std::uint32_t aggregators =
      std::min<std::uint32_t>(hints_.cb_nodes, static_cast<std::uint32_t>(size));
  if (aggregators == 0) {
    // Collective buffering disabled: independent writes.
    std::size_t pos = 0;
    for (const auto& e : extents) {
      const auto len = static_cast<std::size_t>(e.length.count());
      auto r = write_at(e.offset, data.subspan(pos, len));
      if (!r.ok()) return r;
      pos += len;
    }
    comm_.barrier();
    return pos;
  }

  // Phase 0: global extent bounds [lo, hi).
  const Bounds local = bounds_of(extents);
  const Bounds global = global_bounds(comm_, local);
  if (global.lo >= global.hi) {
    // Nobody wrote anything.
    comm_.barrier();
    emit(trace::OpKind::kWrite, 0, 0, start, true);
    return std::size_t{0};
  }
  const auto domains = split_domains(global.lo, global.hi, aggregators);

  // Phase 1: route pieces to aggregators.
  std::vector<par::Buffer> outgoing(static_cast<std::size_t>(size));
  {
    std::vector<PieceList> lists(aggregators);
    std::size_t pos = 0;
    for (const auto& e : extents) {
      const auto len = static_cast<std::size_t>(e.length.count());
      // An extent may straddle domain boundaries: split it.
      std::uint64_t cur = e.offset;
      std::size_t consumed = 0;
      while (consumed < len) {
        std::uint32_t owner = aggregators - 1;
        for (std::uint32_t a = 0; a < aggregators; ++a) {
          if (cur >= domains[a].lo && cur < domains[a].hi) {
            owner = a;
            break;
          }
        }
        const std::uint64_t run =
            std::min<std::uint64_t>(len - consumed, domains[owner].hi - cur);
        auto& list = lists[owner];
        list.extents.push_back(Extent{cur, Bytes{run}});
        const auto* src = data.data() + pos + consumed;
        list.payload.insert(list.payload.end(), src, src + run);
        cur += run;
        consumed += static_cast<std::size_t>(run);
      }
      pos += len;
    }
    for (std::uint32_t a = 0; a < aggregators; ++a) {
      outgoing[a] = lists[a].serialize();
    }
    // Non-aggregator destinations get a valid empty list.
    for (std::size_t r = aggregators; r < outgoing.size(); ++r) {
      outgoing[r] = PieceList{}.serialize();
    }
  }
  const auto incoming = comm_.alltoall(std::move(outgoing));

  // Phase 2: aggregators assemble and issue large contiguous writes.
  if (static_cast<std::uint32_t>(comm_.rank()) < aggregators) {
    // Later ranks win on overlap (processed in rank order).
    std::map<std::uint64_t, std::vector<std::byte>> assembly;  // run start -> bytes
    auto deposit = [&](std::uint64_t offset, std::span<const std::byte> bytes) {
      // Coalesce with an existing adjacent/overlapping run.
      auto it = assembly.upper_bound(offset);
      if (it != assembly.begin()) {
        auto prev = std::prev(it);
        const std::uint64_t prev_end = prev->first + prev->second.size();
        if (prev_end >= offset) {
          // Extend/overwrite inside the previous run.
          const std::size_t overlap_at = static_cast<std::size_t>(offset - prev->first);
          if (prev->second.size() < overlap_at + bytes.size()) {
            prev->second.resize(overlap_at + bytes.size());
          }
          std::memcpy(prev->second.data() + overlap_at, bytes.data(), bytes.size());
          // The grown run may now swallow following runs.
          auto next = std::next(prev);
          while (next != assembly.end() &&
                 next->first <= prev->first + prev->second.size()) {
            const std::uint64_t next_end = next->first + next->second.size();
            const std::uint64_t cur_end = prev->first + prev->second.size();
            if (next_end > cur_end) {
              const std::size_t keep = static_cast<std::size_t>(next_end - cur_end);
              const std::size_t from = next->second.size() - keep;
              prev->second.insert(prev->second.end(), next->second.begin() +
                                  static_cast<std::ptrdiff_t>(from), next->second.end());
            }
            next = assembly.erase(next);
          }
          return;
        }
      }
      assembly.emplace(offset, std::vector<std::byte>(bytes.begin(), bytes.end()));
      // New run may touch the following one.
      auto inserted = assembly.find(offset);
      auto next = std::next(inserted);
      while (next != assembly.end() &&
             next->first <= inserted->first + inserted->second.size()) {
        const std::uint64_t next_end = next->first + next->second.size();
        const std::uint64_t cur_end = inserted->first + inserted->second.size();
        if (next_end > cur_end) {
          const std::size_t keep = static_cast<std::size_t>(next_end - cur_end);
          const std::size_t from = next->second.size() - keep;
          inserted->second.insert(inserted->second.end(), next->second.begin() +
                                  static_cast<std::ptrdiff_t>(from), next->second.end());
        }
        next = assembly.erase(next);
      }
    };
    for (const auto& buf : incoming) {
      const PieceList list = PieceList::deserialize(buf);
      std::size_t pos = 0;
      for (const auto& e : list.extents) {
        const auto len = static_cast<std::size_t>(e.length.count());
        deposit(e.offset, std::span{list.payload.data() + pos, len});
        pos += len;
      }
    }
    // Issue one POSIX write per contiguous run, chunked at cb_buffer_size.
    for (const auto& [offset, bytes] : assembly) {
      std::size_t written = 0;
      while (written < bytes.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(bytes.size() - written,
                                  static_cast<std::size_t>(hints_.cb_buffer_size.count()));
        auto r = backend_.pwrite(fd_, std::span{bytes.data() + written, chunk},
                                 offset + written);
        if (!r.ok()) {
          comm_.barrier();
          return r;
        }
        ++counters_.writes;
        counters_.bytes_written += Bytes{r.value()};
        written += chunk;
      }
    }
  }
  comm_.barrier();  // collective completion
  emit(trace::OpKind::kWrite, local.lo == UINT64_MAX ? 0 : local.lo, mine.count(), start, true);
  return static_cast<std::size_t>(mine.count());
}

Result<std::size_t> File::read_at_all(std::span<const Extent> extents,
                                      std::span<std::byte> out) {
  const SimTime start = now();
  const Bytes mine = total_length(extents);
  if (out.size() != mine.count()) {
    return Error{-13, "read_at_all: output buffer size mismatch"};
  }
  const int size = comm_.size();
  const std::uint32_t aggregators =
      std::min<std::uint32_t>(hints_.cb_nodes, static_cast<std::uint32_t>(size));
  if (aggregators == 0) {
    std::size_t pos = 0;
    for (const auto& e : extents) {
      const auto len = static_cast<std::size_t>(e.length.count());
      auto r = read_at(e.offset, out.subspan(pos, len));
      if (!r.ok()) return r;
      pos += len;
    }
    comm_.barrier();
    return pos;
  }

  // Phase 0: global extent bounds [lo, hi).
  const Bounds local = bounds_of(extents);
  const Bounds global = global_bounds(comm_, local);
  if (global.lo >= global.hi) {
    comm_.barrier();
    emit(trace::OpKind::kRead, 0, 0, start, true);
    return std::size_t{0};
  }
  const auto domains = split_domains(global.lo, global.hi, aggregators);

  // Phase 1: send requests (piece lists without payload) to aggregators.
  std::vector<par::Buffer> requests(static_cast<std::size_t>(size));
  {
    std::vector<PieceList> lists(aggregators);
    for (const auto& e : extents) {
      std::uint64_t cur = e.offset;
      std::uint64_t remaining = e.length.count();
      while (remaining > 0) {
        std::uint32_t owner = aggregators - 1;
        for (std::uint32_t a = 0; a < aggregators; ++a) {
          if (cur >= domains[a].lo && cur < domains[a].hi) {
            owner = a;
            break;
          }
        }
        const std::uint64_t run = std::min(remaining, domains[owner].hi - cur);
        lists[owner].extents.push_back(Extent{cur, Bytes{run}});
        cur += run;
        remaining -= run;
      }
    }
    for (std::uint32_t a = 0; a < aggregators; ++a) requests[a] = lists[a].serialize();
    for (std::size_t r = aggregators; r < requests.size(); ++r) {
      requests[r] = PieceList{}.serialize();
    }
  }
  const auto incoming_requests = comm_.alltoall(std::move(requests));

  // Phase 2: aggregators read their domain (coalesced) and answer.
  std::vector<par::Buffer> replies(static_cast<std::size_t>(size));
  for (auto& r : replies) r = PieceList{}.serialize();
  if (static_cast<std::uint32_t>(comm_.rank()) < aggregators) {
    // Union of requested ranges in this domain.
    IntervalSet wanted;
    std::vector<PieceList> parsed;
    parsed.reserve(incoming_requests.size());
    for (const auto& buf : incoming_requests) {
      parsed.push_back(PieceList::deserialize(buf));
      for (const auto& e : parsed.back().extents) {
        wanted.insert(e.offset, e.offset + e.length.count());
      }
    }
    // One big read per covered run (chunked at cb_buffer_size).
    std::map<std::uint64_t, std::vector<std::byte>> cache;
    for (const auto& run : wanted.to_vector()) {
      std::vector<std::byte> bytes(run.hi - run.lo);
      std::size_t got = 0;
      while (got < bytes.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(bytes.size() - got,
                                  static_cast<std::size_t>(hints_.cb_buffer_size.count()));
        auto r = backend_.pread(fd_, std::span{bytes.data() + got, chunk}, run.lo + got);
        if (!r.ok()) {
          comm_.barrier();
          return r;
        }
        ++counters_.reads;
        counters_.bytes_read += Bytes{r.value()};
        if (r.value() < chunk) {
          std::memset(bytes.data() + got + r.value(), 0, chunk - r.value());
        }
        got += chunk;
      }
      cache.emplace(run.lo, std::move(bytes));
    }
    auto fetch = [&](std::uint64_t offset, std::span<std::byte> into) {
      const auto it = std::prev(cache.upper_bound(offset));
      const std::size_t within = static_cast<std::size_t>(offset - it->first);
      std::memcpy(into.data(), it->second.data() + within, into.size());
    };
    for (int requester = 0; requester < size; ++requester) {
      const auto& req = parsed[static_cast<std::size_t>(requester)];
      PieceList reply;
      reply.extents = req.extents;
      reply.payload.resize(total_length(req.extents).count());
      std::size_t pos = 0;
      for (const auto& e : req.extents) {
        const auto len = static_cast<std::size_t>(e.length.count());
        fetch(e.offset, std::span{reply.payload.data() + pos, len});
        pos += len;
      }
      replies[static_cast<std::size_t>(requester)] = reply.serialize();
    }
  }
  const auto incoming_data = comm_.alltoall(std::move(replies));

  // Phase 3: assemble my pieces in extent order.
  std::map<std::uint64_t, std::pair<const par::Buffer*, std::size_t>> piece_index;
  std::vector<PieceList> data_lists;
  data_lists.reserve(incoming_data.size());
  for (const auto& buf : incoming_data) data_lists.push_back(PieceList::deserialize(buf));
  // Build offset -> (list, payload pos) lookup.
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> lookup;  // offset -> (list, pos)
  for (std::size_t l = 0; l < data_lists.size(); ++l) {
    std::size_t pos = 0;
    for (const auto& e : data_lists[l].extents) {
      lookup[e.offset] = {l, pos};
      pos += static_cast<std::size_t>(e.length.count());
    }
  }
  std::size_t out_pos = 0;
  for (const auto& e : extents) {
    std::uint64_t cur = e.offset;
    std::uint64_t remaining = e.length.count();
    while (remaining > 0) {
      const auto it = lookup.find(cur);
      if (it == lookup.end()) {
        comm_.barrier();
        return Error{-14, "read_at_all: missing piece at offset " + std::to_string(cur)};
      }
      // The piece at `cur` covers min(remaining, its length) bytes.
      const auto [l, pos] = it->second;
      // Find the piece length from the list.
      std::uint64_t piece_len = 0;
      {
        std::size_t scan_pos = 0;
        for (const auto& pe : data_lists[l].extents) {
          if (pe.offset == cur && scan_pos == pos) {
            piece_len = pe.length.count();
            break;
          }
          scan_pos += static_cast<std::size_t>(pe.length.count());
        }
      }
      const std::uint64_t run = std::min(remaining, piece_len);
      std::memcpy(out.data() + out_pos, data_lists[l].payload.data() + pos,
                  static_cast<std::size_t>(run));
      out_pos += static_cast<std::size_t>(run);
      cur += run;
      remaining -= run;
    }
  }
  comm_.barrier();
  emit(trace::OpKind::kRead, local.lo == UINT64_MAX ? 0 : local.lo, mine.count(), start, true);
  return static_cast<std::size_t>(mine.count());
}

vfs::FsStatus File::close_all() {
  comm_.barrier();
  if (comm_.rank() == 0) backend_.fsync(fd_);
  const SimTime start = now();
  const auto status = backend_.close(fd_);
  fd_ = -1;
  emit(trace::OpKind::kClose, 0, 0, start, status == vfs::FsStatus::kOk);
  comm_.barrier();
  return status;
}

}  // namespace pio::mio
