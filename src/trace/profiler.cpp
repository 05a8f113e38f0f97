#include "trace/profiler.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/format.hpp"

namespace pio::trace {

namespace {

/// `total += d`, saturating at SimTime::max(): a trace read from a file may
/// hold events whose durations sum past the range of SimTime.
void add_time(SimTime& total, SimTime d) {
  total = d > SimTime::max() - total ? SimTime::max() : total + d;
}

}  // namespace

void FileRecord::merge(const FileRecord& other) {
  opens += other.opens;
  closes += other.closes;
  reads += other.reads;
  writes += other.writes;
  metadata_ops += other.metadata_ops;
  errors += other.errors;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  add_time(read_time, other.read_time);
  add_time(write_time, other.write_time);
  add_time(meta_time, other.meta_time);
  first_op = std::min(first_op, other.first_op);
  last_op = std::max(last_op, other.last_op);
  read_sizes.merge(other.read_sizes);
  write_sizes.merge(other.write_sizes);
  sequential_reads += other.sequential_reads;
  consecutive_reads += other.consecutive_reads;
  sequential_writes += other.sequential_writes;
  consecutive_writes += other.consecutive_writes;
  max_offset = std::max(max_offset, other.max_offset);
}

Profile::Profile(std::vector<FileRecord> records) : records_(std::move(records)) {}

JobSummary Profile::summarize() const {
  JobSummary s;
  std::set<std::string> files;
  std::set<std::int32_t> ranks;
  SimTime first = SimTime::max();
  SimTime last = SimTime::zero();
  for (const auto& r : records_) {
    files.insert(r.path);
    ranks.insert(r.rank);
    s.reads += r.reads;
    s.writes += r.writes;
    s.metadata_ops += r.metadata_ops;
    s.bytes_read += r.bytes_read;
    s.bytes_written += r.bytes_written;
    add_time(s.read_time, r.read_time);
    add_time(s.write_time, r.write_time);
    add_time(s.meta_time, r.meta_time);
    s.read_sizes.merge(r.read_sizes);
    s.write_sizes.merge(r.write_sizes);
    first = std::min(first, r.first_op);
    last = std::max(last, r.last_op);
  }
  s.total_ops = s.reads + s.writes + s.metadata_ops;
  s.files = files.size();
  s.ranks = ranks.size();
  s.span = records_.empty() ? SimTime::zero() : last - first;
  return s;
}

std::vector<FileRecord> Profile::by_file() const {
  std::map<std::string, FileRecord> merged;
  for (const auto& r : records_) {
    auto [it, inserted] = merged.emplace(r.path, r);
    if (inserted) {
      it->second.rank = -1;  // aggregated across ranks
    } else {
      it->second.merge(r);
    }
  }
  std::vector<FileRecord> out;
  out.reserve(merged.size());
  for (auto& [path, record] : merged) out.push_back(std::move(record));
  return out;
}

std::string Profile::report() const {
  const JobSummary s = summarize();
  std::ostringstream out;
  out << "# I/O characterization profile\n";
  out << "ranks: " << s.ranks << "  files: " << s.files << "  span: " << format_time(s.span)
      << "\n";
  out << "ops: " << s.total_ops << " (reads " << s.reads << ", writes " << s.writes
      << ", metadata " << s.metadata_ops << ")\n";
  out << "bytes read:    " << format_bytes(s.bytes_read) << "\n";
  out << "bytes written: " << format_bytes(s.bytes_written) << "\n";
  out << "time in reads: " << format_time(s.read_time)
      << "  writes: " << format_time(s.write_time) << "  metadata: " << format_time(s.meta_time)
      << "\n";
  if (s.reads > 0) {
    out << "read sizes (log2 buckets):\n" << s.read_sizes.to_string();
  }
  if (s.writes > 0) {
    out << "write sizes (log2 buckets):\n" << s.write_sizes.to_string();
  }
  out << "per-file records:\n";
  for (const auto& r : by_file()) {
    out << "  " << r.path << ": reads " << r.reads << " (" << format_bytes(r.bytes_read)
        << ", seq " << format_percent(r.read_seq_fraction()) << "), writes " << r.writes << " ("
        << format_bytes(r.bytes_written) << ", seq " << format_percent(r.write_seq_fraction())
        << "), meta " << r.metadata_ops << "\n";
  }
  return out.str();
}

void Profiler::record(const TraceEvent& event) {
  if (event.layer != layer_) return;
  // Synchronization/unknown events carry no file: counting them would
  // fabricate an empty-path "file record".
  if (!is_data_op(event.op) && !is_metadata_op(event.op)) return;
  const std::scoped_lock lock(mutex_);
  auto& r = records_[{event.rank, event.path}];
  if (r.path.empty()) {
    r.rank = event.rank;
    r.path = event.path;
  }
  r.first_op = std::min(r.first_op, event.start);
  r.last_op = std::max(r.last_op, event.end);
  if (!event.ok) ++r.errors;
  switch (event.op) {
    case OpKind::kRead: {
      ++r.reads;
      r.bytes_read += Bytes{event.size};
      add_time(r.read_time, event.duration());
      r.read_sizes.add(event.size);
      if (r.saw_read) {
        if (event.offset == r.last_read_end) {
          ++r.consecutive_reads;
          ++r.sequential_reads;
        } else if (event.offset > r.last_read_end) {
          ++r.sequential_reads;
        }
      } else {
        // First access at offset 0 counts as sequential (Darshan does the
        // same: the cursor starts at 0).
        if (event.offset == 0) {
          ++r.sequential_reads;
          ++r.consecutive_reads;
        }
      }
      r.saw_read = true;
      r.last_read_end = event.offset + event.size;
      r.max_offset = std::max(r.max_offset, event.offset + event.size);
      break;
    }
    case OpKind::kWrite: {
      ++r.writes;
      r.bytes_written += Bytes{event.size};
      add_time(r.write_time, event.duration());
      r.write_sizes.add(event.size);
      if (r.saw_write) {
        if (event.offset == r.last_write_end) {
          ++r.consecutive_writes;
          ++r.sequential_writes;
        } else if (event.offset > r.last_write_end) {
          ++r.sequential_writes;
        }
      } else {
        if (event.offset == 0) {
          ++r.sequential_writes;
          ++r.consecutive_writes;
        }
      }
      r.saw_write = true;
      r.last_write_end = event.offset + event.size;
      r.max_offset = std::max(r.max_offset, event.offset + event.size);
      break;
    }
    case OpKind::kOpen:
      ++r.opens;
      ++r.metadata_ops;
      add_time(r.meta_time, event.duration());
      break;
    case OpKind::kClose:
      ++r.closes;
      ++r.metadata_ops;
      add_time(r.meta_time, event.duration());
      break;
    default:
      if (is_metadata_op(event.op)) {
        ++r.metadata_ops;
        add_time(r.meta_time, event.duration());
      }
      break;
  }
}

void Profiler::absorb(const Profile& profile) {
  const std::scoped_lock lock(mutex_);
  for (const FileRecord& record : profile.records()) {
    auto [it, inserted] = records_.try_emplace({record.rank, record.path}, record);
    if (!inserted) it->second.merge(record);
  }
}

Profile Profiler::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<FileRecord> records;
  records.reserve(records_.size());
  for (const auto& [key, record] : records_) records.push_back(record);
  return Profile{std::move(records)};
}

}  // namespace pio::trace
