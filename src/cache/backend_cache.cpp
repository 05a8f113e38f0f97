#include "cache/backend_cache.hpp"

#include <algorithm>
#include <cstring>

namespace pio::cache {

namespace {

Error cache_full_error() {
  return Error{-7,
               "cache: write-back failed and the cache is full of dirty pages; "
               "refusing to acknowledge a write that could be dropped (C1)"};
}

}  // namespace

CacheBackend::CacheBackend(vfs::Backend& inner, const CacheConfig& config)
    : inner_(inner), config_(config), cache_(config) {
  config_.validate();
}

CacheBackend::FileState* CacheBackend::state_of(vfs::Fd fd) {
  const auto it = fd_paths_.find(fd);
  if (it == fd_paths_.end()) return nullptr;
  const auto fs = files_.find(it->second);
  return fs == files_.end() ? nullptr : &fs->second;
}

vfs::Fd CacheBackend::any_fd_of(std::uint64_t file_id) const {
  const auto path = paths_by_id_.find(file_id);
  if (path == paths_by_id_.end()) return -1;
  const auto fs = files_.find(path->second);
  if (fs == files_.end() || fs->second.open_fds.empty()) return -1;
  return *fs->second.open_fds.begin();
}

Result<vfs::Fd> CacheBackend::open(const std::string& path, const vfs::OpenOptions& options) {
  const std::scoped_lock lock(mutex_);
  auto fd = inner_.open(path, options);
  if (!fd.ok()) return fd;
  auto [it, inserted] = files_.try_emplace(path);
  FileState& fs = it->second;
  if (inserted) {
    fs.id = next_file_id_++;
    paths_by_id_.emplace(fs.id, path);
  }
  if (options.truncate && options.mode != vfs::OpenMode::kRead) {
    // Inner truncated the file: cached pages (dirty included — truncation
    // discards them like unlink does) and the size view are stale.
    cache_.erase_file(fs.id);
    fs.size = Bytes::zero();
  } else if (inserted) {
    if (const auto info = inner_.stat(path); info.ok()) fs.size = info.value().size;
  }
  fs.open_fds.insert(fd.value());
  fd_paths_.emplace(fd.value(), path);
  return fd;
}

Page* CacheBackend::fill_page(vfs::Fd fd, FileState& fs, std::uint64_t page_index,
                              bool prefetched, Error* error) {
  const std::uint64_t psz = config_.page_size.count();
  std::vector<std::byte> buffer(static_cast<std::size_t>(psz));
  const auto got = inner_.pread(fd, buffer, page_index * psz);
  if (!got.ok()) {
    if (error != nullptr) *error = got.error();
    return nullptr;
  }
  Page& page = cache_.insert(PageKey{fs.id, page_index}, SimTime::zero());
  page.data = std::move(buffer);
  page.valid_bytes = got.value();
  page.prefetched = prefetched;
  if (prefetched) ++cache_.stats_mut().cache_prefetch_issued;
  return &page;
}

Result<std::size_t> CacheBackend::pread(vfs::Fd fd, std::span<std::byte> out,
                                        std::uint64_t offset) {
  const std::scoped_lock lock(mutex_);
  FileState* fs = state_of(fd);
  if (fs == nullptr) return inner_.pread(fd, out, offset);  // unknown fd: let inner diagnose
  if (out.empty()) return std::size_t{0};
  const std::uint64_t size = fs->size.count();
  if (offset >= size) return std::size_t{0};  // read at/past EOF
  const std::uint64_t readable = std::min<std::uint64_t>(out.size(), size - offset);
  const std::uint64_t psz = config_.page_size.count();
  const std::uint64_t first = offset / psz;
  const std::uint64_t last = (offset + readable - 1) / psz;
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t page_start = p * psz;
    const std::uint64_t lo = std::max(offset, page_start);
    const std::uint64_t hi = std::min(offset + readable, page_start + psz);
    Page* page = cache_.lookup(PageKey{fs->id, p}, SimTime::zero());
    if (page == nullptr) {
      Error error{};
      page = fill_page(fd, *fs, p, /*prefetched=*/false, &error);
      if (page == nullptr) return error;
      cache_.stats_mut().miss_bytes += Bytes{hi - lo};
    } else {
      cache_.stats_mut().hit_bytes += Bytes{hi - lo};
    }
    // Within-file bytes past the page's valid extent are holes: zeros.
    const std::uint64_t valid_end = page_start + page->valid_bytes;
    const std::uint64_t copy_hi = std::min(hi, std::max(lo, valid_end));
    if (copy_hi > lo) {
      std::memcpy(out.data() + (lo - offset), page->data.data() + (lo - page_start),
                  static_cast<std::size_t>(copy_hi - lo));
    }
    if (hi > copy_hi) {
      std::memset(out.data() + (copy_hi - offset), 0, static_cast<std::size_t>(hi - copy_hi));
    }
  }
  if (config_.prefetch == PrefetchMode::kSequential) {
    if (offset == fs->next_offset) {
      const std::uint64_t end_page = last;
      for (std::uint32_t ahead = 1; ahead <= config_.readahead_pages; ++ahead) {
        const std::uint64_t p = end_page + ahead;
        if (p * psz >= size) break;  // nothing beyond EOF to prefetch
        if (cache_.contains(PageKey{fs->id, p})) continue;
        Error error{};
        if (fill_page(fd, *fs, p, /*prefetched=*/true, &error) == nullptr) break;
      }
    }
    fs->next_offset = offset + readable;
  }
  return static_cast<std::size_t>(readable);
}

bool CacheBackend::write_back_page(const PageKey& key) {
  Page* page = cache_.peek(key);
  if (page == nullptr || !page->dirty) return true;
  const vfs::Fd fd = any_fd_of(key.file);
  if (fd < 0) {
    ++cache_.stats_mut().writeback_failures;
    return false;  // no open descriptor; stays dirty until the next flush
  }
  const std::uint64_t psz = config_.page_size.count();
  const auto wrote = inner_.pwrite(
      fd, std::span<const std::byte>(page->data.data(), page->valid_bytes), key.page * psz);
  if (!wrote.ok() || wrote.value() != page->valid_bytes) {
    ++cache_.stats_mut().writeback_failures;
    return false;  // stays dirty: C1 — acknowledged bytes are never dropped
  }
  cache_.mark_clean(key);
  ++cache_.stats_mut().cache_writebacks;
  cache_.stats_mut().writeback_bytes += Bytes{page->valid_bytes};
  return true;
}

bool CacheBackend::flush_oldest(std::size_t max) {
  for (const PageKey& key : cache_.oldest_dirty(max)) {
    if (!write_back_page(key)) return false;
  }
  return true;
}

bool CacheBackend::flush_file(FileState& fs) {
  ++cache_.stats_mut().flushes;
  for (const PageKey& key : cache_.oldest_dirty(cache_.dirty_count())) {
    if (key.file != fs.id) continue;
    if (!write_back_page(key)) return false;
  }
  return true;
}

Result<std::size_t> CacheBackend::pwrite(vfs::Fd fd, std::span<const std::byte> data,
                                         std::uint64_t offset) {
  const std::scoped_lock lock(mutex_);
  FileState* fs = state_of(fd);
  if (fs == nullptr) return inner_.pwrite(fd, data, offset);
  if (data.empty()) return std::size_t{0};
  if (!config_.write_back) {
    // Write-through: durable first, then cache the pages clean so re-reads
    // hit (write-allocate).
    const auto wrote = inner_.pwrite(fd, data, offset);
    if (!wrote.ok()) return wrote;
    fs->size = std::max(fs->size, Bytes{offset + wrote.value()});
  }
  const std::uint64_t psz = config_.page_size.count();
  const std::uint64_t first = offset / psz;
  const std::uint64_t last = (offset + data.size() - 1) / psz;
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t page_start = p * psz;
    const std::uint64_t lo = std::max(offset, page_start);
    const std::uint64_t hi = std::min(offset + data.size(), page_start + psz);
    Page* page = cache_.peek(PageKey{fs->id, p});
    if (page != nullptr) {
      // resident: overwrite in place (no hit/miss accounting on writes)
    } else if ((lo != page_start || hi != page_start + psz) &&
               page_start < fs->size.count()) {
      // Partial write over existing content: read-modify-write.
      Error error{};
      page = fill_page(fd, *fs, p, /*prefetched=*/false, &error);
      if (page == nullptr) return error;
    } else {
      if (config_.write_back && cache_.dirty_count() >= config_.capacity_pages - 1 &&
          !flush_oldest(config_.max_dirty_pages)) {
        return cache_full_error();  // cannot make a clean victim: refuse, not drop
      }
      page = &cache_.insert(PageKey{fs->id, p}, SimTime::zero());
      page->data.assign(static_cast<std::size_t>(psz), std::byte{0});
      page->valid_bytes = 0;
    }
    if (page->data.size() < psz) page->data.resize(static_cast<std::size_t>(psz), std::byte{0});
    std::memcpy(page->data.data() + (lo - page_start), data.data() + (lo - offset),
                static_cast<std::size_t>(hi - lo));
    page->valid_bytes = std::max(page->valid_bytes, hi - page_start);
    ++page->version;
    if (config_.write_back) cache_.mark_dirty(PageKey{fs->id, p});
  }
  if (config_.write_back) {
    fs->size = std::max(fs->size, Bytes{offset + data.size()});
    ++cache_.stats_mut().cache_absorbed_writes;
    cache_.stats_mut().absorbed_bytes += Bytes{data.size()};
    if (cache_.dirty_count() > config_.max_dirty_pages) {
      // Best-effort pressure relief; failures leave pages dirty for the
      // fsync/close barrier to surface.
      (void)flush_oldest(cache_.dirty_count() - config_.max_dirty_pages);
    }
  }
  return data.size();
}

vfs::FsStatus CacheBackend::close(vfs::Fd fd) {
  const std::scoped_lock lock(mutex_);
  FileState* fs = state_of(fd);
  if (fs == nullptr) return inner_.close(fd);
  if (!flush_file(*fs)) return vfs::FsStatus::kInvalid;  // stays open; caller retries
  const vfs::FsStatus status = inner_.close(fd);
  fs->open_fds.erase(fd);
  fd_paths_.erase(fd);
  return status;
}

vfs::FsStatus CacheBackend::fsync(vfs::Fd fd) {
  const std::scoped_lock lock(mutex_);
  FileState* fs = state_of(fd);
  if (fs == nullptr) return inner_.fsync(fd);
  if (!flush_file(*fs)) return vfs::FsStatus::kInvalid;
  return inner_.fsync(fd);
}

vfs::FsStatus CacheBackend::mkdir(const std::string& path) {
  const std::scoped_lock lock(mutex_);
  return inner_.mkdir(path);
}

vfs::FsStatus CacheBackend::remove(const std::string& path) {
  const std::scoped_lock lock(mutex_);
  const vfs::FsStatus status = inner_.remove(path);
  if (status == vfs::FsStatus::kOk) {
    if (const auto it = files_.find(path); it != files_.end()) {
      cache_.erase_file(it->second.id);
      paths_by_id_.erase(it->second.id);
      files_.erase(it);
    }
  }
  return status;
}

Result<vfs::FileInfo> CacheBackend::stat(const std::string& path) {
  const std::scoped_lock lock(mutex_);
  auto info = inner_.stat(path);
  if (!info.ok()) return info;
  // Dirty extensions live only in the cache until write-back; surface the
  // caller-visible size, not the backend's stale one.
  if (const auto it = files_.find(path); it != files_.end() && !info.value().is_dir) {
    info.value().size = std::max(info.value().size, it->second.size);
  }
  return info;
}

Result<std::vector<std::string>> CacheBackend::readdir(const std::string& path) {
  const std::scoped_lock lock(mutex_);
  return inner_.readdir(path);
}

CacheStats CacheBackend::stats() const {
  const std::scoped_lock lock(mutex_);
  return cache_.stats();
}

std::uint64_t CacheBackend::dirty_pages() const {
  const std::scoped_lock lock(mutex_);
  return cache_.dirty_count();
}

std::uint64_t CacheBackend::cached_pages() const {
  const std::scoped_lock lock(mutex_);
  return cache_.size();
}

}  // namespace pio::cache
