#include "cache/client_tier.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"

namespace pio::cache {

namespace {

/// In-flight cap for epoch-warming prefetch reads, per cache instance.
constexpr std::uint32_t kWarmConcurrency = 4;

}  // namespace

ClientCacheTier::ClientCacheTier(sim::Engine& engine, pfs::PfsModel& model,
                                 const CacheConfig& config, std::int32_t ranks)
    : engine_(engine), model_(model), config_(config) {
  config_.validate();
  const std::size_t slots =
      config_.scope == CacheScope::kShared ? 1 : static_cast<std::size_t>(std::max(ranks, 1));
  slots_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    slots_.push_back(std::make_unique<Slot>(config_));
    slots_.back()->cache.set_eviction_observer([this](const Page& page) {
      record(CacheEventKind::kEviction, page.owner, config_.page_size);
    });
  }
}

std::size_t ClientCacheTier::slot_index(std::int32_t rank) const {
  if (config_.scope == CacheScope::kShared) return 0;
  return static_cast<std::size_t>(rank) % slots_.size();
}

pfs::ClientId ClientCacheTier::client_of(std::int32_t rank) const {
  return static_cast<pfs::ClientId>(rank) % model_.config().clients;
}

void ClientCacheTier::see(FileId file, const pfs::StripeLayout& layout) {
  if (file >= layouts_.size()) layouts_.resize(std::size_t{file} + 1);
  if (!layouts_[file]) layouts_[file] = layout;
}

const pfs::StripeLayout& ClientCacheTier::layout_of(std::uint64_t file) const {
  return layouts_.at(file).value();  // every cached page's file was seen first
}

bool ClientCacheTier::can_insert(const PageCache& cache, std::uint64_t capacity) {
  // Free slot, or at least one clean resident page to evict (C1: a cache
  // full of dirty pages must not accept an insert).
  return cache.size() < capacity || cache.dirty_count() < cache.size();
}

void ClientCacheTier::record(CacheEventKind kind, std::int32_t rank, Bytes bytes) {
  const SimTime now = engine_.now();
  engine_.emit({.layer = obs::Layer::kCache, .kind = static_cast<std::uint8_t>(kind),
                .component = static_cast<std::uint32_t>(rank), .start = now, .end = now,
                .bytes = bytes});
}

void ClientCacheTier::note_access(Slot& slot, PageKey key) {
  if (config_.prefetch != PrefetchMode::kEpoch) return;
  if (slot.epoch_seen.insert(key).second) slot.epoch_order.push_back(key);
}

SimTime ClientCacheTier::local_cost(Bytes bytes) const {
  return config_.hit_latency + config_.local_bandwidth.transfer_time(bytes);
}

namespace {

/// Completion latch shared by the local-service leg and each miss-run fetch.
struct IoLatch {
  std::size_t pending = 0;
  bool ok = true;
  Bytes hit = Bytes::zero();
  ClientCacheTier::IoDone done;

  void arm(bool leg_ok) {
    if (!leg_ok) ok = false;
    if (--pending == 0) done(ok, hit);
  }
};

}  // namespace

void ClientCacheTier::read(std::int32_t rank, FileId file, const pfs::StripeLayout& layout,
                           std::uint64_t offset, Bytes size, IoDone on_done) {
  if (size == Bytes::zero()) {
    engine_.schedule_after(SimTime::zero(),
                           [on_done] { on_done(true, Bytes::zero()); });
    return;
  }
  see(file, layout);
  const std::size_t sidx = slot_index(rank);
  Slot& slot = *slots_[sidx];
  const std::uint64_t psz = config_.page_size.count();
  const std::uint64_t first = offset / psz;
  const std::uint64_t last = (offset + size.count() - 1) / psz;

  struct Run {
    std::uint64_t first_page = 0;
    std::uint64_t pages = 0;
  };
  Bytes hit = Bytes::zero();
  Bytes missed = Bytes::zero();
  std::vector<Run> runs;
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t lo = std::max(offset, p * psz);
    const std::uint64_t hi = std::min(offset + size.count(), (p + 1) * psz);
    const PageKey key{file, p};
    note_access(slot, key);
    if (slot.cache.lookup(key, engine_.now()) != nullptr) {
      hit += Bytes{hi - lo};
    } else {
      missed += Bytes{hi - lo};
      if (!runs.empty() && runs.back().first_page + runs.back().pages == p) {
        ++runs.back().pages;
      } else {
        runs.push_back(Run{p, 1});
      }
    }
  }
  slot.cache.stats_mut().hit_bytes += hit;
  slot.cache.stats_mut().miss_bytes += missed;
  if (hit > Bytes::zero()) record(CacheEventKind::kHit, rank, hit);
  if (missed > Bytes::zero()) record(CacheEventKind::kMiss, rank, missed);

  auto latch = std::make_shared<IoLatch>();
  latch->pending = runs.size() + 1;
  latch->hit = hit;
  latch->done = std::move(on_done);
  // The cached portion (and the fixed lookup hop) is served at node-local
  // speed; pure misses still pay the lookup latency before going remote.
  engine_.schedule_after(hit > Bytes::zero() ? local_cost(hit) : config_.hit_latency,
                         [latch] { latch->arm(true); });
  const pfs::ClientId client = client_of(rank);
  for (const Run& run : runs) {
    // Misses fetch whole pages: page-aligned, page-granular (may over-fetch
    // relative to the request — that cost is the point of measuring it).
    model_.io(client, file, layout, run.first_page * psz, Bytes{run.pages * psz},
              /*is_write=*/false,
              [this, sidx, file, run, rank, latch](pfs::IoResult result) {
                if (result.ok) {
                  Slot& s = *slots_[sidx];
                  for (std::uint64_t i = 0; i < run.pages; ++i) {
                    const PageKey key{file, run.first_page + i};
                    if (s.cache.contains(key)) continue;
                    if (!can_insert(s.cache, config_.capacity_pages)) break;
                    Page& page = s.cache.insert(key, engine_.now());
                    page.owner = rank;
                    page.valid_bytes = config_.page_size.count();
                  }
                }
                latch->arm(result.ok);
              });
  }

  if (config_.prefetch == PrefetchMode::kSequential) {
    auto& next = slot.next_offset[file];
    const bool sequential = offset == next;
    next = offset + size.count();
    if (sequential) {
      std::uint64_t pf_first = 0;
      std::uint64_t pf_count = 0;
      for (std::uint32_t ahead = 1; ahead <= config_.readahead_pages; ++ahead) {
        const PageKey key{file, last + ahead};
        if (slot.cache.contains(key)) continue;
        if (!can_insert(slot.cache, config_.capacity_pages)) break;
        if (pf_count == 0) pf_first = key.page;
        if (pf_count > 0 && pf_first + pf_count != key.page) break;  // keep one run
        ++pf_count;
      }
      if (pf_count > 0) {
        slot.cache.stats_mut().cache_prefetch_issued += pf_count;
        record(CacheEventKind::kPrefetchIssue, rank, Bytes{pf_count * psz});
        model_.io(client, file, layout, pf_first * psz, Bytes{pf_count * psz},
                  /*is_write=*/false,
                  [this, sidx, file, pf_first, pf_count, rank](pfs::IoResult result) {
                    if (!result.ok) {
                      slots_[sidx]->cache.stats_mut().cache_prefetch_wasted += pf_count;
                      return;  // speculation: failures are not retried
                    }
                    Slot& s = *slots_[sidx];
                    for (std::uint64_t i = 0; i < pf_count; ++i) {
                      const PageKey key{file, pf_first + i};
                      if (s.cache.contains(key) ||
                          !can_insert(s.cache, config_.capacity_pages)) {
                        ++s.cache.stats_mut().cache_prefetch_wasted;
                        continue;
                      }
                      Page& page = s.cache.insert(key, engine_.now());
                      page.owner = rank;
                      page.prefetched = true;
                      page.valid_bytes = config_.page_size.count();
                    }
                  });
      }
    }
  }
}

void ClientCacheTier::write(std::int32_t rank, FileId file, const pfs::StripeLayout& layout,
                            std::uint64_t offset, Bytes size, IoDone on_done) {
  if (size == Bytes::zero()) {
    engine_.schedule_after(SimTime::zero(),
                           [on_done] { on_done(true, Bytes::zero()); });
    return;
  }
  see(file, layout);
  const std::size_t sidx = slot_index(rank);
  Slot& slot = *slots_[sidx];
  const std::uint64_t psz = config_.page_size.count();
  const std::uint64_t first = offset / psz;
  const std::uint64_t last = (offset + size.count() - 1) / psz;
  const std::uint64_t pages = last - first + 1;

  bool absorb = config_.write_back;
  if (absorb) {
    // Conservative headroom check: the op dirties up to `pages` pages and
    // may insert that many new ones; if clean victims could run out midway,
    // degrade to write-through rather than risk an unevictable cache (C1).
    const std::uint64_t free_slots = config_.capacity_pages - slot.cache.size();
    const std::uint64_t clean = slot.cache.size() - slot.cache.dirty_count();
    if (pages * 2 > free_slots + clean) absorb = false;
  }

  if (!absorb) {
    // Write-through: the op costs the full simulated path; pages the cache
    // already holds are refreshed in place so later reads stay coherent.
    model_.io(client_of(rank), file, layout, offset, size, /*is_write=*/true,
              [this, sidx, file, first, last, offset, size, rank, psz,
               on_done](pfs::IoResult result) {
                if (result.ok) {
                  Slot& s = *slots_[sidx];
                  for (std::uint64_t p = first; p <= last; ++p) {
                    Page* page = s.cache.peek(PageKey{file, p});
                    if (page == nullptr) continue;
                    const std::uint64_t hi = std::min(offset + size.count(), (p + 1) * psz);
                    page->valid_bytes = std::max(page->valid_bytes, hi - p * psz);
                    page->owner = rank;
                    ++page->version;
                  }
                }
                on_done(result.ok, Bytes::zero());
              });
    return;
  }

  for (std::uint64_t p = first; p <= last; ++p) {
    const PageKey key{file, p};
    note_access(slot, key);
    const std::uint64_t hi = std::min(offset + size.count(), (p + 1) * psz);
    Page& page = slot.cache.insert(key, engine_.now());  // resident or fresh
    page.owner = rank;
    page.valid_bytes = std::max(page.valid_bytes, hi - p * psz);
    ++page.version;
    slot.cache.mark_dirty(key);
  }
  ++slot.cache.stats_mut().cache_absorbed_writes;
  slot.cache.stats_mut().absorbed_bytes += size;
  record(CacheEventKind::kAbsorbedWrite, rank, size);
  engine_.schedule_after(local_cost(size),
                         [on_done, size] { on_done(true, size); });
  pump_writebacks(sidx);
}

void ClientCacheTier::settle_page(std::size_t slot_idx, PageKey key,
                                  std::function<void()> on_clean) {
  Slot& slot = *slots_[slot_idx];
  Page* page = slot.cache.peek(key);
  if (page == nullptr || !page->dirty) {
    on_clean();
    return;
  }
  if (slot.inflight.contains(key)) {
    // Another flush owns this page's write-back; check again after it.
    engine_.schedule_after(config_.writeback_retry,
                           [this, slot_idx, key, on_clean = std::move(on_clean)] {
                             settle_page(slot_idx, key, on_clean);
                           });
    return;
  }
  slot.inflight.insert(key);
  const Bytes bytes{page->valid_bytes};
  const std::uint64_t version = page->version;
  const std::int32_t owner = page->owner;
  model_.io(client_of(owner), static_cast<FileId>(key.file), layout_of(key.file),
            key.page * config_.page_size.count(), bytes, /*is_write=*/true,
            [this, slot_idx, key, bytes, version, owner,
             on_clean = std::move(on_clean)](pfs::IoResult result) {
              Slot& s = *slots_[slot_idx];
              s.inflight.erase(key);
              Page* now_page = s.cache.peek(key);
              if (now_page == nullptr) {  // invalidated mid-flight (unlink)
                on_clean();
                return;
              }
              // A rewrite during the flight means the landed bytes are stale:
              // the page stays dirty and goes around again (C1).
              if (result.ok && now_page->version == version) {
                s.cache.mark_clean(key);
                ++s.cache.stats_mut().cache_writebacks;
                s.cache.stats_mut().writeback_bytes += bytes;
                record(CacheEventKind::kWriteback, owner, bytes);
                on_clean();
                return;
              }
              if (!result.ok) ++s.cache.stats_mut().writeback_failures;
              engine_.schedule_after(config_.writeback_retry,
                                     [this, slot_idx, key, on_clean] {
                                       settle_page(slot_idx, key, on_clean);
                                     });
            });
}

void ClientCacheTier::pump_writebacks(std::size_t slot_idx) {
  Slot& slot = *slots_[slot_idx];
  const std::uint64_t dirty = slot.cache.dirty_count();
  if (dirty <= config_.max_dirty_pages) return;
  for (const PageKey& key : slot.cache.oldest_dirty(dirty - config_.max_dirty_pages)) {
    settle_page(slot_idx, key, [] {});
  }
}

void ClientCacheTier::flush_path(std::int32_t rank, FileId file, std::function<void()> on_done) {
  if (file >= layouts_.size() || !layouts_[file]) {  // never cached: nothing to flush
    engine_.schedule_after(SimTime::zero(), std::move(on_done));
    return;
  }
  ++slots_[slot_index(rank)]->cache.stats_mut().flushes;
  auto latch = std::make_shared<std::size_t>(1);
  auto arm = [latch, on_done = std::move(on_done)] {
    if (--*latch == 0) on_done();
  };
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = *slots_[s];
    for (const PageKey& key : slot.cache.oldest_dirty(slot.cache.dirty_count())) {
      if (key.file != file) continue;
      ++*latch;
      settle_page(s, key, arm);
    }
  }
  engine_.schedule_after(SimTime::zero(), arm);  // resolves the initial count
}

void ClientCacheTier::invalidate_path(FileId file) {
  for (auto& slot : slots_) {
    slot->cache.erase_file(file);
    slot->next_offset.erase(file);
  }
}

void ClientCacheTier::flush_all() {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = *slots_[s];
    if (slot.cache.dirty_count() == 0) continue;
    ++slot.cache.stats_mut().flushes;
    for (const PageKey& key : slot.cache.oldest_dirty(slot.cache.dirty_count())) {
      settle_page(s, key, [] {});
    }
  }
}

void ClientCacheTier::epoch_mark() {
  ++epochs_;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = *slots_[s];
    std::vector<PageKey> learned = std::move(slot.epoch_order);
    slot.epoch_order.clear();
    slot.epoch_seen.clear();
    if (config_.prefetch != PrefetchMode::kEpoch) continue;
    // Deterministic warm order: one substream per (epoch, slot) of the
    // reserved engine stream, so cache warming never perturbs other draws.
    Rng rng = engine_.rng_stream(kWarmRngStream).substream(epochs_ * 4096 + s);
    rng.shuffle(learned);
    slot.warm_queue.assign(learned.begin(), learned.end());
    while (slot.warm_inflight < kWarmConcurrency && !slot.warm_queue.empty()) {
      warm_next(s);
    }
  }
}

void ClientCacheTier::warm_next(std::size_t slot_idx) {
  Slot& slot = *slots_[slot_idx];
  while (!slot.warm_queue.empty()) {
    const PageKey key = slot.warm_queue.front();
    slot.warm_queue.pop_front();
    if (slot.cache.contains(key)) continue;
    if (!can_insert(slot.cache, config_.capacity_pages)) {
      slot.warm_queue.clear();  // no room: stop warming, don't thrash
      return;
    }
    const std::int32_t rank = static_cast<std::int32_t>(slot_idx);
    ++slot.warm_inflight;
    ++slot.cache.stats_mut().cache_prefetch_issued;
    record(CacheEventKind::kPrefetchIssue, rank, config_.page_size);
    model_.io(client_of(rank), static_cast<FileId>(key.file), layout_of(key.file),
              key.page * config_.page_size.count(), config_.page_size,
              /*is_write=*/false, [this, slot_idx, key, rank](pfs::IoResult result) {
                Slot& s = *slots_[slot_idx];
                --s.warm_inflight;
                if (!result.ok || s.cache.contains(key) ||
                    !can_insert(s.cache, config_.capacity_pages)) {
                  ++s.cache.stats_mut().cache_prefetch_wasted;
                } else {
                  Page& page = s.cache.insert(key, engine_.now());
                  page.owner = rank;
                  page.prefetched = true;
                  page.valid_bytes = config_.page_size.count();
                }
                warm_next(slot_idx);
              });
    return;
  }
}

void ClientCacheTier::finalize() {
  for (auto& slot : slots_) {
    slot->warm_queue.clear();
    slot->cache.finalize_prefetch_waste();
  }
}

CacheStats ClientCacheTier::stats() const {
  CacheStats total;
  for (const auto& slot : slots_) total += slot->cache.stats();
  return total;
}

std::uint64_t ClientCacheTier::dirty_pages() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->cache.dirty_count();
  return total;
}

}  // namespace pio::cache
