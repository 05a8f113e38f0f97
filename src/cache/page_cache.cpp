#include "cache/page_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace pio::cache {

PageCache::PageCache(const CacheConfig& config) : config_(config) {
  config_.validate();
}

std::uint64_t PageCache::a1in_target() const {
  // Classic 2Q sizing: the admission FIFO holds ~25% of capacity, the main
  // LRU the rest. At tiny capacities keep at least one admission slot.
  return std::max<std::uint64_t>(1, config_.capacity_pages / 4);
}

Page* PageCache::lookup(PageKey key, SimTime now) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) {
    ++stats_.cache_misses;
    return nullptr;
  }
  ++stats_.cache_hits;
  Entry& entry = it->second;
  entry.page.last_access = now;
  if (entry.page.prefetched) {
    entry.page.prefetched = false;
    ++stats_.cache_prefetch_used;
  }
  if (config_.policy == EvictionPolicy::kLru) {
    main_.splice(main_.begin(), main_, entry.recency);
  } else if (entry.queue == Queue::kMain) {
    // 2Q: hits in Am promote; hits in A1in deliberately do not — a page must
    // prove reuse *after* leaving the admission window to earn Am residency.
    main_.splice(main_.begin(), main_, entry.recency);
  }
  return &entry.page;
}

bool PageCache::contains(PageKey key) const { return pages_.contains(key); }

Page* PageCache::peek(PageKey key) {
  const auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.page;
}

const Page* PageCache::peek(PageKey key) const {
  const auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.page;
}

Page& PageCache::insert(PageKey key, SimTime now) {
  if (auto it = pages_.find(key); it != pages_.end()) {
    it->second.page.last_access = now;
    return it->second.page;
  }
  while (pages_.size() >= config_.capacity_pages) evict_one();

  Entry entry;
  entry.page.key = key;
  entry.page.last_access = now;
  const bool ghost_hit = ghost_index_.contains(key);
  if (config_.policy == EvictionPolicy::kTwoQ && !ghost_hit) {
    a1in_.push_front(key);
    entry.queue = Queue::kA1In;
    entry.recency = a1in_.begin();
  } else {
    // LRU always; 2Q when the ghost list remembers the key (proven reuse).
    main_.push_front(key);
    entry.queue = Queue::kMain;
    entry.recency = main_.begin();
  }
  if (ghost_hit) {
    ghost_.erase(ghost_index_.at(key));
    ghost_index_.erase(key);
  }
  auto [it, inserted] = pages_.emplace(key, std::move(entry));
  (void)inserted;
  return it->second.page;
}

bool PageCache::evict_clean_from(std::list<PageKey>& queue) {
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    const auto found = pages_.find(*it);
    if (found == pages_.end()) continue;  // cannot happen; defensive
    if (found->second.page.dirty) continue;  // C1: never evict dirty pages
    if (found->second.page.prefetched) ++stats_.cache_prefetch_wasted;
    ++stats_.cache_evictions;
    if (eviction_observer_) eviction_observer_(found->second.page);
    if (config_.policy == EvictionPolicy::kTwoQ && found->second.queue == Queue::kA1In) {
      // Remember evicted admission-queue keys: a re-miss within the ghost
      // window is the 2Q signal of real reuse.
      ghost_.push_front(found->first);
      ghost_index_.emplace(found->first, ghost_.begin());
      while (ghost_.size() > config_.capacity_pages / 2 + 1) {
        ghost_index_.erase(ghost_.back());
        ghost_.pop_back();
      }
    }
    remove_entry(found);
    return true;
  }
  return false;
}

void PageCache::evict_one() {
  if (config_.policy == EvictionPolicy::kLru) {
    if (evict_clean_from(main_)) return;
  } else {
    // 2Q: shrink the admission FIFO when over target, else the main LRU;
    // fall back to whichever holds a clean page.
    if (a1in_.size() > a1in_target()) {
      if (evict_clean_from(a1in_)) return;
      if (evict_clean_from(main_)) return;
    } else {
      if (evict_clean_from(main_)) return;
      if (evict_clean_from(a1in_)) return;
    }
  }
  throw std::logic_error(
      "PageCache: every resident page is dirty — write-back pressure bound "
      "violated (invariant C1 forbids dropping dirty pages)");
}

void PageCache::remove_entry(std::map<PageKey, Entry>::iterator it) {
  Entry& entry = it->second;
  if (entry.page.dirty) {
    dirty_order_.erase(entry.dirty_pos);
    --dirty_count_;
  }
  if (entry.queue == Queue::kA1In) {
    a1in_.erase(entry.recency);
  } else {
    main_.erase(entry.recency);
  }
  pages_.erase(it);
}

void PageCache::mark_dirty(PageKey key) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) throw std::logic_error("PageCache::mark_dirty: page not resident");
  Entry& entry = it->second;
  if (entry.page.dirty) return;
  entry.page.dirty = true;
  dirty_order_.push_back(key);
  entry.dirty_pos = std::prev(dirty_order_.end());
  ++dirty_count_;
}

void PageCache::mark_clean(PageKey key) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) return;
  Entry& entry = it->second;
  if (!entry.page.dirty) return;
  entry.page.dirty = false;
  dirty_order_.erase(entry.dirty_pos);
  --dirty_count_;
}

std::vector<PageKey> PageCache::oldest_dirty(std::size_t max) const {
  std::vector<PageKey> out;
  out.reserve(std::min<std::size_t>(max, dirty_order_.size()));
  for (const PageKey& key : dirty_order_) {
    if (out.size() >= max) break;
    out.push_back(key);
  }
  return out;
}

void PageCache::erase(PageKey key) {
  const auto it = pages_.find(key);
  if (it != pages_.end()) remove_entry(it);
  if (const auto ghost = ghost_index_.find(key); ghost != ghost_index_.end()) {
    ghost_.erase(ghost->second);
    ghost_index_.erase(ghost);
  }
}

void PageCache::erase_file(std::uint64_t file) {
  // Keys are ordered (file, page): the file's pages form one contiguous map
  // range, so this walk is deterministic and touches nothing else.
  auto it = pages_.lower_bound(PageKey{file, 0});
  while (it != pages_.end() && it->first.file == file) {
    const auto next = std::next(it);
    remove_entry(it);
    it = next;
  }
  auto ghost = ghost_index_.lower_bound(PageKey{file, 0});
  while (ghost != ghost_index_.end() && ghost->first.file == file) {
    ghost_.erase(ghost->second);
    ghost = ghost_index_.erase(ghost);
  }
}

void PageCache::finalize_prefetch_waste() {
  for (auto& [key, entry] : pages_) {
    (void)key;
    if (entry.page.prefetched) {
      entry.page.prefetched = false;
      ++stats_.cache_prefetch_wasted;
    }
  }
}

}  // namespace pio::cache
