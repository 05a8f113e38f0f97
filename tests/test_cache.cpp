// pio::cache tests: the page-cache core (LRU and 2Q replacement, dirty
// bookkeeping, prefetch accounting), the vfs::CacheBackend decorator
// (read-through, write-back, RMW, fault handling), and the DES-timed
// ClientCacheTier behind the simulation driver (warm-cache speedup, epoch
// prefetching, invariant C1 under injected faults, counter plumbing into
// SimRunResult / ServerStats / kCache trace events). Registered under the
// `cache` ctest label; CI runs the group in the Release and sanitizer legs.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/backend_cache.hpp"
#include "cache/cache.hpp"
#include "cache/client_tier.hpp"
#include "cache/page_cache.hpp"
#include "driver/sim_driver.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "trace/backend_shim.hpp"
#include "trace/server_stats.hpp"
#include "trace/tracer.hpp"
#include "vfs/backend.hpp"
#include "vfs/fault_injection.hpp"
#include "vfs/file_system.hpp"
#include "workload/dlio.hpp"
#include "workload/op.hpp"

namespace pio {
namespace {

using namespace pio::literals;

using cache::CacheConfig;
using cache::CacheStats;
using cache::EvictionPolicy;
using cache::Page;
using cache::PageCache;
using cache::PageKey;
using cache::PrefetchMode;

constexpr std::uint64_t kPage = vfs::FileSystem::kPageSize;  // 64 KiB

SimTime ms(double v) { return SimTime::from_ms(v); }

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 0) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::byte>((i * 13 + seed) & 0xFF);
  return data;
}

CacheConfig page_config(std::uint64_t capacity, EvictionPolicy policy) {
  CacheConfig config;
  config.capacity_pages = capacity;
  config.policy = policy;
  config.max_dirty_pages = capacity - 1;
  return config;
}

// ------------------------------------------------------------- CacheConfig

TEST(CacheConfigTest, DefaultsValidateAndEnumsPrint) {
  const CacheConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_STREQ(cache::to_string(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(cache::to_string(EvictionPolicy::kTwoQ), "2q");
  EXPECT_STREQ(cache::to_string(PrefetchMode::kEpoch), "epoch");
  EXPECT_STREQ(cache::to_string(cache::CacheScope::kShared), "shared");
}

TEST(CacheConfigTest, DirtyBoundMustStayBelowCapacity) {
  CacheConfig config;
  config.capacity_pages = 16;
  config.max_dirty_pages = 16;  // C1: eviction would have no clean victim
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.write_back = false;  // write-through never dirties: bound is moot
  EXPECT_NO_THROW(config.validate());
  config.write_back = true;
  config.max_dirty_pages = 15;
  EXPECT_NO_THROW(config.validate());
}

TEST(CacheConfigTest, RejectsDegenerateGeometry) {
  CacheConfig config;
  config.page_size = Bytes::zero();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = CacheConfig{};
  config.capacity_pages = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = CacheConfig{};
  config.prefetch = PrefetchMode::kSequential;
  config.readahead_pages = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = CacheConfig{};
  config.local_bandwidth = Bandwidth{0.0};
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CacheStatsTest, AccumulateAndHitRate) {
  CacheStats a;
  EXPECT_EQ(a.cache_hit_rate(), 0.0);  // no lookups yet
  a.cache_hits = 3;
  a.cache_misses = 1;
  a.hit_bytes = 64_KiB;
  CacheStats b;
  b.cache_hits = 1;
  b.cache_misses = 3;
  b.cache_writebacks = 2;
  b.hit_bytes = 64_KiB;
  a += b;
  EXPECT_EQ(a.cache_hits, 4u);
  EXPECT_EQ(a.cache_misses, 4u);
  EXPECT_EQ(a.cache_writebacks, 2u);
  EXPECT_EQ(a.hit_bytes, 128_KiB);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate(), 0.5);
}

// --------------------------------------------------------------- PageCache

TEST(PageCacheTest, LruEvictsLeastRecentlyUsed) {
  PageCache cache{page_config(3, EvictionPolicy::kLru)};
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  (void)cache.insert(PageKey{1, 1}, SimTime::zero());
  (void)cache.insert(PageKey{1, 2}, SimTime::zero());
  // Touch page 0: page 1 becomes the LRU victim.
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
  (void)cache.insert(PageKey{1, 3}, SimTime::zero());
  EXPECT_TRUE(cache.contains(PageKey{1, 0}));
  EXPECT_FALSE(cache.contains(PageKey{1, 1}));
  EXPECT_TRUE(cache.contains(PageKey{1, 2}));
  EXPECT_TRUE(cache.contains(PageKey{1, 3}));
  EXPECT_EQ(cache.stats().cache_evictions, 1u);
}

TEST(PageCacheTest, TwoQHitInAdmissionQueueDoesNotPromote) {
  // 2Q: a page must prove reuse *after* leaving the admission window. A hit
  // while still in A1in earns nothing — the page is evicted in FIFO order
  // anyway (scan resistance), unlike LRU where the same hit would save it.
  PageCache cache{page_config(4, EvictionPolicy::kTwoQ)};
  for (std::uint64_t p = 0; p < 4; ++p) (void)cache.insert(PageKey{1, p}, SimTime::zero());
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
  (void)cache.insert(PageKey{1, 4}, SimTime::zero());
  EXPECT_FALSE(cache.contains(PageKey{1, 0}));  // hit did not save it
  EXPECT_TRUE(cache.contains(PageKey{1, 1}));
}

TEST(PageCacheTest, TwoQGhostReinsertionPromotesToMain) {
  PageCache cache{page_config(4, EvictionPolicy::kTwoQ)};
  for (std::uint64_t p = 0; p < 4; ++p) (void)cache.insert(PageKey{1, p}, SimTime::zero());
  (void)cache.insert(PageKey{1, 4}, SimTime::zero());  // evicts page 0 into the ghost list
  ASSERT_FALSE(cache.contains(PageKey{1, 0}));
  // Re-miss within the ghost window: page 0 is admitted straight to Am and
  // survives a scan of new keys, which drains the admission FIFO instead.
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  for (std::uint64_t p = 10; p < 16; ++p) (void)cache.insert(PageKey{1, p}, SimTime::zero());
  EXPECT_TRUE(cache.contains(PageKey{1, 0}));
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
}

TEST(PageCacheTest, EvictionSkipsDirtyPagesAndReportsVictims) {
  PageCache cache{page_config(3, EvictionPolicy::kLru)};
  std::vector<PageKey> evicted;
  cache.set_eviction_observer([&](const Page& page) {
    EXPECT_FALSE(page.dirty);  // C1: only clean pages ever leave this way
    evicted.push_back(page.key);
  });
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  (void)cache.insert(PageKey{1, 1}, SimTime::zero());
  (void)cache.insert(PageKey{1, 2}, SimTime::zero());
  cache.mark_dirty(PageKey{1, 0});  // the LRU page, but untouchable
  (void)cache.insert(PageKey{1, 3}, SimTime::zero());
  EXPECT_TRUE(cache.contains(PageKey{1, 0}));
  EXPECT_FALSE(cache.contains(PageKey{1, 1}));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (PageKey{1, 1}));
}

TEST(PageCacheTest, InsertThrowsWhenEveryPageIsDirty) {
  PageCache cache{page_config(2, EvictionPolicy::kLru)};
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  (void)cache.insert(PageKey{1, 1}, SimTime::zero());
  cache.mark_dirty(PageKey{1, 0});
  cache.mark_dirty(PageKey{1, 1});
  EXPECT_THROW((void)cache.insert(PageKey{1, 2}, SimTime::zero()), std::logic_error);
  // A clean victim restores insertability.
  cache.mark_clean(PageKey{1, 0});
  EXPECT_NO_THROW((void)cache.insert(PageKey{1, 2}, SimTime::zero()));
}

TEST(PageCacheTest, OldestDirtyIsFifoByFirstDirtying) {
  PageCache cache{page_config(8, EvictionPolicy::kLru)};
  for (std::uint64_t p = 0; p < 3; ++p) (void)cache.insert(PageKey{1, p}, SimTime::zero());
  cache.mark_dirty(PageKey{1, 1});
  cache.mark_dirty(PageKey{1, 0});
  cache.mark_dirty(PageKey{1, 2});
  cache.mark_dirty(PageKey{1, 1});  // re-dirtying does not reorder
  EXPECT_EQ(cache.dirty_count(), 3u);
  const auto two = cache.oldest_dirty(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (PageKey{1, 1}));
  EXPECT_EQ(two[1], (PageKey{1, 0}));
  cache.mark_clean(PageKey{1, 0});
  const auto rest = cache.oldest_dirty(8);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], (PageKey{1, 1}));
  EXPECT_EQ(rest[1], (PageKey{1, 2}));
}

TEST(PageCacheTest, PrefetchedPagesResolveToUsedOnHit) {
  PageCache cache{page_config(8, EvictionPolicy::kLru)};
  cache.insert(PageKey{1, 0}, SimTime::zero()).prefetched = true;
  cache.insert(PageKey{1, 1}, SimTime::zero()).prefetched = true;
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
  EXPECT_EQ(cache.stats().cache_prefetch_used, 1u);
  // A second hit on the same page is no longer a prefetch resolution.
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
  EXPECT_EQ(cache.stats().cache_prefetch_used, 1u);
  cache.finalize_prefetch_waste();
  EXPECT_EQ(cache.stats().cache_prefetch_wasted, 1u);  // page 1 never paid off
}

TEST(PageCacheTest, EvictedUnusedPrefetchCountsAsWasted) {
  PageCache cache{page_config(2, EvictionPolicy::kLru)};
  cache.insert(PageKey{1, 0}, SimTime::zero()).prefetched = true;
  (void)cache.insert(PageKey{1, 1}, SimTime::zero());
  (void)cache.insert(PageKey{1, 2}, SimTime::zero());  // evicts the prefetched LRU page
  EXPECT_EQ(cache.stats().cache_prefetch_wasted, 1u);
  EXPECT_EQ(cache.stats().cache_evictions, 1u);
}

TEST(PageCacheTest, PeekDoesNotTouchReadCounters) {
  PageCache cache{page_config(4, EvictionPolicy::kLru)};
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  EXPECT_NE(cache.peek(PageKey{1, 0}), nullptr);
  EXPECT_EQ(cache.peek(PageKey{1, 9}), nullptr);
  EXPECT_EQ(cache.stats().cache_hits, 0u);
  EXPECT_EQ(cache.stats().cache_misses, 0u);
  EXPECT_EQ(cache.lookup(PageKey{1, 9}, SimTime::zero()), nullptr);
  EXPECT_NE(cache.lookup(PageKey{1, 0}, SimTime::zero()), nullptr);
  EXPECT_EQ(cache.stats().cache_hits, 1u);
  EXPECT_EQ(cache.stats().cache_misses, 1u);
}

TEST(PageCacheTest, EraseFileDropsOnlyThatFile) {
  PageCache cache{page_config(8, EvictionPolicy::kLru)};
  (void)cache.insert(PageKey{1, 0}, SimTime::zero());
  (void)cache.insert(PageKey{1, 7}, SimTime::zero());
  (void)cache.insert(PageKey{2, 0}, SimTime::zero());
  cache.mark_dirty(PageKey{1, 7});
  cache.erase_file(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);  // dirty pages of the file go with it
  EXPECT_TRUE(cache.contains(PageKey{2, 0}));
}

// ------------------------------------------------------------ CacheBackend

CacheConfig backend_config() {
  CacheConfig config;
  config.capacity_pages = 64;
  config.max_dirty_pages = 32;
  return config;
}

TEST(CacheBackendTest, WriteBackAbsorbsAndFlushesOnFsync) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  const auto data = pattern(3 * kPage);
  ASSERT_TRUE(cached.pwrite(fd.value(), data, 0).ok());
  // Absorbed: acknowledged from the cache, nothing on the backing store yet.
  EXPECT_EQ(cached.stats().cache_absorbed_writes, 1u);
  EXPECT_EQ(cached.dirty_pages(), 3u);
  EXPECT_EQ(fs.stat("/f").value().size, Bytes::zero());
  EXPECT_EQ(cached.fsync(fd.value()), vfs::FsStatus::kOk);
  EXPECT_EQ(cached.dirty_pages(), 0u);
  EXPECT_EQ(cached.stats().cache_writebacks, 3u);
  std::vector<std::byte> out(data.size());
  ASSERT_EQ(fs.pread("/f", out, 0).value(), data.size());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, ReadThroughCachesAndHitsOnReread) {
  vfs::FileSystem fs;
  ASSERT_EQ(fs.create("/f"), vfs::FsStatus::kOk);
  const auto data = pattern(2 * kPage, 7);
  ASSERT_TRUE(fs.pwrite("/f", data, 0).ok());
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kRead, false, false});
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> out(data.size());
  ASSERT_EQ(cached.pread(fd.value(), out, 0).value(), data.size());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
  EXPECT_EQ(cached.stats().cache_misses, 2u);
  EXPECT_EQ(cached.stats().cache_hits, 0u);
  std::fill(out.begin(), out.end(), std::byte{0});
  ASSERT_EQ(cached.pread(fd.value(), out, 0).value(), data.size());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
  EXPECT_EQ(cached.stats().cache_hits, 2u);
  EXPECT_EQ(cached.stats().hit_bytes, Bytes{2 * kPage});
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, PartialWriteMergesWithExistingContent) {
  vfs::FileSystem fs;
  ASSERT_EQ(fs.create("/f"), vfs::FsStatus::kOk);
  const auto base = pattern(kPage, 1);
  ASSERT_TRUE(fs.pwrite("/f", base, 0).ok());
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, false, false});
  ASSERT_TRUE(fd.ok());
  const auto overlay = pattern(100, 2);
  ASSERT_TRUE(cached.pwrite(fd.value(), overlay, 10).ok());  // RMW inside the page
  auto expected = base;
  std::memcpy(expected.data() + 10, overlay.data(), overlay.size());
  // The merged view is visible through the cache before any write-back...
  std::vector<std::byte> out(kPage);
  ASSERT_EQ(cached.pread(fd.value(), out, 0).value(), kPage);
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), kPage), 0);
  // ...and lands intact on the backing store after fsync.
  EXPECT_EQ(cached.fsync(fd.value()), vfs::FsStatus::kOk);
  ASSERT_EQ(fs.pread("/f", out, 0).value(), kPage);
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), kPage), 0);
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, StatReflectsCachedSizeExtension) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(cached.pwrite(fd.value(), pattern(kPage), 3 * kPage).ok());
  EXPECT_EQ(cached.stat("/f").value().size, Bytes{4 * kPage});  // cached extension
  EXPECT_EQ(fs.stat("/f").value().size, Bytes::zero());         // not yet written back
  EXPECT_EQ(cached.fsync(fd.value()), vfs::FsStatus::kOk);
  EXPECT_EQ(fs.stat("/f").value().size, Bytes{4 * kPage});
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, FailedWritebackSurfacesOnCloseAndKeepsData) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  vfs::FaultPlan plan;
  plan.write_failure = 1.0;  // every inner write fails: write-backs can't land
  vfs::FaultInjectionBackend faulty{local, plan};
  cache::CacheBackend cached{faulty, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  const auto data = pattern(kPage, 5);
  ASSERT_TRUE(cached.pwrite(fd.value(), data, 0).ok());  // absorbed, acknowledged
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kInvalid);
  EXPECT_GE(cached.stats().writeback_failures, 1u);
  // C1: the acknowledged bytes are still held dirty, the descriptor stays
  // open, and the data remains readable for a later retry.
  EXPECT_EQ(cached.dirty_pages(), 1u);
  EXPECT_EQ(cached.path_of(fd.value()), "/f");
  std::vector<std::byte> out(kPage);
  ASSERT_EQ(cached.pread(fd.value(), out, 0).value(), kPage);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPage), 0);
}

TEST(CacheBackendTest, FullOfDirtyRefusesWriteInsteadOfDropping) {
  CacheConfig config;
  config.capacity_pages = 8;
  config.max_dirty_pages = 4;
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  vfs::FaultPlan plan;
  plan.write_failure = 1.0;
  vfs::FaultInjectionBackend faulty{local, plan};
  cache::CacheBackend cached{faulty, config};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  // With write-backs failing, dirty pages pile up to the C1 ceiling
  // (capacity - 1): the next write is refused, never silently shed.
  for (std::uint64_t p = 0; p < 7; ++p) {
    ASSERT_TRUE(cached.pwrite(fd.value(), pattern(kPage, unsigned(p)), p * kPage).ok());
  }
  const auto refused = cached.pwrite(fd.value(), pattern(kPage), 7 * kPage);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(cached.dirty_pages(), 7u);
  // Every previously acknowledged page is still intact.
  std::vector<std::byte> out(kPage);
  for (std::uint64_t p = 0; p < 7; ++p) {
    const auto expected = pattern(kPage, unsigned(p));
    ASSERT_EQ(cached.pread(fd.value(), out, p * kPage).value(), kPage);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), kPage), 0) << "page " << p;
  }
}

TEST(CacheBackendTest, RemoveDiscardsDirtyPages) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(cached.pwrite(fd.value(), pattern(kPage), 0).ok());
  EXPECT_EQ(cached.dirty_pages(), 1u);
  // Unlink discards: dirty pages of a removed file are dropped, not flushed.
  EXPECT_EQ(cached.remove("/f"), vfs::FsStatus::kOk);
  EXPECT_EQ(cached.dirty_pages(), 0u);
  EXPECT_FALSE(cached.stat("/f").ok());
  EXPECT_FALSE(fs.exists("/f"));
}

TEST(CacheBackendTest, SequentialReadaheadPrefetchesAhead) {
  vfs::FileSystem fs;
  ASSERT_EQ(fs.create("/data"), vfs::FsStatus::kOk);
  const auto data = pattern(16 * kPage, 9);
  ASSERT_TRUE(fs.pwrite("/data", data, 0).ok());
  CacheConfig config = backend_config();
  config.prefetch = PrefetchMode::kSequential;
  config.readahead_pages = 4;
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, config};
  auto fd = cached.open("/data", {vfs::OpenMode::kRead, false, false});
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> out(kPage);
  for (std::uint64_t p = 0; p < 16; ++p) {
    ASSERT_EQ(cached.pread(fd.value(), out, p * kPage).value(), kPage);
    ASSERT_EQ(std::memcmp(out.data(), data.data() + p * kPage, kPage), 0) << "page " << p;
  }
  const auto& stats = cached.stats();
  EXPECT_GT(stats.cache_prefetch_issued, 0u);
  EXPECT_GT(stats.cache_prefetch_used, 0u);
  // Readahead turned most would-be misses into hits on a pure sequential scan.
  EXPECT_LT(stats.cache_misses, 8u);
  EXPECT_GT(stats.cache_hits, 8u);
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, ComposesWithTracingBackendOnEitherSide) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  // Inner tracer: sees what the storage saw (write-backs, misses).
  trace::ManualClock clock;
  trace::Tracer storage_trace;
  trace::TracingBackend traced{local, storage_trace, clock, 0};
  cache::CacheBackend cached{traced, backend_config()};
  // Outer tracer: sees what the application did (hits and misses alike).
  trace::Tracer app_trace;
  trace::TracingBackend app{cached, app_trace, clock, 0};
  auto fd = app.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(app.pwrite(fd.value(), pattern(2 * kPage), 0).ok());
  std::vector<std::byte> out(2 * kPage);
  ASSERT_EQ(app.pread(fd.value(), out, 0).value(), 2 * kPage);
  // The app issued the ops; the storage has seen none of the data yet.
  EXPECT_EQ(app_trace.snapshot().bytes_written(), Bytes{2 * kPage});
  EXPECT_EQ(app_trace.snapshot().bytes_read(), Bytes{2 * kPage});
  EXPECT_EQ(storage_trace.snapshot().bytes_written(), Bytes::zero());
  EXPECT_EQ(storage_trace.snapshot().bytes_read(), Bytes::zero());
  EXPECT_EQ(app.fsync(fd.value()), vfs::FsStatus::kOk);
  EXPECT_EQ(storage_trace.snapshot().bytes_written(), Bytes{2 * kPage});  // the write-backs
  EXPECT_EQ(app.close(fd.value()), vfs::FsStatus::kOk);
}

TEST(CacheBackendTest, TruncateOnOpenDropsCachedPages) {
  vfs::FileSystem fs;
  vfs::LocalBackend local{fs};
  cache::CacheBackend cached{local, backend_config()};
  auto fd = cached.open("/f", {vfs::OpenMode::kReadWrite, true, false});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(cached.pwrite(fd.value(), pattern(kPage, 3), 0).ok());
  EXPECT_EQ(cached.fsync(fd.value()), vfs::FsStatus::kOk);
  EXPECT_EQ(cached.close(fd.value()), vfs::FsStatus::kOk);
  auto fd2 = cached.open("/f", {vfs::OpenMode::kReadWrite, false, true});
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(cached.stat("/f").value().size, Bytes::zero());
  std::vector<std::byte> out(kPage);
  EXPECT_EQ(cached.pread(fd2.value(), out, 0).value(), 0u);  // stale pages are gone
  EXPECT_EQ(cached.close(fd2.value()), vfs::FsStatus::kOk);
}

// ---------------------------------------------------------- ClientCacheTier

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

workload::DlioConfig small_dlio(std::int32_t epochs) {
  workload::DlioConfig config;
  config.ranks = 4;
  config.samples = 64;
  config.samples_per_file = 16;
  config.sample_size = 64_KiB;
  config.batch_size = 4;
  config.epochs = epochs;
  config.compute_per_batch = SimTime::zero();
  return config;
}

CacheConfig shared_cache() {
  CacheConfig config;
  config.enabled = true;
  config.scope = cache::CacheScope::kShared;
  config.capacity_pages = 256;
  config.max_dirty_pages = 128;
  return config;
}

struct TierRun {
  driver::SimRunResult result;
  CacheStats tier_stats;
  std::uint64_t epochs_marked = 0;
};

TierRun run_dlio(const CacheConfig& cache_config, std::uint64_t seed, std::int32_t epochs,
                 trace::Sink* sink = nullptr,
                 trace::ServerStatsCollector* collector = nullptr) {
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::SimRunConfig run_config;
  run_config.cache = cache_config;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  if (collector != nullptr) collector->attach(engine);
  TierRun out;
  out.result = sim.run(*workload::dlio_like(small_dlio(epochs)), sink);
  if (sim.cache_tier() != nullptr) {
    out.tier_stats = sim.cache_tier()->stats();
    out.epochs_marked = sim.cache_tier()->epochs_marked();
  }
  return out;
}

TEST(ClientCacheTierTest, WarmCacheSpeedsUpRereadEpochs) {
  const auto off = run_dlio(CacheConfig{}, 42, 2);
  const auto on = run_dlio(shared_cache(), 42, 2);
  EXPECT_EQ(off.result.cache_hits + off.result.cache_misses, 0u);  // cache disabled
  EXPECT_GT(on.result.cache_hits, 0u);
  EXPECT_GT(on.result.cache_hit_rate(), 0.5);  // epoch 2 rereads the warmed set
  EXPECT_LT(on.result.makespan, off.result.makespan);
  EXPECT_EQ(on.result.failed_ops, 0u);
}

TEST(ClientCacheTierTest, SameSeedCachedRunsAreIdentical) {
  const auto a = run_dlio(shared_cache(), 7, 2);
  const auto b = run_dlio(shared_cache(), 7, 2);
  EXPECT_EQ(driver::digest(a.result), driver::digest(b.result));
}

TEST(ClientCacheTierTest, CountersFlowIntoSimRunResult) {
  const auto run = run_dlio(shared_cache(), 11, 2);
  EXPECT_EQ(run.result.cache_hits, run.tier_stats.cache_hits);
  EXPECT_EQ(run.result.cache_misses, run.tier_stats.cache_misses);
  EXPECT_EQ(run.result.cache_writebacks, run.tier_stats.cache_writebacks);
  EXPECT_EQ(run.result.cache_hit_bytes, run.tier_stats.hit_bytes);
  EXPECT_EQ(run.result.cache_absorbed_writes, run.tier_stats.cache_absorbed_writes);
  EXPECT_GT(run.result.cache_absorbed_writes, 0u);  // dataset preparation writes
  EXPECT_GT(run.result.cache_writebacks, 0u);       // drained by quiescence
}

TEST(ClientCacheTierTest, EpochPrefetcherWarmsPreviousEpochSet) {
  CacheConfig config = shared_cache();
  config.prefetch = PrefetchMode::kEpoch;
  config.capacity_pages = 48;  // smaller than the 64-page dataset: warming has work
  config.max_dirty_pages = 16;
  const auto run = run_dlio(config, 13, 3);
  EXPECT_GE(run.epochs_marked, 3u);  // one mark per DLIO epoch barrier
  EXPECT_GT(run.result.cache_prefetch_issued, 0u);
  EXPECT_GT(run.result.cache_prefetch_used, 0u);
  // Accounting closes: every issued prefetch resolves to used or wasted by
  // the end of the run (finalize folds the stragglers).
  EXPECT_EQ(run.result.cache_prefetch_issued,
            run.result.cache_prefetch_used + run.result.cache_prefetch_wasted);
  EXPECT_EQ(run.result.failed_ops, 0u);
}

TEST(ClientCacheTierTest, SharedScopeOutHitsPerRankUnderReshuffle) {
  // DL reshuffling re-partitions samples across ranks every epoch: a
  // node-local
  // (shared) cache re-hits the full warmed set, per-rank caches only their
  // ~1/N share. The scope axis exists to expose exactly that.
  CacheConfig per_rank = shared_cache();
  per_rank.scope = cache::CacheScope::kPerRank;
  const auto shared = run_dlio(shared_cache(), 21, 2);
  const auto isolated = run_dlio(per_rank, 21, 2);
  EXPECT_GT(shared.result.cache_hits, isolated.result.cache_hits);
}

TEST(ClientCacheTierTest, WriteThroughModeNeverDirties) {
  CacheConfig config = shared_cache();
  config.write_back = false;
  const auto run = run_dlio(config, 5, 2);
  EXPECT_EQ(run.result.cache_absorbed_writes, 0u);
  EXPECT_EQ(run.result.cache_writebacks, 0u);
  EXPECT_GT(run.result.cache_hits, 0u);  // reads still cache and re-hit
  EXPECT_EQ(run.result.failed_ops, 0u);
}

TEST(ClientCacheTierTest, WritebackRetriesThroughOstOutagePreserveC1) {
  // Checkpoint-style workload: writes are absorbed instantly, then fsync
  // forces write-back into an OST that is down for the first 50 ms. C1: the
  // tier retries until recovery — no acknowledged byte is ever dropped.
  std::vector<std::vector<workload::Op>> ops(2);
  PathTable paths;
  for (std::int32_t r = 0; r < 2; ++r) {
    const FileId path = paths.intern("/ckpt-" + std::to_string(r));
    ops[static_cast<std::size_t>(r)].push_back(workload::Op::create(path));
    for (std::uint64_t p = 0; p < 4; ++p) {
      ops[static_cast<std::size_t>(r)].push_back(workload::Op::write(path, p * kPage, 64_KiB));
    }
    ops[static_cast<std::size_t>(r)].push_back(workload::Op::fsync(path));
    ops[static_cast<std::size_t>(r)].push_back(workload::Op::close(path));
  }
  const workload::Workload checkpoint{"ckpt", std::move(paths), std::move(ops)};

  sim::Engine engine{3};
  pfs::PfsConfig pfs_config;
  pfs_config.clients = 2;
  pfs_config.io_nodes = 1;
  pfs_config.osts = 1;
  pfs_config.disk_kind = pfs::DiskKind::kSsd;
  pfs_config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  pfs_config.faults.ost_down(0, SimTime::zero(), ms(50));
  pfs::PfsModel model{engine, pfs_config};
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  run_config.cache.enabled = true;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  const auto result = sim.run(checkpoint);
  EXPECT_EQ(result.failed_ops, 0u);  // the application never saw the outage
  EXPECT_EQ(result.cache_absorbed_writes, 8u);
  EXPECT_EQ(result.cache_writebacks, 8u);
  EXPECT_GT(result.cache_writeback_failures, 0u);  // attempts during the outage
  EXPECT_GE(result.makespan, ms(50));              // fsync waited for recovery
  // Every acknowledged byte landed on the device once it came back.
  EXPECT_EQ(model.ost(0).stats().bytes_written, Bytes{8 * kPage});
  engine.assert_drained();
  model.assert_quiescent();  // F3: the durability ledger agrees
}

TEST(ClientCacheTierTest, ObserverFeedsServerStatsCacheSeries) {
  trace::ServerStatsCollector collector{ms(10)};
  const auto run = run_dlio(shared_cache(), 17, 2, nullptr, &collector);
  std::uint64_t hit_events = 0;
  std::uint64_t absorbed = 0;
  Bytes hit_bytes = Bytes::zero();
  for (const auto& [window, sample] : collector.cache_series()) {
    EXPECT_EQ(window, sample.window);
    hit_events += sample.count_of(cache::CacheEventKind::kHit);
    absorbed += sample.count_of(cache::CacheEventKind::kAbsorbedWrite);
    hit_bytes += sample.bytes_of(cache::CacheEventKind::kHit);
  }
  EXPECT_GT(hit_events, 0u);
  EXPECT_EQ(hit_bytes, run.result.cache_hit_bytes);
  EXPECT_EQ(absorbed, run.result.cache_absorbed_writes);
}

TEST(ClientCacheTierTest, CacheLayerTraceEventsCarryHitBytes) {
  trace::Tracer tracer;
  const auto run = run_dlio(shared_cache(), 23, 2, &tracer);
  const auto trace = tracer.snapshot();
  std::uint64_t cache_events = 0;
  Bytes read_hit_bytes = Bytes::zero();
  for (const auto& e : trace.events()) {
    if (e.layer != trace::Layer::kCache) continue;
    ++cache_events;
    EXPECT_LE(e.start, e.end);
    if (e.op == trace::OpKind::kRead) read_hit_bytes += Bytes{e.size};
  }
  EXPECT_GT(cache_events, 0u);
  // One kCache annotation per data op, sized by the bytes the cache served.
  EXPECT_EQ(read_hit_bytes, run.result.cache_hit_bytes);
}

}  // namespace
}  // namespace pio
