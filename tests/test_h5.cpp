// Tests for the HDF5-lite layer: dataspaces, hyperslab extent mapping,
// chunked layout, attributes, header round-trip, and multi-level tracing.
#include <gtest/gtest.h>

#include <cstring>

#include "h5/h5.hpp"
#include "trace/backend_shim.hpp"
#include "trace/tracer.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"

namespace pio::h5 {
namespace {

std::vector<std::byte> iota_bytes(std::size_t n, unsigned seed = 0) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::byte>((i + seed) & 0xFF);
  return data;
}

TEST(DataspaceTest, Elements) {
  EXPECT_EQ((Dataspace{{4, 5, 6}}).elements(), 120u);
  EXPECT_EQ((Dataspace{{}}).elements(), 0u);
  EXPECT_EQ((Hyperslab{{0, 0}, {3, 4}}).elements(), 12u);
}

class H5Fixture : public ::testing::Test {
 protected:
  vfs::FileSystem fs_;
};

TEST_F(H5Fixture, ContiguousHyperslabExtents) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    // 4x8 dataset of 8-byte elements, contiguous.
    auto ds = file.value()->create_dataset("/grid", 8, Dataspace{{4, 8}});
    ASSERT_TRUE(ds.ok());
    // Full rows are contiguous: selecting rows 1-2, all columns -> ONE
    // coalesced extent of 2*8*8 bytes.
    auto extents = ds.value().extents_of(Hyperslab{{1, 0}, {2, 8}});
    ASSERT_TRUE(extents.ok());
    ASSERT_EQ(extents.value().size(), 1u);
    // Row 1 starts at element 8 (one full row) -> byte 64.
    EXPECT_EQ(extents.value()[0].offset, H5File::kHeaderSize + 8u * 8u);
    EXPECT_EQ(extents.value()[0].length.count(), 2u * 8u * 8u);
    // A column selection is strided: 4 extents of one element.
    auto column = ds.value().extents_of(Hyperslab{{0, 3}, {4, 1}});
    ASSERT_TRUE(column.ok());
    ASSERT_EQ(column.value().size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(column.value()[r].offset, H5File::kHeaderSize + (r * 8 + 3) * 8);
      EXPECT_EQ(column.value()[r].length.count(), 8u);
    }
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, HyperslabValidation) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    auto ds = file.value()->create_dataset("/d", 4, Dataspace{{10, 10}});
    ASSERT_TRUE(ds.ok());
    EXPECT_FALSE(ds.value().extents_of(Hyperslab{{0}, {5}}).ok());          // rank mismatch
    EXPECT_FALSE(ds.value().extents_of(Hyperslab{{5, 5}, {6, 1}}).ok());    // out of bounds
    EXPECT_FALSE(ds.value().extents_of(Hyperslab{{0, 0}, {0, 1}}).ok());    // zero count
    std::vector<std::byte> tiny(3);
    EXPECT_FALSE(ds.value().write(Hyperslab{{0, 0}, {1, 1}}, tiny, false).ok());
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, WriteReadRoundTripContiguous) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    auto ds = file.value()->create_dataset("/m", 4, Dataspace{{16, 16}});
    ASSERT_TRUE(ds.ok());
    const auto data = iota_bytes(4 * 4 * 4, 7);
    // Write a 4x4 block at (2, 3).
    ASSERT_TRUE(ds.value().write(Hyperslab{{2, 3}, {4, 4}}, data, false).ok());
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(ds.value().read(Hyperslab{{2, 3}, {4, 4}}, out, false).ok());
    EXPECT_EQ(out, data);
    // A disjoint region reads back zeros (eager allocation, sparse file).
    std::vector<std::byte> zeros(4 * 4 * 4);
    ASSERT_TRUE(ds.value().read(Hyperslab{{10, 10}, {4, 4}}, zeros, false).ok());
    for (const auto b : zeros) EXPECT_EQ(b, std::byte{0});
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, ChunkedLayoutMapsIntoChunks) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    // 8x8 dataset, 4x4 chunks -> 2x2 chunk grid, elem 1 byte.
    auto ds = file.value()->create_dataset("/c", 1, Dataspace{{8, 8}}, {4, 4});
    ASSERT_TRUE(ds.ok());
    EXPECT_EQ(ds.value().info().chunk_grid(), (std::vector<std::uint64_t>{2, 2}));
    EXPECT_EQ(ds.value().info().chunk_bytes(), 16u);
    // Row 0, columns 0-7 crosses two chunks: two extents.
    auto extents = ds.value().extents_of(Hyperslab{{0, 0}, {1, 8}});
    ASSERT_TRUE(extents.ok());
    ASSERT_EQ(extents.value().size(), 2u);
    const std::uint64_t base = H5File::kHeaderSize;
    EXPECT_EQ(extents.value()[0].offset, base + 0);        // chunk (0,0) row 0
    EXPECT_EQ(extents.value()[1].offset, base + 16);       // chunk (0,1) row 0
    EXPECT_EQ(extents.value()[0].length.count(), 4u);
    // Chunk-aligned full chunk is one extent of 16 bytes.
    auto chunk = ds.value().extents_of(Hyperslab{{4, 4}, {4, 4}});
    ASSERT_TRUE(chunk.ok());
    ASSERT_EQ(chunk.value().size(), 1u);
    EXPECT_EQ(chunk.value()[0].offset, base + 3u * 16u);   // chunk (1,1)
    EXPECT_EQ(chunk.value()[0].length.count(), 16u);
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, ChunkedRoundTripWithUnalignedSlab) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    auto ds = file.value()->create_dataset("/c3", 2, Dataspace{{9, 7, 5}}, {4, 3, 2});
    ASSERT_TRUE(ds.ok());
    const Hyperslab slab{{1, 2, 1}, {6, 4, 3}};
    const auto data = iota_bytes(slab.elements() * 2, 3);
    ASSERT_TRUE(ds.value().write(slab, data, false).ok());
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(ds.value().read(slab, out, false).ok());
    EXPECT_EQ(out, data);
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, HeaderRoundTripAcrossReopen) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{2};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->create_group("/fields").ok());
    auto ds = file.value()->create_dataset("/fields/rho", 8, Dataspace{{32, 32}}, {8, 8});
    ASSERT_TRUE(ds.ok());
    ASSERT_TRUE(file.value()->set_attribute("/fields/rho", "units", "g / cm^3").ok());
    ASSERT_TRUE(file.value()->set_attribute("/", "creator", "pioeval test").ok());
    const auto data = iota_bytes(8 * 8 * 8, 1);
    if (comm.rank() == 0) {
      ASSERT_TRUE(ds.value().write(Hyperslab{{0, 0}, {8, 8}}, data, false).ok());
    }
    (void)file.value()->close_all();
    comm.barrier();
    // Reopen and verify everything survived the header round-trip.
    auto reopened = H5File::open_all(comm, backend, "/h5");
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->group_names(), (std::vector<std::string>{"/fields"}));
    EXPECT_EQ(reopened.value()->dataset_names(),
              (std::vector<std::string>{"/fields/rho"}));
    EXPECT_EQ(reopened.value()->attribute("/fields/rho", "units"), "g / cm^3");
    EXPECT_EQ(reopened.value()->attribute("/", "creator"), "pioeval test");
    EXPECT_EQ(reopened.value()->attribute("/", "missing"), std::nullopt);
    auto rho = reopened.value()->open_dataset("/fields/rho");
    ASSERT_TRUE(rho.ok());
    EXPECT_EQ(rho.value().info().chunk_dims, (std::vector<std::uint64_t>{8, 8}));
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(rho.value().read(Hyperslab{{0, 0}, {8, 8}}, out, false).ok());
    EXPECT_EQ(out, data);
    (void)reopened.value()->close_all();
  });
}

TEST_F(H5Fixture, CollectiveDatasetWriteAcrossRanks) {
  vfs::LocalBackend backend{fs_};
  constexpr int kRanks = 4;
  par::Runtime runtime{kRanks};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    // 16x16 of 8-byte elements; each rank owns 4 interleaved rows.
    auto ds = file.value()->create_dataset("/u", 8, Dataspace{{16, 16}});
    ASSERT_TRUE(ds.ok());
    for (int row = comm.rank(); row < 16; row += kRanks) {
      const auto data = iota_bytes(16 * 8, static_cast<unsigned>(row));
      ASSERT_TRUE(ds.value()
                      .write(Hyperslab{{static_cast<std::uint64_t>(row), 0}, {1, 16}}, data,
                             /*collective=*/false)
                      .ok());
    }
    comm.barrier();
    // Collective read of the whole dataset on every rank.
    std::vector<std::byte> out(16 * 16 * 8);
    ASSERT_TRUE(ds.value().read(Hyperslab{{0, 0}, {16, 16}}, out, /*collective=*/true).ok());
    for (int row = 0; row < 16; ++row) {
      const auto expected = iota_bytes(16 * 8, static_cast<unsigned>(row));
      ASSERT_EQ(std::memcmp(out.data() + row * 16 * 8, expected.data(), expected.size()), 0)
          << "row " << row;
    }
    (void)file.value()->close_all();
  });
}

TEST_F(H5Fixture, InvalidCreations) {
  vfs::LocalBackend backend{fs_};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/h5");
    ASSERT_TRUE(file.ok());
    EXPECT_FALSE(file.value()->create_dataset("bad name", 4, Dataspace{{4}}).ok());
    EXPECT_FALSE(file.value()->create_dataset("/zero", 0, Dataspace{{4}}).ok());
    EXPECT_FALSE(file.value()->create_dataset("/zdim", 4, Dataspace{{0}}).ok());
    EXPECT_FALSE(file.value()->create_dataset("/badchunk", 4, Dataspace{{4, 4}}, {8, 1}).ok());
    ASSERT_TRUE(file.value()->create_dataset("/ok", 4, Dataspace{{4}}).ok());
    EXPECT_FALSE(file.value()->create_dataset("/ok", 4, Dataspace{{4}}).ok());  // duplicate
    EXPECT_FALSE(file.value()->open_dataset("/missing").ok());
    EXPECT_FALSE(file.value()->set_attribute("/missing", "k", "v").ok());
    EXPECT_FALSE(file.value()->set_attribute("/ok", "bad key", "v").ok());
    (void)file.value()->close_all();
  });
}

// Regression seeds. Before parse_header returned an Error for them, the
// first five lines and the two bad escapes threw out of open_all (std::stoull
// on a dims or chunks token, std::stoi on an attribute escape), and the
// rest opened although close_all never writes them: a partly numeric
// token, a shape create_dataset refuses, a missing offset, a short escape,
// a non-numeric alloc and a relative group name.
TEST(H5Test, MalformedHeadersReturnErrors) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    for (const std::string line : {
             "dataset /u elem 4 dims , chunks - offset 262144",
             "dataset /u elem 4 dims 16,,4 chunks - offset 262144",
             "dataset /u elem 4 dims 16,x,4 chunks - offset 262144",
             "dataset /u elem 4 dims 99999999999999999999 chunks - offset 262144",
             "dataset /u elem 4 dims 16,16,4`chunks - offset 262144",
             "dataset /u elem 4 dims 16 chunks 4k offset 262144",
             "dataset /u elem 4 dims 16 chunks 0 offset 262144",
             "dataset /u elem 4 dims 16 chunks 4,4 offset 262144",
             "dataset /u elem 0 dims 16 chunks - offset 262144",
             "dataset /u elem 4 dims 16 chunks - offset",
             "attr / creator a%zzb",
             "attr / creator a%\xff" "5",
             "attr / creator trailing%4",
             "alloc lots",
             "group fields",
         }) {
      const std::string header = "H5LITE1\n" + line + "\nend\n";
      auto fd = backend.open("/bad.h5", {vfs::OpenMode::kReadWrite, true, true});
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(backend.pwrite(fd.value(), std::as_bytes(std::span{header}), 0).ok());
      ASSERT_EQ(backend.close(fd.value()), vfs::FsStatus::kOk);
      Result<std::unique_ptr<H5File>> opened = Error{};
      ASSERT_NO_THROW(opened = H5File::open_all(comm, backend, "/bad.h5")) << line;
      EXPECT_FALSE(opened.ok()) << line;
    }
  });
}

// Property sweep: for arbitrary dataset/chunk/slab geometry, the extent
// decomposition exactly tiles the slab's byte volume, stays within the
// dataset's allocation, and never overlaps itself.
struct SlabCase {
  std::vector<std::uint64_t> dims;
  std::vector<std::uint64_t> chunks;  // empty = contiguous
  std::vector<std::uint64_t> start;
  std::vector<std::uint64_t> count;
  std::uint32_t elem;
};

// Names each case by its geometry, e.g. "d16x16_c5x7_s3x2_n10x13_e8". Without
// this, gtest prints the raw bytes of the struct, whose vector pointers make
// the test names differ from one process to the next.
void PrintTo(const SlabCase& c, std::ostream* os) {
  const auto dims = [os](char tag, const std::vector<std::uint64_t>& v) {
    *os << tag;
    for (std::size_t i = 0; i < v.size(); ++i) *os << (i ? "x" : "") << v[i];
  };
  dims('d', c.dims);
  *os << '_';
  if (c.chunks.empty()) {
    *os << "contig";
  } else {
    dims('c', c.chunks);
  }
  *os << '_';
  dims('s', c.start);
  *os << '_';
  dims('n', c.count);
  *os << "_e" << c.elem;
}

class HyperslabPropertyTest : public ::testing::TestWithParam<SlabCase> {};

TEST_P(HyperslabPropertyTest, ExtentsExactlyTileTheSlab) {
  const auto& p = GetParam();
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  par::Runtime runtime{1};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/prop.h5");
    ASSERT_TRUE(file.ok());
    auto ds = file.value()->create_dataset("/d", p.elem, Dataspace{p.dims}, p.chunks);
    ASSERT_TRUE(ds.ok());
    const Hyperslab slab{p.start, p.count};
    auto extents = ds.value().extents_of(slab);
    ASSERT_TRUE(extents.ok());
    std::uint64_t total = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const auto& e : extents.value()) {
      EXPECT_GT(e.length.count(), 0u);
      EXPECT_GE(e.offset, H5File::kHeaderSize);
      total += e.length.count();
      ranges.emplace_back(e.offset, e.offset + e.length.count());
    }
    EXPECT_EQ(total, slab.elements() * p.elem);
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_LE(ranges[i - 1].second, ranges[i].first) << "overlapping extents";
    }
    // And the data round-trips through those extents.
    const auto data = iota_bytes(slab.elements() * p.elem, 9);
    ASSERT_TRUE(ds.value().write(slab, data, false).ok());
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(ds.value().read(slab, out, false).ok());
    EXPECT_EQ(out, data);
    (void)file.value()->close_all();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, HyperslabPropertyTest,
    ::testing::Values(
        SlabCase{{64}, {}, {5}, {50}, 4},
        SlabCase{{64}, {16}, {5}, {50}, 4},
        SlabCase{{16, 16}, {}, {3, 2}, {10, 13}, 8},
        SlabCase{{16, 16}, {5, 7}, {3, 2}, {10, 13}, 8},
        SlabCase{{7, 9, 11}, {}, {1, 2, 3}, {5, 6, 7}, 2},
        SlabCase{{7, 9, 11}, {3, 4, 5}, {1, 2, 3}, {5, 6, 7}, 2},
        SlabCase{{4, 4, 4, 4}, {2, 2, 2, 2}, {1, 1, 1, 1}, {3, 2, 3, 2}, 1},
        SlabCase{{100}, {1}, {0}, {100}, 16},
        SlabCase{{8, 8}, {8, 8}, {0, 0}, {8, 8}, 8}));

TEST_F(H5Fixture, MultiLevelTraceShowsTheFigure2Stack) {
  vfs::LocalBackend inner{fs_};
  trace::Tracer tracer;
  trace::WallClock clock;
  par::Runtime runtime{2};
  runtime.run([&](par::Comm& comm) {
    trace::TracingBackend posix{inner, tracer, clock, comm.rank()};
    auto file = H5File::create_all(comm, posix, "/h5", mio::Hints{}, &tracer, &clock);
    ASSERT_TRUE(file.ok());
    auto ds = file.value()->create_dataset("/d", 8, Dataspace{{8, 64}});
    ASSERT_TRUE(ds.ok());
    // Each rank writes interleaved rows -> strided extents under one
    // HDF5-level call.
    std::vector<mio::Extent> unused;
    const auto data = iota_bytes(4 * 64 * 8, static_cast<unsigned>(comm.rank()));
    ASSERT_TRUE(ds.value()
                    .write(Hyperslab{{static_cast<std::uint64_t>(comm.rank()) * 4, 0}, {4, 64}},
                           data, false)
                    .ok());
    (void)file.value()->close_all();
  });
  const auto trace = tracer.snapshot();
  const auto hdf5 = trace.layer(trace::Layer::kHdf5);
  const auto mpiio = trace.layer(trace::Layer::kMpiIo);
  const auto posix_events = trace.layer(trace::Layer::kPosix);
  EXPECT_GT(hdf5.size(), 0u);
  EXPECT_GT(mpiio.size(), 0u);
  EXPECT_GT(posix_events.size(), 0u);
  // The same data write is visible at every layer; POSIX sees at least as
  // many ops as MPI-IO, which sees at least as many as HDF5.
  EXPECT_GE(posix_events.size(), mpiio.size());
  std::size_t hdf5_writes = 0;
  for (const auto& e : hdf5.events()) {
    if (e.op == trace::OpKind::kWrite) ++hdf5_writes;
  }
  EXPECT_EQ(hdf5_writes, 2u);  // one logical write per rank
}

// 3,000 attributes of 100 bytes on "/" need about 340 KiB of header lines,
// more than the 256 KiB header region. Every rank refuses the same ones with
// an Error and keeps the metadata as it was; close_all neither throws nor
// leaves a rank behind in the collective close, and a reopen finds exactly
// the attributes that were accepted.
void overfill_header(int ranks) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  par::Runtime runtime{ranks};
  runtime.run([&](par::Comm& comm) {
    auto file = H5File::create_all(comm, backend, "/full.h5");
    ASSERT_TRUE(file.ok());
    H5File& h5 = *file.value();
    const std::string value(100, 'v');
    int accepted = 0;
    for (int i = 0; i < 3000; ++i) {
      const std::string key = "key" + std::to_string(i);
      if (h5.set_attribute("/", key, value).ok()) {
        EXPECT_EQ(accepted, i) << "accepted after a refusal: " << key;
        ++accepted;
      } else {
        EXPECT_EQ(h5.attribute("/", key), std::nullopt);
      }
    }
    EXPECT_GT(accepted, 2000);
    EXPECT_LT(accepted, 3000);
    // Rewriting an attribute at the same size still fits; growing it, or
    // adding a group or dataset with a long name, does not.
    EXPECT_TRUE(h5.set_attribute("/", "key0", std::string(100, 'w')).ok());
    EXPECT_FALSE(h5.set_attribute("/", "key1", std::string(4096, 'w')).ok());
    EXPECT_EQ(h5.attribute("/", "key1"), value);
    const std::string long_name = "/" + std::string(300, 'g');
    EXPECT_FALSE(h5.create_group(long_name).ok());
    EXPECT_FALSE(h5.create_dataset(long_name, 8, Dataspace{{16}}).ok());
    EXPECT_TRUE(h5.group_names().empty());
    EXPECT_TRUE(h5.dataset_names().empty());
    EXPECT_EQ(h5.close_all(), vfs::FsStatus::kOk);
    comm.barrier();

    auto reopened = H5File::open_all(comm, backend, "/full.h5");
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->attribute("/", "key0"), std::string(100, 'w'));
    EXPECT_EQ(reopened.value()->attribute("/", "key" + std::to_string(accepted - 1)), value);
    EXPECT_EQ(reopened.value()->attribute("/", "key" + std::to_string(accepted)), std::nullopt);
    // The reopened file counts its header too: it is just as full.
    EXPECT_FALSE(reopened.value()->set_attribute("/", "more", value).ok());
    EXPECT_EQ(reopened.value()->close_all(), vfs::FsStatus::kOk);
  });
}

TEST(H5Test, OverfullHeaderIsRefusedAtOneRank) { overfill_header(1); }

TEST(H5Test, OverfullHeaderIsRefusedAtTwoRanks) { overfill_header(2); }

}  // namespace
}  // namespace pio::h5
