// PIOEval HDF5-lite: the high-level data library of the Fig. 2 stack.
//
// "An application can use a high-level library such as HDF5 ... HDF5 is
// implemented on top of MPI-IO which, in turn, performs POSIX I/O calls
// against a parallel file system." This module provides exactly that shape:
// a hierarchical container (groups, n-dimensional datasets with contiguous
// or chunked layout, string attributes) whose hyperslab I/O decomposes into
// extents executed through pio::mio — so one application-level write is
// observable as one HDF5 event, a handful of MPI-IO events, and many POSIX
// events (experiment Fig. 2).
//
// Deliberate simplifications vs real HDF5 (documented in DESIGN.md): a
// fixed-size text header instead of a B-tree heap, eager dense chunk
// allocation (create is collective, so every rank derives the same layout
// without extra communication), and elements as opaque fixed-size records.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "mio/mio.hpp"
#include "par/comm.hpp"

namespace pio::h5 {

/// N-dimensional extent (row-major).
struct Dataspace {
  std::vector<std::uint64_t> dims;

  [[nodiscard]] std::uint64_t elements() const;
  [[nodiscard]] std::size_t rank() const { return dims.size(); }
};

/// A rectangular selection: `start[d] + count[d] <= dims[d]` for all d.
struct Hyperslab {
  std::vector<std::uint64_t> start;
  std::vector<std::uint64_t> count;

  [[nodiscard]] std::uint64_t elements() const;
};

/// Stored dataset metadata.
struct DatasetInfo {
  std::string name;          ///< absolute, e.g. "/fields/density"
  std::uint32_t elem_size = 8;
  Dataspace space;
  std::vector<std::uint64_t> chunk_dims;  ///< empty = contiguous layout
  std::uint64_t data_offset = 0;          ///< first byte of data in the file

  [[nodiscard]] bool chunked() const { return !chunk_dims.empty(); }
  /// Chunk grid dimensions (ceil-division); empty for contiguous.
  [[nodiscard]] std::vector<std::uint64_t> chunk_grid() const;
  [[nodiscard]] std::uint64_t chunk_bytes() const;
};

class H5File;

/// Handle on one dataset; valid while its H5File lives.
class Dataset {
 public:
  /// Write a hyperslab; `data` holds elements row-major, exactly
  /// slab.elements() * elem_size bytes. `collective` routes through
  /// mio::write_at_all (all ranks must call); independent ops go straight
  /// through mio::write_at.
  [[nodiscard]] Result<std::size_t> write(const Hyperslab& slab,
                                          std::span<const std::byte> data, bool collective);
  [[nodiscard]] Result<std::size_t> read(const Hyperslab& slab, std::span<std::byte> out,
                                         bool collective);

  /// File extents a hyperslab maps to (exposed for tests and analysis).
  [[nodiscard]] Result<std::vector<mio::Extent>> extents_of(const Hyperslab& slab) const;

  [[nodiscard]] const DatasetInfo& info() const { return info_; }

 private:
  friend class H5File;
  Dataset(H5File& file, DatasetInfo info) : file_(&file), info_(std::move(info)) {}

  H5File* file_;
  DatasetInfo info_;
};

/// A hierarchical file: groups + datasets + attributes over an mio::File.
class H5File {
 public:
  /// Fixed metadata header size; dataset data starts after it.
  static constexpr std::uint64_t kHeaderSize = 256 * 1024;

  /// Collective create (truncates) / open (parses the header).
  [[nodiscard]] static Result<std::unique_ptr<H5File>> create_all(par::Comm& comm, vfs::Backend& backend,
                                                    const std::string& path,
                                                    const mio::Hints& hints = {},
                                                    trace::Sink* sink = nullptr,
                                                    const trace::Clock* clock = nullptr);
  [[nodiscard]] static Result<std::unique_ptr<H5File>> open_all(par::Comm& comm, vfs::Backend& backend,
                                                  const std::string& path,
                                                  const mio::Hints& hints = {},
                                                  trace::Sink* sink = nullptr,
                                                  const trace::Clock* clock = nullptr);

  H5File(const H5File&) = delete;
  H5File& operator=(const H5File&) = delete;
  ~H5File();

  /// Collective: every rank applies the same deterministic metadata update.
  /// A group, dataset or attribute whose header line would push the
  /// serialized header to kHeaderSize is refused with an Error, and the
  /// metadata stays as it was.
  [[nodiscard]] Result<bool> create_group(const std::string& name);
  [[nodiscard]] Result<Dataset> create_dataset(const std::string& name, std::uint32_t elem_size,
                                               Dataspace space,
                                               std::vector<std::uint64_t> chunk_dims = {});
  [[nodiscard]] Result<Dataset> open_dataset(const std::string& name);

  /// Attributes: string key/value pairs attached to a path ("/": the file).
  [[nodiscard]] Result<bool> set_attribute(const std::string& owner, const std::string& key,
                             const std::string& value);
  [[nodiscard]] std::optional<std::string> attribute(const std::string& owner,
                                                     const std::string& key) const;

  [[nodiscard]] std::vector<std::string> dataset_names() const;
  [[nodiscard]] std::vector<std::string> group_names() const;

  /// Collective: rank 0 serializes the header, then the mio file closes.
  vfs::FsStatus close_all();

  [[nodiscard]] mio::File& mio_file() { return *mio_; }
  [[nodiscard]] par::Comm& comm() { return comm_; }

 private:
  H5File(par::Comm& comm, std::unique_ptr<mio::File> mio, trace::Sink* sink,
         const trace::Clock* clock);

  friend class Dataset;
  void emit(trace::OpKind op, const std::string& path, std::uint64_t size, SimTime start,
            bool ok);
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] std::string serialize_header() const;
  [[nodiscard]] Result<bool> parse_header(const std::string& text);

  par::Comm& comm_;
  std::unique_ptr<mio::File> mio_;
  trace::Sink* sink_;
  const trace::Clock* clock_;
  std::uint64_t alloc_cursor_ = kHeaderSize;
  std::map<std::string, DatasetInfo> datasets_;
  std::vector<std::string> groups_;
  std::map<std::string, std::map<std::string, std::string>> attributes_;
  /// Bytes the group, dataset and attribute lines take in the serialized
  /// header, kept current by every metadata call.
  std::uint64_t line_bytes_ = 0;
  bool closed_ = false;
};

}  // namespace pio::h5
