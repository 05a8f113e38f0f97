// PIOEval common: interned file names.
//
// A workload names every file it touches once, in a PathTable, and its ops
// carry the file's dense FileId instead of the path string (Recorder's
// per-trace file-name table is the model). An op is then a trivially
// copyable record and nothing on the op path hashes, compares or copies a
// path. Ids are dense from 0 and handed out in first-intern order; id 0 is
// always the empty path, named by ops that touch no file (compute,
// barrier). The MDS keeps a table of its own for the model's namespace
// (pfs::MetadataServer::intern).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pio {

using FileId = std::uint32_t;

class PathTable {
 public:
  PathTable() { intern({}); }

  /// The id of `path`, assigning the next one on first sight.
  FileId intern(std::string_view path) {
    const auto it = ids_.find(path);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<FileId>(paths_.size());
    paths_.emplace_back(path);
    ids_.emplace(paths_.back(), id);
    return id;
  }

  [[nodiscard]] const std::string& path(FileId id) const { return paths_.at(id); }
  [[nodiscard]] std::size_t size() const { return paths_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::vector<std::string> paths_;  // id -> path
  std::unordered_map<std::string, FileId, Hash, std::equal_to<>> ids_;
};

}  // namespace pio
