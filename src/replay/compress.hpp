// PIOEval replay: grammar-based trace compression (experiment C5).
//
// Hao et al. [15] "perform a trace compressing algorithm based on a suffix
// tree to reduce the size of traces, and then generate the C code of the
// corresponding benchmark." We implement the same idea with a Re-Pair
// grammar compressor over *delta-tokenized* op streams:
//
//  1. Tokenization maps each op to an abstract symbol where the file offset
//     is replaced by its delta from the file's running cursor. Regular
//     patterns (sequential writes, fixed strides, loop bodies) then map to
//     *identical* symbols regardless of absolute position.
//  2. Re-Pair repeatedly replaces the most frequent adjacent symbol pair
//     with a fresh nonterminal until no pair repeats, yielding a grammar
//     whose expansion reproduces the token stream exactly.
//
// Decompression is exactly lossless: expand the grammar, then replay the
// cursor arithmetic. The compression ratio (input symbols / grammar size)
// is what bench C5 reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workload/op.hpp"

namespace pio::replay {

/// Abstract op symbol: offset replaced by a cursor delta.
struct OpToken {
  workload::OpKind kind = workload::OpKind::kBarrier;
  FileId path_id = 0;  ///< the op's file in the workload's path table
  std::int64_t offset_delta = 0;  ///< offset - cursor(path); data ops only
  std::uint64_t size = 0;
  std::int64_t think_ns = 0;

  friend auto operator<=>(const OpToken&, const OpToken&) = default;
};

/// A Re-Pair grammar over token ids. Terminal symbols are < terminals();
/// nonterminals expand to exactly two symbols.
class Grammar {
 public:
  Grammar(std::uint32_t terminals, std::vector<std::pair<std::uint32_t, std::uint32_t>> rules,
          std::vector<std::uint32_t> sequence);

  /// Expand back to the exact original terminal stream.
  [[nodiscard]] std::vector<std::uint32_t> expand() const;

  [[nodiscard]] std::uint32_t terminals() const { return terminals_; }
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] std::size_t sequence_length() const { return sequence_.size(); }
  /// Symbols needed to store the grammar (sequence + 2 per rule).
  [[nodiscard]] std::size_t stored_symbols() const {
    return sequence_.size() + 2 * rules_.size();
  }

  /// Build by Re-Pair compression of a terminal stream.
  static Grammar compress(std::vector<std::uint32_t> stream, std::uint32_t terminals);

 private:
  std::uint32_t terminals_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rules_;  // nonterminal i = terminals_+i
  std::vector<std::uint32_t> sequence_;
};

/// A fully compressed multi-rank workload.
class CompressedWorkload {
 public:
  /// Compress every rank of a workload.
  static CompressedWorkload compress(const workload::Workload& workload);

  /// Reconstruct the exact original op streams.
  [[nodiscard]] std::unique_ptr<workload::Workload> decompress() const;

  /// Original symbols / stored symbols (>= 1; higher is better).
  [[nodiscard]] double compression_ratio() const;
  [[nodiscard]] std::size_t original_ops() const { return original_ops_; }
  [[nodiscard]] std::size_t stored_symbols() const;
  [[nodiscard]] std::size_t distinct_tokens() const { return tokens_.size(); }

 private:
  std::string name_;
  PathTable paths_;                         // path_id -> path
  std::vector<OpToken> tokens_;             // token id -> token
  std::vector<Grammar> per_rank_;
  std::size_t original_ops_ = 0;
};

}  // namespace pio::replay
