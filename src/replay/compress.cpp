#include "replay/compress.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace pio::replay {

namespace {

using workload::Op;
using workload::OpKind;

/// Pair hash for the Re-Pair frequency table.
struct PairHash {
  std::size_t operator()(const std::pair<std::uint32_t, std::uint32_t>& p) const {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(p.first) << 32) | p.second);
  }
};

}  // namespace

Grammar::Grammar(std::uint32_t terminals,
                 std::vector<std::pair<std::uint32_t, std::uint32_t>> rules,
                 std::vector<std::uint32_t> sequence)
    : terminals_(terminals), rules_(std::move(rules)), sequence_(std::move(sequence)) {}

std::vector<std::uint32_t> Grammar::expand() const {
  std::vector<std::uint32_t> out;
  // Iterative expansion with an explicit stack (rules can nest deeply).
  std::vector<std::uint32_t> stack;
  for (auto it = sequence_.rbegin(); it != sequence_.rend(); ++it) stack.push_back(*it);
  while (!stack.empty()) {
    const std::uint32_t sym = stack.back();
    stack.pop_back();
    if (sym < terminals_) {
      out.push_back(sym);
    } else {
      const auto& [a, b] = rules_.at(sym - terminals_);
      stack.push_back(b);
      stack.push_back(a);
    }
  }
  return out;
}

Grammar Grammar::compress(std::vector<std::uint32_t> stream, std::uint32_t terminals) {
  // Straightforward Re-Pair: O(n) passes, each replacing the globally most
  // frequent pair. Fine for trace-scale inputs (the asymptotically optimal
  // version maintains priority queues; not needed here).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rules;
  std::uint32_t next_symbol = terminals;
  for (;;) {
    if (stream.size() < 2) break;
    std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t, PairHash> freq;
    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
      ++freq[{stream[i], stream[i + 1]}];
    }
    // Most frequent pair. The selection below is order-independent — the
    // (count, pair) comparison is a strict total order over all entries, so
    // the same `best` wins whatever order the hash table yields.
    std::pair<std::uint32_t, std::uint32_t> best{0, 0};
    std::uint32_t best_count = 1;
    for (const auto& [pair, count] : freq) {  // piolint: allow(D2)
      if (count > best_count ||
          (count == best_count && best_count > 1 && pair < best)) {
        best = pair;
        best_count = count;
      }
    }
    if (best_count < 2) break;
    // Replace non-overlapping occurrences left to right.
    std::vector<std::uint32_t> next;
    next.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size();) {
      if (i + 1 < stream.size() && stream[i] == best.first && stream[i + 1] == best.second) {
        next.push_back(next_symbol);
        i += 2;
      } else {
        next.push_back(stream[i]);
        ++i;
      }
    }
    rules.push_back(best);
    ++next_symbol;
    stream = std::move(next);
  }
  return Grammar{terminals, std::move(rules), std::move(stream)};
}

CompressedWorkload CompressedWorkload::compress(const workload::Workload& workload) {
  CompressedWorkload out;
  out.name_ = workload.name();
  out.paths_ = workload.paths();
  std::map<OpToken, std::uint32_t> token_ids;

  for (std::int32_t r = 0; r < workload.ranks(); ++r) {
    auto stream = workload.stream(r);
    std::vector<std::uint32_t> symbols;
    // Per-file running cursor for delta tokenization.
    std::unordered_map<std::uint32_t, std::uint64_t> cursor;
    while (auto op = stream->next()) {
      ++out.original_ops_;
      OpToken token;
      token.kind = op->kind;
      token.path_id = op->file;
      token.size = op->size.count();
      token.think_ns = op->think_time.ns();
      if (op->kind == OpKind::kRead || op->kind == OpKind::kWrite) {
        const std::uint64_t cur = cursor[token.path_id];
        token.offset_delta = static_cast<std::int64_t>(op->offset) -
                             static_cast<std::int64_t>(cur);
        cursor[token.path_id] = op->offset + op->size.count();
      }
      const auto [it, inserted] =
          token_ids.emplace(token, static_cast<std::uint32_t>(out.tokens_.size()));
      if (inserted) out.tokens_.push_back(token);
      symbols.push_back(it->second);
    }
    out.per_rank_.push_back(Grammar::compress(
        std::move(symbols),
        static_cast<std::uint32_t>(token_ids.size()) +
            static_cast<std::uint32_t>(workload.ranks())));
  }
  return out;
}

std::unique_ptr<workload::Workload> CompressedWorkload::decompress() const {
  std::vector<std::vector<Op>> per_rank;
  per_rank.reserve(per_rank_.size());
  for (const auto& grammar : per_rank_) {
    std::vector<Op> ops;
    std::unordered_map<std::uint32_t, std::uint64_t> cursor;
    for (const auto sym : grammar.expand()) {
      const OpToken& token = tokens_.at(sym);
      Op op;
      op.kind = token.kind;
      op.file = token.path_id;
      op.size = Bytes{token.size};
      op.think_time = SimTime::from_ns(token.think_ns);
      if (token.kind == OpKind::kRead || token.kind == OpKind::kWrite) {
        const std::uint64_t cur = cursor[token.path_id];
        op.offset = static_cast<std::uint64_t>(static_cast<std::int64_t>(cur) +
                                               token.offset_delta);
        cursor[token.path_id] = op.offset + token.size;
      }
      ops.push_back(op);
    }
    per_rank.push_back(std::move(ops));
  }
  return std::make_unique<workload::VectorWorkload>(name_ + "-decompressed", paths_,
                                                    std::move(per_rank));
}

double CompressedWorkload::compression_ratio() const {
  const std::size_t stored = stored_symbols();
  return stored == 0 ? 1.0
                     : static_cast<double>(original_ops_) / static_cast<double>(stored);
}

std::size_t CompressedWorkload::stored_symbols() const {
  std::size_t stored = 0;
  for (const auto& grammar : per_rank_) stored += grammar.stored_symbols();
  return stored;
}

}  // namespace pio::replay
