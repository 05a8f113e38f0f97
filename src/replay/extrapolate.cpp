#include "replay/extrapolate.hpp"

#include <cctype>
#include <stdexcept>

namespace pio::replay {

namespace {

using workload::Op;
using workload::OpKind;

/// Split a path into literal fragments and the decimal substrings equal to
/// `rank`. Substrings that are decimal but != rank stay literal.
std::optional<std::vector<std::string>> rank_split(const std::string& path, std::int32_t rank) {
  std::vector<std::string> fragments{""};
  const std::string needle = std::to_string(rank);
  std::size_t i = 0;
  while (i < path.size()) {
    if (std::isdigit(static_cast<unsigned char>(path[i])) != 0) {
      // Longest decimal run starting here.
      std::size_t j = i;
      while (j < path.size() && std::isdigit(static_cast<unsigned char>(path[j])) != 0) ++j;
      const std::string digits = path.substr(i, j - i);
      if (digits == needle) {
        fragments.emplace_back();  // a rank slot between fragments
      } else {
        fragments.back() += digits;
      }
      i = j;
    } else {
      fragments.back() += path[i++];
    }
  }
  return fragments;
}

}  // namespace

std::string ExtrapolationModel::PathTemplate::instantiate(std::int32_t rank) const {
  std::string out = fragments.front();
  for (std::size_t s = 1; s < fragments.size(); ++s) {
    out += std::to_string(rank);
    out += fragments[s];
  }
  return out;
}

std::optional<ExtrapolationModel> ExtrapolationModel::fit(const workload::Workload& captured,
                                                          ExtrapolationError* error) {
  auto fail = [&](std::size_t position, std::string reason) -> std::optional<ExtrapolationModel> {
    if (error != nullptr) *error = ExtrapolationError{position, std::move(reason)};
    return std::nullopt;
  };
  if (captured.ranks() < 2) return fail(0, "need at least 2 captured ranks");
  const auto ops = workload::materialize(captured);
  for (std::size_t r = 1; r < ops.size(); ++r) {
    if (ops[r].size() != ops[0].size()) {
      return fail(0, "rank " + std::to_string(r) + " has a different op count");
    }
  }

  ExtrapolationModel model;
  model.captured_ranks_ = captured.ranks();
  model.name_ = captured.name();
  const std::size_t n = ops[0].size();
  for (std::size_t i = 0; i < n; ++i) {
    const Op& base = ops[0][i];
    OpPattern pattern;
    pattern.kind = base.kind;
    pattern.size = base.size.count();
    pattern.think_ns = base.think_time.ns();
    // Offsets: fit a + b*rank from ranks 0 and 1, verify against all.
    pattern.offset_base = static_cast<std::int64_t>(base.offset);
    pattern.offset_slope = static_cast<std::int64_t>(ops[1][i].offset) -
                           static_cast<std::int64_t>(base.offset);
    // Path template from rank 1 (rank 0's "0" substrings are ambiguous:
    // they match both the rank and any literal zero).
    const auto fragments = rank_split(captured.path(ops[1][i].file), 1);
    pattern.path.fragments = *fragments;
    pattern.path.rank_slots = pattern.path.fragments.size() - 1;

    for (std::size_t r = 0; r < ops.size(); ++r) {
      const Op& op = ops[r][i];
      if (op.kind != pattern.kind) return fail(i, "op kind varies across ranks");
      if (op.size.count() != pattern.size) return fail(i, "op size varies non-affinely");
      if (op.think_time.ns() != pattern.think_ns) return fail(i, "think time varies");
      const std::int64_t expected_offset =
          pattern.offset_base + pattern.offset_slope * static_cast<std::int64_t>(r);
      if (static_cast<std::int64_t>(op.offset) != expected_offset) {
        return fail(i, "offset is not affine in rank");
      }
      const std::string& path = captured.path(op.file);
      if (path != pattern.path.instantiate(static_cast<std::int32_t>(r))) {
        return fail(i, "path does not follow the rank template: " + path);
      }
    }
    model.pattern_.push_back(std::move(pattern));
  }
  return model;
}

std::unique_ptr<workload::Workload> ExtrapolationModel::generate(std::int32_t ranks) const {
  if (ranks <= 0) throw std::invalid_argument("ExtrapolationModel::generate: bad rank count");
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(ranks));
  PathTable paths;
  for (std::int32_t r = 0; r < ranks; ++r) {
    auto& ops = per_rank[static_cast<std::size_t>(r)];
    ops.reserve(pattern_.size());
    for (const auto& p : pattern_) {
      Op op;
      op.kind = p.kind;
      op.file = paths.intern(p.path.instantiate(r));
      const std::int64_t offset = p.offset_base + p.offset_slope * static_cast<std::int64_t>(r);
      if (offset < 0) throw std::logic_error("extrapolated offset is negative");
      op.offset = static_cast<std::uint64_t>(offset);
      op.size = Bytes{p.size};
      op.think_time = SimTime::from_ns(p.think_ns);
      ops.push_back(op);
    }
  }
  return std::make_unique<workload::VectorWorkload>(name_ + "-x" + std::to_string(ranks),
                                                    std::move(paths), std::move(per_rank));
}

}  // namespace pio::replay
