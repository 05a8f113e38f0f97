#include "predict/omnisio.hpp"

#include <stdexcept>

namespace pio::predict {

std::uint32_t NextOpPredictor::tokenize(const workload::Op& op) {
  replay::OpToken token;
  token.kind = op.kind;
  token.path_id = op.file;
  token.size = op.size.count();
  token.think_ns = op.think_time.ns();
  if (op.kind == workload::OpKind::kRead || op.kind == workload::OpKind::kWrite) {
    const std::uint64_t cur = cursor_[token.path_id];
    token.offset_delta =
        static_cast<std::int64_t>(op.offset) - static_cast<std::int64_t>(cur);
    cursor_[token.path_id] = op.offset + op.size.count();
  }
  const auto [it, inserted] =
      token_ids_.emplace(token, static_cast<std::uint32_t>(tokens_.size()));
  if (inserted) tokens_.push_back(token);
  return it->second;
}

workload::Op NextOpPredictor::detokenize(std::uint32_t token_id) const {
  const replay::OpToken& token = tokens_.at(token_id);
  workload::Op op;
  op.kind = token.kind;
  op.file = token.path_id;
  op.size = Bytes{token.size};
  op.think_time = SimTime::from_ns(token.think_ns);
  if (token.kind == workload::OpKind::kRead || token.kind == workload::OpKind::kWrite) {
    const auto it = cursor_.find(token.path_id);
    const std::uint64_t cur = it == cursor_.end() ? 0 : it->second;
    op.offset =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(cur) + token.offset_delta);
  }
  return op;
}

namespace {

std::optional<std::uint32_t> argmax_successor(
    const std::map<std::uint32_t, std::uint64_t>& successors) {
  if (successors.empty()) return std::nullopt;
  std::uint32_t best = 0;
  std::uint64_t best_count = 0;
  for (const auto& [successor, count] : successors) {
    if (count > best_count) {
      best = successor;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

std::optional<std::uint32_t> NextOpPredictor::best_successor() const {
  if (!last_token_.has_value()) return std::nullopt;
  if (prev_token_.has_value()) {
    const auto it = transitions2_.find({*prev_token_, *last_token_});
    if (it != transitions2_.end()) {
      if (auto best = argmax_successor(it->second)) return best;
    }
  }
  const auto it = transitions1_.find(*last_token_);
  if (it != transitions1_.end()) return argmax_successor(it->second);
  return std::nullopt;
}

std::optional<workload::Op> NextOpPredictor::predict_next() const {
  const auto token = best_successor();
  if (!token.has_value()) return std::nullopt;
  return detokenize(*token);
}

bool NextOpPredictor::observe(const workload::Op& op) {
  // Predict before updating state (fair online evaluation). Compare at the
  // token level: predicting "sequential 1 MiB write to f" is a hit even
  // though detokenize also resolves the absolute offset.
  const auto predicted_token = best_successor();
  const std::uint32_t actual = tokenize(op);
  bool hit = false;
  if (last_token_.has_value()) {
    ++predictions_;
    hit = predicted_token.has_value() && *predicted_token == actual;
    if (hit) ++hits_;
    ++transitions1_[*last_token_][actual];
    if (prev_token_.has_value()) {
      ++transitions2_[{*prev_token_, *last_token_}][actual];
    }
  }
  prev_token_ = last_token_;
  last_token_ = actual;
  ++observed_;
  return hit;
}

PredictionTrajectory evaluate_predictability(const workload::Workload& workload,
                                             std::int32_t rank, std::size_t window) {
  if (rank < 0 || rank >= workload.ranks()) {
    throw std::invalid_argument("evaluate_predictability: bad rank");
  }
  if (window == 0) throw std::invalid_argument("evaluate_predictability: zero window");
  NextOpPredictor predictor;
  PredictionTrajectory trajectory;
  std::size_t in_window = 0;
  std::size_t window_hits = 0;
  for (const workload::Op& op : workload.ops(rank)) {
    const bool hit = predictor.observe(op);
    if (predictor.observed_ops() == 1) continue;  // no prediction possible yet
    ++in_window;
    if (hit) ++window_hits;
    if (in_window == window) {
      trajectory.per_window_accuracy.push_back(static_cast<double>(window_hits) /
                                               static_cast<double>(in_window));
      in_window = 0;
      window_hits = 0;
    }
  }
  if (in_window > 0) {
    trajectory.per_window_accuracy.push_back(static_cast<double>(window_hits) /
                                             static_cast<double>(in_window));
  }
  trajectory.overall_accuracy = predictor.accuracy();
  trajectory.alphabet_size = predictor.alphabet_size();
  return trajectory;
}

}  // namespace pio::predict
