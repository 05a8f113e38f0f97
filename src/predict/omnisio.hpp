// PIOEval predict: grammar/sequence-based I/O behaviour prediction
// (Omnisc'IO-style, Dorier et al. [55], §IV.B.2).
//
// "Using formal grammars to predict I/O behaviors in HPC": the observation
// is that an application's op stream is highly structured, so a model fit
// on its prefix can predict what comes next — when the next write will
// happen and how big it will be — enabling prefetching and scheduling.
//
// We implement the same capability over the toolkit's delta-tokenized op
// alphabet (see pio::replay::OpToken): a first-order Markov chain over
// observed tokens, trained online. Regular workloads (IOR, checkpoint,
// BT-IO) approach 100% next-op accuracy after one phase; shuffled DL reads
// stay near chance — reproducing the paper's point that emerging workloads
// defeat structure-based prediction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "replay/compress.hpp"
#include "workload/op.hpp"

namespace pio::predict {

/// Online next-operation predictor over one rank's op stream.
class NextOpPredictor {
 public:
  /// Observe the next op of the stream; returns true if the op was
  /// predicted correctly BEFORE observing it (prediction-then-update).
  /// Ops name files by id, so one predictor observes one workload's ops,
  /// and a predicted op's file is an id in that workload's path table.
  bool observe(const workload::Op& op);

  /// Current prediction for the next op, if the model has one (the most
  /// probable successor of the last observed token). nullopt before any
  /// observation or from never-seen states.
  [[nodiscard]] std::optional<workload::Op> predict_next() const;

  /// Fraction of observations (after the first) that were predicted
  /// correctly.
  [[nodiscard]] double accuracy() const {
    return predictions_ == 0 ? 0.0
                             : static_cast<double>(hits_) / static_cast<double>(predictions_);
  }
  [[nodiscard]] std::uint64_t observed_ops() const { return observed_; }
  [[nodiscard]] std::size_t alphabet_size() const { return tokens_.size(); }

 private:
  [[nodiscard]] std::uint32_t tokenize(const workload::Op& op);
  [[nodiscard]] workload::Op detokenize(std::uint32_t token) const;

  // Token bookkeeping (shared alphabet with the compressor's semantics).
  std::map<replay::OpToken, std::uint32_t> token_ids_;
  std::vector<replay::OpToken> tokens_;
  std::map<FileId, std::uint64_t> cursor_;  // file -> next offset

  // Variable-order context model: second-order transitions (the last two
  // tokens) with a first-order fallback for unseen contexts. Order-2 is
  // enough to disambiguate the "A A B" loop shapes that dominate HPC I/O
  // streams; real Omnisc'IO grows a full grammar.
  [[nodiscard]] std::optional<std::uint32_t> best_successor() const;

  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::map<std::uint32_t, std::uint64_t>>
      transitions2_;
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> transitions1_;
  std::optional<std::uint32_t> last_token_;
  std::optional<std::uint32_t> prev_token_;

  std::uint64_t observed_ = 0;
  std::uint64_t predictions_ = 0;
  std::uint64_t hits_ = 0;
};

/// Convenience: run the predictor over a whole rank stream and report the
/// accuracy trajectory (fraction correct in each consecutive `window`).
struct PredictionTrajectory {
  double overall_accuracy = 0.0;
  std::vector<double> per_window_accuracy;
  std::size_t alphabet_size = 0;
};

[[nodiscard]] PredictionTrajectory evaluate_predictability(const workload::Workload& workload,
                                                           std::int32_t rank,
                                                           std::size_t window = 256);

}  // namespace pio::predict
