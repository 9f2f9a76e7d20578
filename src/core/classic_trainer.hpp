// Classic (non-GAN) LTFB — the original MLHPC'17 algorithm the paper
// extends ("a novel tournament method to train traditional as well as
// generative adversarial networks").
//
// A ClassicTrainer owns one supervised model (classification via softmax
// cross-entropy or regression via MSE) and its data partition; the whole
// model is exchanged in tournaments (there is no discriminator to hold
// back) and the tournament metric is the loss on the local hold-out set.
//
// The bundled task is scientific and real: classify the implosion regime
// (ignited / marginal / failed, by yield amplification) from a sample's
// observable outputs — a problem JAG data genuinely poses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/data_reader.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace ltfb::core {

/// Supervised objective of a classic trainer.
enum class ClassicTask { Classification, Regression };

struct ClassicModelConfig {
  std::size_t input_width = 0;
  std::vector<std::size_t> hidden = {32, 16};
  std::size_t output_width = 3;  // classes (classification) or targets
  nn::ActivationKind activation = nn::ActivationKind::Relu;
  float learning_rate = 1e-3f;
  ClassicTask task = ClassicTask::Classification;
};

/// A labelled supervised dataset view: row-major features plus either
/// integer class labels or regression targets.
struct SupervisedData {
  tensor::Tensor features;   // [N, input_width]
  std::vector<int> labels;   // classification
  tensor::Tensor targets;    // [N, output_width] regression
  std::size_t size() const noexcept { return features.rows(); }
};

/// Derives the ignition-regime classification task from JAG samples:
/// class 0 = failed (log-yield below `low`), 2 = ignited (above `high`),
/// 1 = marginal. Features are the sample's normalized outputs.
SupervisedData make_ignition_task(const data::Dataset& dataset,
                                  const std::vector<std::size_t>& view,
                                  float low = 0.0f, float high = 1.0f);

class ClassicTrainer {
 public:
  ClassicTrainer(int trainer_id, const ClassicModelConfig& config,
                 const SupervisedData* train, const SupervisedData* holdout,
                 std::size_t batch_size, std::uint64_t seed);

  int id() const noexcept { return id_; }
  nn::Model& model() noexcept { return model_; }
  std::size_t steps_taken() const noexcept { return steps_; }

  /// One SGD step on the next shuffled mini-batch; returns the loss.
  double train_step();
  void train_steps(std::size_t steps);

  /// Tournament metric: loss on the local hold-out (lower is better).
  double holdout_loss();

  /// Accuracy on an arbitrary supervised set (classification only).
  double accuracy(const SupervisedData& data);
  double loss_on(const SupervisedData& data);

 private:
  std::vector<std::size_t> next_positions();

  int id_;
  ClassicModelConfig config_;
  nn::Model model_;
  nn::LayerId output_layer_;
  const SupervisedData* train_;
  const SupervisedData* holdout_;
  std::size_t batch_size_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  std::size_t steps_ = 0;
};

/// LTFB over classic trainers: full-model exchange, hold-out-loss duels
/// decided by the shared core::duel (core/ltfb.hpp).
struct ClassicLtfbConfig {
  std::size_t steps_per_round = 20;
  std::size_t rounds = 10;
  std::uint64_t pairing_seed = 0xc1a5'51cull;
};

class ClassicLtfbDriver {
 public:
  ClassicLtfbDriver(std::vector<std::unique_ptr<ClassicTrainer>> trainers,
                    ClassicLtfbConfig config);

  std::size_t population() const noexcept { return trainers_.size(); }
  ClassicTrainer& trainer(std::size_t index);

  void run_round();
  void run();

  /// Index of the trainer with the lowest loss on `validation`.
  std::size_t best_trainer(const SupervisedData& validation);

  std::size_t tournaments_played() const noexcept { return duels_; }

 private:
  std::vector<std::unique_ptr<ClassicTrainer>> trainers_;
  ClassicLtfbConfig config_;
  std::size_t round_ = 0;
  std::size_t duels_ = 0;
};

}  // namespace ltfb::core
