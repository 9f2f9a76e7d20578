// An LBANN-style "trainer": a unit of compute that owns one CycleGAN model,
// a mini-batch reader over its private partition of the training data, and
// a local tournament hold-out set (Sec. III-A, III-C).
//
// In the paper a trainer is 4 nodes / 16 GPUs of Lassen; here it is the
// one object every GAN driver steps — the lockstep, rank-parallel and
// elastic drivers alike (DESIGN.md §17). Inside a rank-parallel trainer
// every rank owns an identical GanTrainer that draws the same global
// mini-batch and trains on its own row shard of it, with gradients
// all-reduced through the data-parallel seams below.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/data_reader.hpp"
#include "gan/cyclegan.hpp"

namespace ltfb::core {

/// Mean evaluation metrics of a model over a dataset view, computed in
/// mini-batches (the remainder partial batch is included).
gan::EvalMetrics evaluate_gan(gan::CycleGan& model,
                              const data::Dataset& dataset,
                              const std::vector<std::size_t>& view,
                              std::size_t batch_size);

/// What a tournament evaluates on the local tournament set.
enum class TournamentMetric {
  ForwardInverse,  // forward + inverse validation loss (Sec. IV quality metric)
  ForwardInverseAdversarial  // additionally charge the generator the BCE it
                             // incurs against the LOCAL critic (Fig. 6 flavour)
};

/// Complete resumable state of one GanTrainer. Weights alone are not
/// enough for a bit-identical restart: the optimizer moments and the
/// reader's (epoch, cursor) position change every subsequent step, so all
/// of it travels together (checkpoint format v2, see core/
/// population_checkpoint.hpp).
struct GanTrainerState {
  int trainer_id = 0;
  float learning_rate = 0.0f;
  std::uint64_t steps = 0;
  std::uint64_t reader_epoch = 0;
  std::uint64_t reader_cursor = 0;
  std::vector<float> generator;
  std::vector<float> discriminator;
  std::vector<float> optimizer_state;
};

class GanTrainer {
 public:
  /// `train_view` — this trainer's partition of the training set;
  /// `tournament_view` — its local held-out tournament set.
  GanTrainer(int trainer_id, gan::CycleGanConfig model_config,
             const data::Dataset& dataset, std::vector<std::size_t> train_view,
             std::vector<std::size_t> tournament_view, std::size_t batch_size,
             std::uint64_t seed);

  int id() const noexcept { return id_; }
  gan::CycleGan& model() noexcept { return model_; }
  const gan::CycleGan& model() const noexcept { return model_; }

  std::size_t steps_taken() const noexcept { return steps_; }
  std::size_t partition_size() const noexcept { return train_size_; }

  /// Autoencoder warm-up ("trained a priori", Sec. II-D).
  void pretrain_autoencoder(std::size_t steps);

  /// `steps` full GAN training steps on the local partition.
  gan::StepMetrics train_steps(std::size_t steps);

  /// Data-parallel layout: every rank of a trainer draws the SAME global
  /// mini-batch (shared reader seed) and trains on rows [begin, begin +
  /// rows) of it. The default shard is the whole batch.
  void set_row_shard(std::size_t begin, std::size_t rows);

  /// The tournament metric on the local tournament set, lower is better
  /// (Sec. IV-D): forward + inverse validation loss, plus the generator's
  /// adversarial loss under ForwardInverseAdversarial.
  double tournament_score(TournamentMetric metric);

  const data::Dataset& dataset() const noexcept { return *dataset_; }
  const std::vector<std::size_t>& tournament_view() const noexcept {
    return tournament_view_;
  }
  std::size_t batch_size() const noexcept { return batch_size_; }

  /// Snapshot of everything needed to resume this trainer bit-identically.
  GanTrainerState capture_state() const;

  /// Restores a snapshot onto an identically configured trainer; throws
  /// ltfb::InvalidArgument on an id or shape mismatch.
  void restore_state(const GanTrainerState& state);

  /// Data-parallel seams, forwarded onto the underlying CycleGAN: the sync
  /// runs before each optimizer step group, the backward hook streams
  /// per-layer gradients out during backprop (see gan::CycleGan).
  void set_gradient_sync(gan::CycleGan::GradientSync sync) {
    model_.set_gradient_sync(std::move(sync));
  }
  void set_backward_hook(gan::CycleGan::BackwardHook hook) {
    model_.set_backward_hook(std::move(hook));
  }

 private:
  /// This rank's rows of the next global mini-batch.
  data::Batch next_batch();

  int id_;
  gan::CycleGan model_;
  const data::Dataset* dataset_;
  std::vector<std::size_t> tournament_view_;
  data::MiniBatchReader reader_;
  std::size_t batch_size_;
  std::size_t train_size_;
  std::size_t shard_begin_ = 0;
  std::size_t shard_rows_;
  std::size_t steps_ = 0;
};

}  // namespace ltfb::core
