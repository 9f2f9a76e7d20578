#include "core/gan_trainer.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ltfb::core {

namespace {

/// Rows [begin, end) of a batch.
data::Batch slice_batch(const data::Batch& batch, std::size_t begin,
                        std::size_t end) {
  LTFB_CHECK(begin < end && end <= batch.size());
  const std::size_t rows = end - begin;
  data::Batch shard;
  auto slice = [&](const tensor::Tensor& src, tensor::Tensor& dst) {
    const std::size_t width = src.cols();
    dst.resize({rows, width});
    std::copy_n(src.raw() + begin * width, rows * width, dst.raw());
  };
  slice(batch.inputs, shard.inputs);
  slice(batch.scalars, shard.scalars);
  slice(batch.images, shard.images);
  slice(batch.outputs, shard.outputs);
  shard.ids.assign(batch.ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   batch.ids.begin() + static_cast<std::ptrdiff_t>(end));
  return shard;
}

}  // namespace

gan::EvalMetrics evaluate_gan(gan::CycleGan& model,
                              const data::Dataset& dataset,
                              const std::vector<std::size_t>& view,
                              std::size_t batch_size) {
  LTFB_CHECK_MSG(!view.empty(), "evaluation view is empty");
  LTFB_SPAN("trainer/evaluate");
  gan::EvalMetrics mean;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < view.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, view.size());
    const std::vector<std::size_t> positions(
        view.begin() + static_cast<std::ptrdiff_t>(begin),
        view.begin() + static_cast<std::ptrdiff_t>(end));
    const data::Batch batch = data::make_batch(dataset, positions);
    const gan::EvalMetrics m = model.evaluate(batch);
    mean.forward_loss += m.forward_loss;
    mean.inverse_loss += m.inverse_loss;
    mean.reconstruction_loss += m.reconstruction_loss;
    mean.discriminator_accuracy += m.discriminator_accuracy;
    ++batches;
  }
  const auto n = static_cast<double>(batches);
  mean.forward_loss /= n;
  mean.inverse_loss /= n;
  mean.reconstruction_loss /= n;
  mean.discriminator_accuracy /= n;
  return mean;
}

GanTrainer::GanTrainer(int trainer_id, gan::CycleGanConfig model_config,
                       const data::Dataset& dataset,
                       std::vector<std::size_t> train_view,
                       std::vector<std::size_t> tournament_view,
                       std::size_t batch_size, std::uint64_t seed)
    : id_(trainer_id),
      model_(std::move(model_config),
             util::derive_seed(seed, "model",
                               static_cast<std::uint64_t>(trainer_id))),
      dataset_(&dataset),
      tournament_view_(std::move(tournament_view)),
      reader_(dataset, std::move(train_view), batch_size,
              util::derive_seed(seed, "reader",
                                static_cast<std::uint64_t>(trainer_id)),
              /*drop_last=*/true),
      batch_size_(batch_size),
      train_size_(reader_.batches_per_epoch() * batch_size),
      shard_rows_(batch_size) {
  LTFB_CHECK_MSG(!tournament_view_.empty(),
                 "trainer " << trainer_id << " has no tournament set");
}

void GanTrainer::set_row_shard(std::size_t begin, std::size_t rows) {
  LTFB_CHECK_MSG(rows > 0 && begin + rows <= batch_size_,
                 "row shard [" << begin << ", " << begin + rows
                               << ") exceeds the mini-batch of "
                               << batch_size_);
  shard_begin_ = begin;
  shard_rows_ = rows;
}

data::Batch GanTrainer::next_batch() {
  data::Batch batch = reader_.next();
  if (shard_rows_ == batch_size_) return batch;
  return slice_batch(batch, shard_begin_, shard_begin_ + shard_rows_);
}

void GanTrainer::pretrain_autoencoder(std::size_t steps) {
  LTFB_SPAN("trainer/pretrain");
  for (std::size_t s = 0; s < steps; ++s) {
    model_.pretrain_autoencoder_step(next_batch());
  }
}

gan::StepMetrics GanTrainer::train_steps(std::size_t steps) {
  LTFB_SPAN("trainer/train_steps");
  gan::StepMetrics last{};
  for (std::size_t s = 0; s < steps; ++s) {
    LTFB_TIMED_SCOPE("trainer/step");
    last = model_.train_step(next_batch());
    ++steps_;
  }
  return last;
}

double GanTrainer::tournament_score(TournamentMetric metric) {
  const gan::EvalMetrics m =
      evaluate_gan(model_, *dataset_, tournament_view_, batch_size_);
  double score = m.total();
  if (metric == TournamentMetric::ForwardInverseAdversarial) {
    score += m.generator_adversarial;
  }
  return score;
}

GanTrainerState GanTrainer::capture_state() const {
  GanTrainerState state;
  state.trainer_id = id_;
  state.learning_rate = model_.learning_rate();
  state.steps = steps_;
  state.reader_epoch = reader_.epoch();
  state.reader_cursor = reader_.cursor();
  state.generator = model_.generator_weights();
  state.discriminator = model_.discriminator_weights();
  state.optimizer_state = model_.optimizer_state();
  return state;
}

void GanTrainer::restore_state(const GanTrainerState& state) {
  LTFB_CHECK_MSG(state.trainer_id == id_,
                 "checkpoint slot is for trainer " << state.trainer_id
                                                   << ", this is trainer "
                                                   << id_);
  model_.load_generator_weights(state.generator);
  model_.load_discriminator_weights(state.discriminator);
  model_.load_optimizer_state(state.optimizer_state);
  // Learning rate AFTER optimizer state: set_learning_rate writes through
  // to every component optimizer, which deserialize does not touch.
  model_.set_learning_rate(state.learning_rate);
  reader_.restore(static_cast<std::size_t>(state.reader_epoch),
                  static_cast<std::size_t>(state.reader_cursor));
  steps_ = static_cast<std::size_t>(state.steps);
}

}  // namespace ltfb::core
