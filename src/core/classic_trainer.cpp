#include "core/classic_trainer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/ltfb.hpp"  // tournament_pairs, duel

namespace ltfb::core {

SupervisedData make_ignition_task(const data::Dataset& dataset,
                                  const std::vector<std::size_t>& view,
                                  float low, float high) {
  LTFB_CHECK_MSG(!view.empty(), "empty view for ignition task");
  const auto& schema = dataset.schema();
  SupervisedData out;
  out.features.resize({view.size(), schema.output_width()});
  out.labels.reserve(view.size());
  for (std::size_t r = 0; r < view.size(); ++r) {
    const data::Sample& sample = dataset.sample(view[r]);
    float* row = out.features.raw() + r * schema.output_width();
    std::copy(sample.scalars.begin(), sample.scalars.end(), row);
    std::copy(sample.images.begin(), sample.images.end(),
              row + sample.scalars.size());
    // Scalar 0 is (normalized) log10 yield; threshold into three regimes.
    const float log_yield = sample.scalars[0];
    int label = 1;
    if (log_yield < low) label = 0;
    if (log_yield > high) label = 2;
    out.labels.push_back(label);
  }
  return out;
}

ClassicTrainer::ClassicTrainer(int trainer_id,
                               const ClassicModelConfig& config,
                               const SupervisedData* train,
                               const SupervisedData* holdout,
                               std::size_t batch_size, std::uint64_t seed)
    : id_(trainer_id),
      config_(config),
      model_("classic", util::derive_seed(seed, "classic-model",
                                          static_cast<std::uint64_t>(
                                              trainer_id))),
      train_(train),
      holdout_(holdout),
      batch_size_(batch_size),
      rng_(util::derive_seed(seed, "classic-reader",
                             static_cast<std::uint64_t>(trainer_id))) {
  LTFB_CHECK(train_ != nullptr && holdout_ != nullptr);
  LTFB_CHECK_MSG(train_->size() >= batch_size_,
                 "training view smaller than one batch");
  LTFB_CHECK(config_.input_width == train_->features.cols());

  nn::LayerId cursor =
      model_.add_input(config_.input_width, nn::InputKind::Data);
  for (const std::size_t width : config_.hidden) {
    cursor = model_.add_dense(cursor, width, config_.activation);
  }
  output_layer_ = model_.add_linear(cursor, config_.output_width);
  model_.set_optimizer(nn::make_adam_factory(config_.learning_rate));

  order_.resize(train_->size());
  std::iota(order_.begin(), order_.end(), 0);
  rng_.shuffle(order_);
}

std::vector<std::size_t> ClassicTrainer::next_positions() {
  if (cursor_ + batch_size_ > order_.size()) {
    rng_.shuffle(order_);
    cursor_ = 0;
  }
  std::vector<std::size_t> positions(
      order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
      order_.begin() + static_cast<std::ptrdiff_t>(cursor_ + batch_size_));
  cursor_ += batch_size_;
  return positions;
}

namespace {

/// Gathers feature rows (and labels/targets) for the given positions.
void gather(const SupervisedData& data,
            const std::vector<std::size_t>& positions,
            tensor::Tensor& features, std::vector<int>* labels,
            tensor::Tensor* targets) {
  const std::size_t width = data.features.cols();
  features.resize({positions.size(), width});
  if (labels != nullptr) labels->clear();
  if (targets != nullptr && !data.targets.empty()) {
    targets->resize({positions.size(), data.targets.cols()});
  }
  for (std::size_t r = 0; r < positions.size(); ++r) {
    const std::size_t p = positions[r];
    std::copy_n(data.features.raw() + p * width, width,
                features.raw() + r * width);
    if (labels != nullptr && !data.labels.empty()) {
      labels->push_back(data.labels[p]);
    }
    if (targets != nullptr && !data.targets.empty()) {
      std::copy_n(data.targets.raw() + p * data.targets.cols(),
                  data.targets.cols(),
                  targets->raw() + r * data.targets.cols());
    }
  }
}

}  // namespace

double ClassicTrainer::train_step() {
  const auto positions = next_positions();
  tensor::Tensor features, targets;
  std::vector<int> labels;
  gather(*train_, positions, features, &labels, &targets);

  model_.forward({&features}, /*training=*/true);
  tensor::Tensor grad;
  double loss = 0.0;
  if (config_.task == ClassicTask::Classification) {
    loss = nn::softmax_cross_entropy(model_.output(output_layer_), labels,
                                     &grad);
  } else {
    loss = nn::mse_loss(model_.output(output_layer_), targets, &grad);
  }
  model_.zero_gradients();
  model_.add_output_gradient(output_layer_, grad);
  model_.backward();
  model_.apply_optimizer_step();
  ++steps_;
  return loss;
}

void ClassicTrainer::train_steps(std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) {
    (void)train_step();
  }
}

double ClassicTrainer::loss_on(const SupervisedData& data) {
  model_.forward({&data.features}, /*training=*/false);
  if (config_.task == ClassicTask::Classification) {
    return nn::softmax_cross_entropy(model_.output(output_layer_),
                                     data.labels, nullptr);
  }
  return nn::mse_loss(model_.output(output_layer_), data.targets, nullptr);
}

double ClassicTrainer::holdout_loss() { return loss_on(*holdout_); }

double ClassicTrainer::accuracy(const SupervisedData& data) {
  LTFB_CHECK_MSG(config_.task == ClassicTask::Classification,
                 "accuracy is a classification metric");
  model_.forward({&data.features}, /*training=*/false);
  return nn::classification_accuracy(model_.output(output_layer_),
                                     data.labels);
}

ClassicLtfbDriver::ClassicLtfbDriver(
    std::vector<std::unique_ptr<ClassicTrainer>> trainers,
    ClassicLtfbConfig config)
    : trainers_(std::move(trainers)), config_(config) {
  LTFB_CHECK_MSG(!trainers_.empty(), "classic LTFB needs trainers");
}

ClassicTrainer& ClassicLtfbDriver::trainer(std::size_t index) {
  LTFB_CHECK(index < trainers_.size());
  return *trainers_[index];
}

void ClassicLtfbDriver::run_round() {
  for (auto& trainer : trainers_) {
    trainer->train_steps(config_.steps_per_round);
  }
  const auto pairs =
      tournament_pairs(trainers_.size(), config_.pairing_seed, round_);
  for (const auto& [a, b] : pairs) {
    ClassicTrainer& ta = *trainers_[static_cast<std::size_t>(a)];
    ClassicTrainer& tb = *trainers_[static_cast<std::size_t>(b)];
    const std::vector<float> wa = ta.model().flatten_weights();
    const std::vector<float> wb = tb.model().flatten_weights();
    auto duel_side = [&](ClassicTrainer& local, const std::vector<float>& own,
                         const std::vector<float>& received) {
      TrainerRoundStat stat;
      duel([&] { return local.holdout_loss(); },
           [&](std::span<const float> weights) {
             local.model().load_flat_weights(weights);
           },
           own, received, stat);
      ++duels_;
    };
    duel_side(ta, wa, wb);
    duel_side(tb, wb, wa);
  }
  ++round_;
}

void ClassicLtfbDriver::run() {
  for (std::size_t r = 0; r < config_.rounds; ++r) {
    run_round();
  }
}

std::size_t ClassicLtfbDriver::best_trainer(const SupervisedData& validation) {
  std::size_t best = 0;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < trainers_.size(); ++i) {
    const double loss = trainers_[i]->loss_on(validation);
    if (loss < best_loss) {
      best_loss = loss;
      best = i;
    }
  }
  return best;
}

}  // namespace ltfb::core
