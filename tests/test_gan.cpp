// Tests for the CycleGAN surrogate: construction, training dynamics,
// generator/discriminator exchange semantics, and the data-parallel
// gradient-sync hook.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "data/data_reader.hpp"
#include "data/dataset.hpp"
#include "gan/cyclegan.hpp"
#include "perf/model_cost.hpp"
#include "tensor/ops.hpp"
#include "util/compute_pool.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::gan;

CycleGanConfig tiny_config() {
  CycleGanConfig config;
  config.image_width = 48;  // e.g. 4x4 x 3 images
  config.latent_width = 8;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  config.forward_hidden = {12};
  config.inverse_hidden = {8};
  config.discriminator_hidden = {8};
  config.learning_rate = 2e-3f;
  return config;
}

data::Dataset tiny_dataset(std::size_t n, std::uint64_t seed) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_views = 3;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, n, seed);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);
  return dataset;
}

data::Batch batch_of(const data::Dataset& dataset, std::size_t n) {
  std::vector<std::size_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0);
  return data::make_batch(dataset, positions);
}

TEST(CycleGan, ConstructionShapes) {
  const CycleGan model(tiny_config(), 1);
  EXPECT_GT(model.parameter_count(), 0u);
  EXPECT_GT(model.generator_parameter_count(), 0u);
  EXPECT_LT(model.generator_parameter_count(), model.parameter_count());
}

TEST(CycleGan, ParameterCountMatchesAnalyticModel) {
  // The perf cost model and the real network must agree exactly — this
  // pins the performance plane to the real implementation.
  const CycleGanConfig config = tiny_config();
  CycleGan model(config, 2);
  const perf::CycleGanCost cost = perf::analyze(config);
  EXPECT_DOUBLE_EQ(cost.total_params(),
                   static_cast<double>(model.parameter_count()));
  EXPECT_DOUBLE_EQ(cost.generator_params(),
                   static_cast<double>(model.generator_parameter_count()));
  EXPECT_DOUBLE_EQ(cost.encoder_params,
                   static_cast<double>(model.encoder().parameter_count()));
}

TEST(CycleGan, SameSeedSameWeights) {
  CycleGan a(tiny_config(), 7), b(tiny_config(), 7), c(tiny_config(), 8);
  EXPECT_EQ(a.generator_weights(), b.generator_weights());
  EXPECT_NE(a.generator_weights(), c.generator_weights());
}

TEST(CycleGan, InvalidConfigThrows) {
  CycleGanConfig config = tiny_config();
  config.scalar_width = 0;
  config.image_width = 0;
  EXPECT_THROW(CycleGan(config, 1), InvalidArgument);
}

TEST(CycleGan, PredictOutputsShape) {
  CycleGan model(tiny_config(), 3);
  const tensor::Tensor x(4, 5);
  const tensor::Tensor y = model.predict_outputs(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), tiny_config().output_width());
  EXPECT_TRUE(tensor::all_finite(y.data()));
}

TEST(CycleGan, CycleAndInversionShapes) {
  CycleGan model(tiny_config(), 4);
  const tensor::Tensor x(3, 5);
  EXPECT_EQ(model.cycle_inputs(x).cols(), 5u);
  const tensor::Tensor y(3, tiny_config().output_width());
  EXPECT_EQ(model.invert_outputs(y).cols(), 5u);
}

TEST(CycleGan, AutoencoderPretrainingReducesReconstruction) {
  const data::Dataset dataset = tiny_dataset(128, 10);
  CycleGan model(tiny_config(), 5);
  const data::Batch batch = batch_of(dataset, 32);
  const double first = model.pretrain_autoencoder_step(batch);
  double last = first;
  for (int i = 0; i < 150; ++i) {
    last = model.pretrain_autoencoder_step(batch);
  }
  EXPECT_LT(last, 0.6 * first);
}

TEST(CycleGan, TrainingImprovesValidationMetrics) {
  const data::Dataset dataset = tiny_dataset(256, 11);
  CycleGan model(tiny_config(), 6);
  data::MiniBatchReader reader(
      dataset, [] {
        std::vector<std::size_t> v(192);
        std::iota(v.begin(), v.end(), 0);
        return v;
      }(),
      32, 12);
  std::vector<std::size_t> val_positions(64);
  std::iota(val_positions.begin(), val_positions.end(), 192);
  const data::Batch val = data::make_batch(dataset, val_positions);

  const EvalMetrics before = model.evaluate(val);
  for (int i = 0; i < 60; ++i) {
    model.pretrain_autoencoder_step(reader.next());
  }
  for (int i = 0; i < 250; ++i) {
    model.train_step(reader.next());
  }
  const EvalMetrics after = model.evaluate(val);
  EXPECT_LT(after.forward_loss, before.forward_loss);
  EXPECT_LT(after.inverse_loss, before.inverse_loss);
  EXPECT_LT(after.total(), 0.8 * before.total());
}

TEST(CycleGan, StepMetricsAreFinite) {
  const data::Dataset dataset = tiny_dataset(64, 12);
  CycleGan model(tiny_config(), 7);
  const data::Batch batch = batch_of(dataset, 16);
  for (int i = 0; i < 20; ++i) {
    const StepMetrics m = model.train_step(batch);
    EXPECT_TRUE(std::isfinite(m.reconstruction_loss));
    EXPECT_TRUE(std::isfinite(m.fidelity_loss));
    EXPECT_TRUE(std::isfinite(m.adversarial_loss));
    EXPECT_TRUE(std::isfinite(m.cycle_loss));
    EXPECT_TRUE(std::isfinite(m.discriminator_loss));
    EXPECT_GE(m.discriminator_loss, 0.0);
  }
  for (nn::Model* component : model.components()) {
    EXPECT_TRUE(tensor::all_finite(component->flatten_weights()));
  }
}

TEST(CycleGan, GeneratorExchangeRoundTrip) {
  CycleGan a(tiny_config(), 8), b(tiny_config(), 9);
  const std::vector<float> wa = a.generator_weights();
  b.load_generator_weights(wa);
  EXPECT_EQ(b.generator_weights(), wa);
  // After the exchange both generators predict identically.
  const tensor::Tensor x(2, 5);
  const tensor::Tensor ya = a.predict_outputs(x);
  const tensor::Tensor yb = b.predict_outputs(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(CycleGan, GeneratorExchangeLeavesDiscriminatorLocal) {
  // The paper's LTFB-for-GANs rule: critics never travel.
  CycleGan a(tiny_config(), 10), b(tiny_config(), 11);
  const std::vector<float> disc_before = b.discriminator_weights();
  b.load_generator_weights(a.generator_weights());
  EXPECT_EQ(b.discriminator_weights(), disc_before);
}

TEST(CycleGan, WrongSizeExchangeThrows) {
  CycleGan model(tiny_config(), 12);
  std::vector<float> wrong(model.generator_parameter_count() + 1);
  EXPECT_THROW(model.load_generator_weights(wrong), InvalidArgument);
}

TEST(CycleGan, DiscriminatorLearnsToSeparate) {
  const data::Dataset dataset = tiny_dataset(128, 13);
  CycleGan model(tiny_config(), 14);
  const data::Batch batch = batch_of(dataset, 64);
  for (int i = 0; i < 40; ++i) {
    model.pretrain_autoencoder_step(batch);
  }
  for (int i = 0; i < 100; ++i) {
    model.train_step(batch);
  }
  const EvalMetrics m = model.evaluate(batch);
  // The critic should do at least somewhat better than chance while the
  // generator is still imperfect.
  EXPECT_GT(m.discriminator_accuracy, 0.5);
}

TEST(CycleGan, GradientSyncHookFiresPerPhase) {
  const data::Dataset dataset = tiny_dataset(32, 15);
  CycleGan model(tiny_config(), 16);
  int calls = 0;
  std::vector<std::size_t> sizes;
  model.set_gradient_sync([&](const std::vector<nn::Model*>& models) {
    ++calls;
    sizes.push_back(models.size());
  });
  model.train_step(batch_of(dataset, 8));
  // Three sync points: autoencoder (E+Dec), critic (D), generator (F+G).
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 2u);
}

struct TrainedRun {
  std::vector<float> weights;
  std::vector<StepMetrics> steps;
  EvalMetrics eval;
};

TrainedRun train_at_team_size(std::size_t team) {
  util::ComputePool::instance().resize(team);
  const data::Dataset dataset = tiny_dataset(40, 19);
  const data::Batch batch = batch_of(dataset, 33);
  CycleGan model(tiny_config(), 20);
  TrainedRun run;
  for (int step = 0; step < 5; ++step) {
    run.steps.push_back(model.train_step(batch));
  }
  run.eval = model.evaluate(batch);
  run.weights = model.generator_weights();
  const std::vector<float> disc = model.discriminator_weights();
  run.weights.insert(run.weights.end(), disc.begin(), disc.end());
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  return run;
}

TEST(CycleGan, TrainingIsBitIdenticalAcrossTeamSizes) {
  const TrainedRun one = train_at_team_size(1);
  const TrainedRun four = train_at_team_size(4);
  ASSERT_EQ(one.weights.size(), four.weights.size());
  EXPECT_EQ(std::memcmp(one.weights.data(), four.weights.data(),
                        one.weights.size() * sizeof(float)),
            0);
  ASSERT_EQ(one.steps.size(), four.steps.size());
  for (std::size_t i = 0; i < one.steps.size(); ++i) {
    const StepMetrics& a = one.steps[i];
    const StepMetrics& b = four.steps[i];
    EXPECT_EQ(a.reconstruction_loss, b.reconstruction_loss) << "step " << i;
    EXPECT_EQ(a.fidelity_loss, b.fidelity_loss) << "step " << i;
    EXPECT_EQ(a.adversarial_loss, b.adversarial_loss) << "step " << i;
    EXPECT_EQ(a.cycle_loss, b.cycle_loss) << "step " << i;
    EXPECT_EQ(a.latent_loss, b.latent_loss) << "step " << i;
    EXPECT_EQ(a.discriminator_loss, b.discriminator_loss) << "step " << i;
  }
  EXPECT_EQ(one.eval.forward_loss, four.eval.forward_loss);
  EXPECT_EQ(one.eval.inverse_loss, four.eval.inverse_loss);
  EXPECT_EQ(one.eval.reconstruction_loss, four.eval.reconstruction_loss);
  EXPECT_EQ(one.eval.discriminator_accuracy,
            four.eval.discriminator_accuracy);
  EXPECT_EQ(one.eval.generator_adversarial, four.eval.generator_adversarial);
}

TEST(CycleGan, EvaluateDoesNotMutateWeights) {
  const data::Dataset dataset = tiny_dataset(32, 17);
  CycleGan model(tiny_config(), 18);
  const std::vector<float> before = model.generator_weights();
  const std::vector<float> disc_before = model.discriminator_weights();
  (void)model.evaluate(batch_of(dataset, 8));
  EXPECT_EQ(model.generator_weights(), before);
  EXPECT_EQ(model.discriminator_weights(), disc_before);
}

}  // namespace
