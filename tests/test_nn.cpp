// Unit tests for src/nn: layer semantics, finite-difference gradient checks
// across the whole DAG, optimizers, losses, and data-parallel hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>

#include "comm/communicator.hpp"
#include "nn/checkpoint.hpp"
#include "nn/initializer.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "util/compute_pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::nn;
using ltfb::tensor::Tensor;

Tensor random_batch(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(rows, cols);
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// ---- initializers ------------------------------------------------------------

TEST(Initializer, GlorotRange) {
  util::Rng rng(1);
  std::vector<float> w(1000);
  glorot_uniform(rng, 10, 20, w);
  const double limit = std::sqrt(6.0 / 30.0);
  for (const float v : w) {
    EXPECT_LE(std::abs(v), limit);
  }
}

TEST(Initializer, HeNormalStddev) {
  util::Rng rng(2);
  std::vector<float> w(20000);
  he_normal(rng, 50, w);
  util::RunningStats stats;
  for (const float v : w) stats.add(v);
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), std::sqrt(2.0 / 50.0), 0.01);
}

TEST(Initializer, Constant) {
  std::vector<float> w(5);
  constant_init(2.5f, w);
  for (const float v : w) EXPECT_EQ(v, 2.5f);
}

// ---- optimizers ---------------------------------------------------------------

TEST(Optimizer, SgdStep) {
  Sgd sgd(0.1f);
  std::vector<float> w{1.0f, 2.0f};
  const std::vector<float> g{1.0f, -1.0f};
  sgd.step(w, g);
  EXPECT_FLOAT_EQ(w[0], 0.9f);
  EXPECT_FLOAT_EQ(w[1], 2.1f);
}

TEST(Optimizer, MomentumAccumulates) {
  Momentum momentum(0.1f, 0.9f);
  std::vector<float> w{0.0f};
  const std::vector<float> g{1.0f};
  momentum.step(w, g);  // v = -0.1, w = -0.1
  momentum.step(w, g);  // v = -0.19, w = -0.29
  EXPECT_NEAR(w[0], -0.29f, 1e-6f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // minimize f(w) = (w - 3)^2
  Adam adam(0.1f);
  std::vector<float> w{0.0f};
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> g{2.0f * (w[0] - 3.0f)};
    adam.step(w, g);
  }
  EXPECT_NEAR(w[0], 3.0f, 0.05f);
}

TEST(Optimizer, AdamFirstStepIsLearningRateSized) {
  Adam adam(0.01f);
  std::vector<float> w{1.0f};
  adam.step(w, std::vector<float>{123.0f});
  // Bias-corrected Adam moves ~lr on the first step regardless of scale.
  EXPECT_NEAR(w[0], 1.0f - 0.01f, 1e-4f);
}

TEST(Optimizer, CloneFreshDropsState) {
  Momentum momentum(0.1f, 0.9f);
  std::vector<float> w{0.0f};
  momentum.step(w, std::vector<float>{1.0f});
  auto fresh = momentum.clone_fresh();
  std::vector<float> w2{0.0f};
  fresh->step(w2, std::vector<float>{1.0f});
  EXPECT_FLOAT_EQ(w2[0], -0.1f);  // no inherited velocity
}

TEST(Optimizer, LearningRateMutable) {
  Sgd sgd(0.1f);
  sgd.set_learning_rate(0.5f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.5f);
}

// ---- losses --------------------------------------------------------------------

TEST(Loss, MaeValueAndGrad) {
  Tensor pred({1, 2}, {1.0f, -2.0f});
  Tensor target({1, 2}, {0.0f, 0.0f});
  Tensor grad;
  EXPECT_DOUBLE_EQ(mae_loss(pred, target, &grad), 1.5);
  EXPECT_FLOAT_EQ(grad[0], 0.5f);
  EXPECT_FLOAT_EQ(grad[1], -0.5f);
}

TEST(Loss, MseValueAndGrad) {
  Tensor pred({1, 2}, {1.0f, -2.0f});
  Tensor target({1, 2}, {0.0f, 0.0f});
  Tensor grad;
  EXPECT_DOUBLE_EQ(mse_loss(pred, target, &grad), 2.5);
  EXPECT_FLOAT_EQ(grad[0], 1.0f);
  EXPECT_FLOAT_EQ(grad[1], -2.0f);
}

TEST(Loss, BceAtZeroLogitIsLog2) {
  Tensor logits({1, 1}, {0.0f});
  EXPECT_NEAR(bce_with_logits(logits, 1.0f, nullptr), std::log(2.0), 1e-9);
  EXPECT_NEAR(bce_with_logits(logits, 0.0f, nullptr), std::log(2.0), 1e-9);
}

TEST(Loss, BceGradSign) {
  Tensor logits({1, 1}, {2.0f});
  Tensor grad;
  bce_with_logits(logits, 1.0f, &grad);
  EXPECT_LT(grad[0], 0.0f);  // push logit up toward "real"
  bce_with_logits(logits, 0.0f, &grad);
  EXPECT_GT(grad[0], 0.0f);
}

TEST(Loss, BceStableAtExtremeLogits) {
  Tensor logits({1, 2}, {60.0f, -60.0f});
  Tensor labels({1, 2}, {1.0f, 0.0f});
  const double loss = bce_with_logits(logits, labels, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(Loss, MseFiniteDifferenceGradients) {
  const Tensor target = random_batch(3, 4, 10);
  Tensor pred = random_batch(3, 4, 11);
  const float eps = 1e-3f;
  Tensor grad;
  mse_loss(pred, target, &grad);
  for (std::size_t i = 0; i < pred.size(); i += 3) {
    const float saved = pred[i];
    pred[i] = saved + eps;
    const double up = mse_loss(pred, target, nullptr);
    pred[i] = saved - eps;
    const double down = mse_loss(pred, target, nullptr);
    pred[i] = saved;
    EXPECT_NEAR(grad[i], (up - down) / (2.0 * eps), 2e-3);
  }
}

TEST(Loss, BceFiniteDifferenceGradients) {
  Tensor logits = random_batch(4, 2, 12);
  const float eps = 1e-3f;
  Tensor grad;
  bce_with_logits(logits, 1.0f, &grad);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + eps;
    const double up = bce_with_logits(logits, 1.0f, nullptr);
    logits[i] = saved - eps;
    const double down = bce_with_logits(logits, 1.0f, nullptr);
    logits[i] = saved;
    EXPECT_NEAR(grad[i], (up - down) / (2.0 * eps), 2e-3);
  }
}

// ---- layers: forward semantics ---------------------------------------------------

TEST(Layers, FullyConnectedComputesAffine) {
  Model model("m", 1);
  const LayerId in = model.add_input(2);
  const LayerId fc = model.add_linear(in, 3);
  // Overwrite weights for a deterministic check.
  auto weights = model.weights();
  ASSERT_EQ(weights.size(), 2u);
  weights[0]->values() = Tensor({2, 3}, {1, 0, 2, 0, 1, 3});
  weights[1]->values() = Tensor({3}, {1, 1, 1});
  const Tensor x({1, 2}, {2.0f, 5.0f});
  model.forward({&x});
  const Tensor& y = model.output(fc);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);   // 2*1 + 5*0 + 1
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.0f);   // 5 + 1
  EXPECT_FLOAT_EQ(y.at(0, 2), 20.0f);  // 4 + 15 + 1
}

TEST(Layers, ActivationsElementwise) {
  Model model("m", 2);
  const LayerId in = model.add_input(4);
  const LayerId relu =
      model.add(std::make_unique<Activation>(ActivationKind::Relu), {in});
  const LayerId tanh_id =
      model.add(std::make_unique<Activation>(ActivationKind::Tanh), {in});
  const LayerId sig =
      model.add(std::make_unique<Activation>(ActivationKind::Sigmoid), {in});
  const LayerId leaky = model.add(
      std::make_unique<Activation>(ActivationKind::LeakyRelu, 0.1f), {in});
  const Tensor x({1, 4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  model.forward({&x});
  EXPECT_FLOAT_EQ(model.output(relu)[0], 0.0f);
  EXPECT_FLOAT_EQ(model.output(relu)[3], 2.0f);
  EXPECT_NEAR(model.output(tanh_id)[3], std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(model.output(sig)[2], 1.0f / (1.0f + std::exp(-0.5f)), 1e-6);
  EXPECT_FLOAT_EQ(model.output(leaky)[0], -0.2f);
}

TEST(Layers, ConcatAndSlice) {
  Model model("m", 3);
  const LayerId a = model.add_input(2);
  const LayerId b = model.add_input(3);
  const LayerId cat = model.add(std::make_unique<Concat>(), {a, b});
  const LayerId sl = model.add(std::make_unique<Slice>(1, 4), {cat});
  const Tensor xa({2, 2}, {1, 2, 3, 4});
  const Tensor xb({2, 3}, {5, 6, 7, 8, 9, 10});
  model.forward({&xa, &xb});
  const Tensor& c = model.output(cat);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 8.0f);
  const Tensor& s = model.output(sl);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_FLOAT_EQ(s.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.at(0, 2), 6.0f);
}

TEST(Layers, SliceOutOfRangeThrows) {
  Model model("m", 4);
  const LayerId in = model.add_input(3);
  EXPECT_THROW(model.add(std::make_unique<Slice>(1, 5), {in}),
               InvalidArgument);
}

TEST(Layers, DropoutTrainVsEval) {
  Model model("m", 5);
  const LayerId in = model.add_input(1000);
  const LayerId dropped = model.add(std::make_unique<Dropout>(0.5f), {in});
  const Tensor x = Tensor::full({1, 1000}, 1.0f);
  model.forward({&x}, /*training=*/true);
  std::size_t zeros = 0;
  double mean = 0.0;
  for (const float v : model.output(dropped).data()) {
    if (v == 0.0f) ++zeros;
    mean += v;
  }
  mean /= 1000.0;
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
  EXPECT_NEAR(mean, 1.0, 0.15);  // inverted dropout preserves expectation

  model.forward({&x}, /*training=*/false);
  for (const float v : model.output(dropped).data()) {
    EXPECT_FLOAT_EQ(v, 1.0f);
  }
}

TEST(Layers, InvalidDropoutProbabilityThrows) {
  Model model("m", 55);
  const LayerId in = model.add_input(4);
  EXPECT_THROW(model.add(std::make_unique<Dropout>(1.0f), {in}),
               InvalidArgument);
}

// ---- model mechanics ----------------------------------------------------------

TEST(Model, InputWidthMismatchThrows) {
  Model model("m", 6);
  model.add_input(3);
  const Tensor x(1, 4);
  EXPECT_THROW(model.forward({&x}), InvalidArgument);
}

TEST(Model, InputCountMismatchThrows) {
  Model model("m", 7);
  model.add_input(3);
  const Tensor x(1, 3);
  EXPECT_THROW(model.forward({&x, &x}), InvalidArgument);
}

TEST(Model, SameSeedSameWeights) {
  auto build = [](std::uint64_t seed) {
    Model model("m", seed);
    const LayerId in = model.add_input(4);
    model.add_dense(in, 8, ActivationKind::Relu);
    return model.flatten_weights();
  };
  EXPECT_EQ(build(42), build(42));
  EXPECT_NE(build(42), build(43));
}

TEST(Model, FlattenLoadRoundTrip) {
  Model model("m", 9);
  const LayerId in = model.add_input(3);
  model.add_dense(in, 5, ActivationKind::Tanh);
  auto flat = model.flatten_weights();
  EXPECT_EQ(flat.size(), model.parameter_count());
  for (auto& v : flat) v += 1.0f;
  model.load_flat_weights(flat);
  EXPECT_EQ(model.flatten_weights(), flat);
}

TEST(Model, LoadWrongSizeThrows) {
  Model model("m", 10);
  const LayerId in = model.add_input(3);
  model.add_linear(in, 2);
  std::vector<float> wrong(model.parameter_count() + 1);
  EXPECT_THROW(model.load_flat_weights(wrong), InvalidArgument);
}

TEST(Model, ParameterCountMatchesStructure) {
  Model model("m", 16);
  const LayerId in = model.add_input(3);
  model.add_dense(in, 4, ActivationKind::Relu);  // 3*4+4 = 16
  EXPECT_EQ(model.parameter_count(), 16u);
}

// ---- whole-model finite-difference gradient check --------------------------------

TEST(Model, FiniteDifferenceGradientCheck) {
  // Diamond DAG: input -> (dense tanh | slice) -> concat -> linear.
  Model model("m", 11);
  const LayerId in = model.add_input(3);
  const LayerId left = model.add_dense(in, 4, ActivationKind::Tanh);
  const LayerId right = model.add(std::make_unique<Slice>(0, 2), {in});
  const LayerId cat = model.add(std::make_unique<Concat>(), {left, right});
  const LayerId out = model.add_linear(cat, 2);

  const Tensor x = random_batch(5, 3, 20);
  const Tensor target = random_batch(5, 2, 21);

  auto loss_at = [&]() {
    model.forward({&x}, /*training=*/false);
    return mse_loss(model.output(out), target, nullptr);
  };

  model.forward({&x}, false);
  Tensor grad;
  mse_loss(model.output(out), target, &grad);
  model.zero_gradients();
  model.add_output_gradient(out, grad);
  model.backward();

  const float eps = 1e-3f;
  for (Weights* w : model.weights()) {
    auto values = w->values().data();
    const auto analytic = w->gradient().data();
    for (std::size_t i = 0; i < values.size(); i += 5) {
      const float saved = values[i];
      values[i] = saved + eps;
      const double up = loss_at();
      values[i] = saved - eps;
      const double down = loss_at();
      values[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric, 5e-3)
          << w->name() << " element " << i;
    }
  }
}

TEST(Model, LeakyReluGradientCheck) {
  Model model("m", 17);
  const LayerId in = model.add_input(3);
  const LayerId h = model.add_dense(in, 6, ActivationKind::LeakyRelu);
  const LayerId out = model.add_linear(h, 2);
  const Tensor x = random_batch(4, 3, 22);
  const Tensor target = random_batch(4, 2, 23);

  model.forward({&x}, false);
  Tensor grad;
  mse_loss(model.output(out), target, &grad);
  model.zero_gradients();
  model.add_output_gradient(out, grad);
  model.backward();

  const float eps = 1e-3f;
  Weights* kernel = model.weights()[0];
  auto values = kernel->values().data();
  const auto analytic = kernel->gradient().data();
  for (std::size_t i = 0; i < values.size(); i += 2) {
    const float saved = values[i];
    values[i] = saved + eps;
    model.forward({&x}, false);
    const double up = mse_loss(model.output(out), target, nullptr);
    values[i] = saved - eps;
    model.forward({&x}, false);
    const double down = mse_loss(model.output(out), target, nullptr);
    values[i] = saved;
    EXPECT_NEAR(analytic[i], (up - down) / (2.0 * eps), 5e-3);
  }
}

TEST(Model, InputGradientFlowsToSource) {
  Model model("m", 12);
  const LayerId in = model.add_input(2);
  const LayerId out = model.add_linear(in, 1);
  auto weights = model.weights();
  weights[0]->values() = Tensor({2, 1}, {3.0f, -2.0f});
  weights[1]->values() = Tensor(tensor::Shape{1}, {0.0f});
  const Tensor x({1, 2}, {1.0f, 1.0f});
  model.forward({&x});
  Tensor grad({1, 1}, {1.0f});
  model.zero_gradients();
  model.add_output_gradient(out, grad);
  model.backward();
  const Tensor& dx = model.input_gradient(0);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), -2.0f);
}

TEST(Model, InputGradientBeforeBackwardThrows) {
  Model model("m", 13);
  const LayerId in = model.add_input(2);
  model.add_linear(in, 1);
  const Tensor x(1, 2);
  model.forward({&x});
  model.zero_gradients();
  EXPECT_THROW(model.input_gradient(0), InvalidArgument);
}

TEST(Model, DataInputSkipsItsGradientButNotTheWeights) {
  // A data input takes no gradient, so the first layer skips its dX GEMM.
  // Every weight gradient, and the order the backward hook sees them in,
  // must match the same model built with a differentiable input.
  auto build = [](InputKind kind) {
    Model model("m", 21);
    const LayerId in = model.add_input(5, kind);
    const LayerId hidden =
        model.add_dense(in, 7, ActivationKind::LeakyRelu);
    model.add_linear(hidden, 3);
    return model;
  };
  Model differentiable = build(InputKind::Differentiable);
  Model data = build(InputKind::Data);
  const LayerId out = 2;
  const Tensor x = random_batch(6, 5, 22);
  const Tensor y = random_batch(6, 3, 23);
  auto run = [&](Model& model) {
    std::vector<const Weights*> hooked;
    model.forward({&x});
    Tensor grad;
    mse_loss(model.output(out), y, &grad);
    model.zero_gradients();
    model.add_output_gradient(out, grad);
    model.backward([&hooked](Weights& w) { hooked.push_back(&w); });
    return hooked;
  };
  const std::vector<const Weights*> differentiable_hooks = run(differentiable);
  const std::vector<const Weights*> data_hooks = run(data);

  const std::vector<Weights*> dw = differentiable.weights();
  const std::vector<Weights*> ww = data.weights();
  ASSERT_EQ(differentiable_hooks.size(), dw.size());
  ASSERT_EQ(data_hooks.size(), ww.size());
  for (std::size_t i = 0; i < dw.size(); ++i) {
    const auto position = [](const std::vector<const Weights*>& order,
                             const Weights* w) {
      return std::find(order.begin(), order.end(), w) - order.begin();
    };
    EXPECT_EQ(position(differentiable_hooks, dw[i]),
              position(data_hooks, ww[i]))
        << "weights " << i;
  }
  EXPECT_EQ(differentiable.flatten_gradients(), data.flatten_gradients());
  EXPECT_NO_THROW(differentiable.input_gradient(0));
  EXPECT_THROW(data.input_gradient(0), InvalidArgument);
}

TEST(Model, FanOutGradientsAccumulate) {
  // y = w*x used twice: dL/dw = 2x when both uses receive gradient 1.
  Model model("m", 14);
  const LayerId in = model.add_input(1);
  const LayerId mid =
      model.add(std::make_unique<FullyConnected>(1, /*has_bias=*/false), {in});
  auto weights = model.weights();
  weights[0]->values() = Tensor({1, 1}, {1.0f});
  const Tensor x({1, 1}, {3.0f});
  model.forward({&x});
  const Tensor ones({1, 1}, {1.0f});
  model.zero_gradients();
  model.add_output_gradient(mid, ones);
  model.add_output_gradient(mid, ones);
  model.backward();
  EXPECT_FLOAT_EQ(weights[0]->gradient()[0], 6.0f);
}

// ---- row passes on the compute team ---------------------------------------------

// Pins the process-wide compute team to `threads` for one scope, then
// restores the environment default.
class ScopedTeamSize {
 public:
  explicit ScopedTeamSize(std::size_t threads) {
    util::ComputePool::instance().resize(threads);
  }
  ~ScopedTeamSize() {
    util::ComputePool::instance().resize(util::ComputePool::env_threads());
  }
  ScopedTeamSize(const ScopedTeamSize&) = delete;
  ScopedTeamSize& operator=(const ScopedTeamSize&) = delete;
};

std::vector<std::uint32_t> bits_of(std::span<const float> values) {
  std::vector<std::uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

// Every layer kind: a data input and a differentiable one (which also fans
// out), FullyConnected with and without bias and with each fused
// activation, each standalone activation, Dropout, Concat, Slice, a layer
// wider than one 128-column GEMM block, and two outputs.
struct ZooModel {
  Model model{"zoo", 31};
  LayerId out_a = 0;
  LayerId out_b = 0;
  ZooModel() {
    using Init = FullyConnected::Init;
    const LayerId data = model.add_input(9, InputKind::Data);
    const LayerId diff = model.add_input(6);
    const LayerId fc_relu = model.add(
        std::make_unique<FullyConnected>(40, true, Init::HeNormal,
                                         ActivationKind::Relu),
        {data});
    const LayerId fc_plain = model.add(
        std::make_unique<FullyConnected>(24, /*has_bias=*/false), {diff});
    const LayerId tanh_id = model.add(
        std::make_unique<Activation>(ActivationKind::Tanh), {fc_plain});
    const LayerId cat = model.add(std::make_unique<Concat>(), {fc_relu, tanh_id});
    const LayerId drop = model.add(std::make_unique<Dropout>(0.25f), {cat});
    const LayerId left = model.add(std::make_unique<Slice>(3, 50), {drop});
    const LayerId right = model.add(std::make_unique<Slice>(10, 64), {drop});
    const LayerId wide = model.add(
        std::make_unique<FullyConnected>(150, true, Init::GlorotUniform,
                                         ActivationKind::LeakyRelu, 0.1f),
        {left});
    const LayerId sig = model.add(
        std::make_unique<FullyConnected>(33, true, Init::GlorotUniform,
                                         ActivationKind::Sigmoid),
        {right});
    const LayerId leaky = model.add(
        std::make_unique<Activation>(ActivationKind::LeakyRelu, 0.2f), {sig});
    const LayerId relu = model.add(
        std::make_unique<Activation>(ActivationKind::Relu), {wide});
    const LayerId sigmoid = model.add(
        std::make_unique<Activation>(ActivationKind::Sigmoid), {leaky});
    const LayerId joined =
        model.add(std::make_unique<Concat>(), {relu, sigmoid, diff});
    out_a = model.add(
        std::make_unique<FullyConnected>(7, true, Init::GlorotUniform,
                                         ActivationKind::Tanh),
        {joined});
    out_b = model.add_linear(wide, 5);
  }
};

struct ZooPass {
  std::vector<std::vector<std::uint32_t>> outputs;
  std::vector<std::uint32_t> input_gradient;
  std::vector<std::uint32_t> weight_gradients;
  std::vector<std::size_t> hook_order;
};

ZooPass run_zoo(std::size_t team, std::size_t rows) {
  const ScopedTeamSize scoped(team);
  ZooModel zoo;
  Model& model = zoo.model;
  const Tensor data = random_batch(rows, 9, 50 + rows);
  const Tensor diff = random_batch(rows, 6, 60 + rows);
  const Tensor grad_a = random_batch(rows, 7, 70 + rows);
  const Tensor grad_b = random_batch(rows, 5, 80 + rows);
  const std::vector<Weights*> weights = model.weights();
  ZooPass pass;
  // Two training passes: the second accumulates into the first's weight
  // gradients and draws a fresh dropout mask.
  model.zero_gradients();
  for (int round = 0; round < 2; ++round) {
    model.forward({&data, &diff}, /*training=*/true);
    model.add_output_gradient(zoo.out_a, grad_a);
    model.add_output_gradient(zoo.out_b, grad_b);
    model.backward([&](Weights& w) {
      pass.hook_order.push_back(static_cast<std::size_t>(
          std::find(weights.begin(), weights.end(), &w) - weights.begin()));
    });
  }
  for (LayerId id = 0; id < model.layer_count(); ++id) {
    pass.outputs.push_back(bits_of(model.output(id).data()));
  }
  pass.input_gradient = bits_of(model.input_gradient(1).data());
  pass.weight_gradients = bits_of(model.flatten_gradients());
  return pass;
}

TEST(Model, RowPassesBitIdenticalAcrossTeamSizes) {
  for (const std::size_t rows : {1u, 7u, 33u, 128u}) {
    const ZooPass reference = run_zoo(1, rows);
    ASSERT_EQ(reference.hook_order.size(), 2 * ZooModel().model.weights().size());
    for (const std::size_t team : {2u, 3u, 4u, 8u}) {
      const ZooPass pass = run_zoo(team, rows);
      EXPECT_EQ(pass.outputs, reference.outputs)
          << "team " << team << ", rows " << rows;
      EXPECT_EQ(pass.input_gradient, reference.input_gradient)
          << "team " << team << ", rows " << rows;
      EXPECT_EQ(pass.weight_gradients, reference.weight_gradients)
          << "team " << team << ", rows " << rows;
      EXPECT_EQ(pass.hook_order, reference.hook_order)
          << "team " << team << ", rows " << rows;
    }
  }
}

TEST(Model, DataOnlyBackwardMatchesInputGradientsAndKeepsWeights) {
  const ScopedTeamSize team(4);
  ZooModel full;
  ZooModel data_only;
  const Tensor data = random_batch(33, 9, 90);
  const Tensor diff = random_batch(33, 6, 91);
  const Tensor grad_a = random_batch(33, 7, 92);
  const Tensor grad_b = random_batch(33, 5, 93);
  for (ZooModel* zoo : {&full, &data_only}) {
    zoo->model.zero_gradients();
    zoo->model.forward({&data, &diff}, /*training=*/true);
    zoo->model.add_output_gradient(zoo->out_a, grad_a);
    zoo->model.add_output_gradient(zoo->out_b, grad_b);
  }
  // Weight gradients the data-only pass must leave alone.
  float sentinel = 0.5f;
  for (Weights* w : data_only.model.weights()) {
    for (float& g : w->gradient().data()) g = (sentinel += 0.25f);
  }
  const std::vector<float> before = data_only.model.flatten_gradients();

  full.model.backward();
  data_only.model.backward_inputs();

  EXPECT_EQ(bits_of(data_only.model.input_gradient(1).data()),
            bits_of(full.model.input_gradient(1).data()));
  EXPECT_EQ(bits_of(data_only.model.flatten_gradients()), bits_of(before));
  EXPECT_THROW(data_only.model.input_gradient(0), InvalidArgument);
}

TEST(Model, TrainingReducesLossOnRegression) {
  Model model("m", 15);
  const LayerId in = model.add_input(1);
  const LayerId hidden = model.add_dense(in, 16, ActivationKind::Tanh);
  const LayerId out = model.add_linear(hidden, 1);
  model.set_optimizer(make_adam_factory(0.01f));

  util::Rng rng(77);
  Tensor x(64, 1), y(64, 1), grad;
  for (std::size_t i = 0; i < 64; ++i) {
    const double xv = rng.uniform(-1.0, 1.0);
    x[i] = static_cast<float>(xv);
    y[i] = static_cast<float>(std::sin(3.0 * xv));
  }

  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    model.forward({&x});
    const double loss = mse_loss(model.output(out), y, &grad);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    model.zero_gradients();
    model.add_output_gradient(out, grad);
    model.backward();
    model.apply_optimizer_step();
  }
  EXPECT_LT(last_loss, 0.1 * first_loss);
}

// ---- data-parallel hooks -----------------------------------------------------------

TEST(Parallel, AllreduceGradientsAverages) {
  comm::World::run(4, [](comm::Communicator& comm) {
    Model model("m", 100);  // same seed everywhere -> same structure
    const LayerId in = model.add_input(2);
    model.add_linear(in, 2);
    std::vector<float> grads(model.parameter_count(),
                             static_cast<float>(comm.rank() + 1));
    model.load_flat_gradients(grads);
    allreduce_gradients(model, comm);
    for (const float g : model.flatten_gradients()) {
      EXPECT_FLOAT_EQ(g, 2.5f);  // mean of 1..4
    }
  });
}

TEST(Parallel, BroadcastWeightsSynchronizes) {
  comm::World::run(3, [](comm::Communicator& comm) {
    Model model("m", 200 + static_cast<std::uint64_t>(comm.rank()));
    const LayerId in = model.add_input(3);
    model.add_dense(in, 4, ActivationKind::Relu);
    EXPECT_FALSE(weights_in_sync(model, comm));
    broadcast_weights(model, comm, /*root=*/0);
    EXPECT_TRUE(weights_in_sync(model, comm));
  });
}

TEST(Parallel, DataParallelMatchesSerialGradients) {
  // 2 ranks each compute gradients on half the batch; after averaging they
  // must equal the serial full-batch gradient (MSE is a mean).
  const Tensor x = random_batch(8, 2, 30);
  const Tensor y = random_batch(8, 1, 31);

  auto build = [] {
    Model model("m", 300);
    const LayerId in = model.add_input(2);
    model.add_linear(in, 1);
    return model;
  };

  Model serial = build();
  const LayerId serial_out = 1;
  serial.forward({&x});
  Tensor grad;
  mse_loss(serial.output(serial_out), y, &grad);
  serial.zero_gradients();
  serial.add_output_gradient(serial_out, grad);
  serial.backward();
  const std::vector<float> reference = serial.flatten_gradients();

  std::vector<float> parallel_result;
  std::mutex mutex;
  comm::World::run(2, [&](comm::Communicator& comm) {
    Model model = build();
    Tensor xs(4, 2), ys(4, 1);
    const std::size_t offset = static_cast<std::size_t>(comm.rank()) * 4;
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 2; ++c) xs.at(r, c) = x.at(offset + r, c);
      ys.at(r, 0) = y.at(offset + r, 0);
    }
    model.forward({&xs});
    Tensor local_grad;
    mse_loss(model.output(1), ys, &local_grad);
    model.zero_gradients();
    model.add_output_gradient(1, local_grad);
    model.backward();
    allreduce_gradients(model, comm);
    if (comm.rank() == 0) {
      const std::scoped_lock lock(mutex);
      parallel_result = model.flatten_gradients();
    }
  });

  ASSERT_EQ(parallel_result.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(parallel_result[i], reference[i], 1e-5f);
  }
}

// ---- hook-packed gradient all-reduce ----------------------------------------------

namespace bucketer_tests {

Model build_layered_model(std::uint64_t seed) {
  Model model("m", seed);
  const LayerId in = model.add_input(6);
  const LayerId h1 = model.add_dense(in, 16, ActivationKind::Relu);
  const LayerId h2 = model.add_dense(h1, 12, ActivationKind::Tanh);
  model.add_linear(h2, 4);
  return model;
}

// Feeds every weights object of `model` to the bucketer in reverse-layer
// order — exactly what Model::backward(hook) does — then finishes.
void bucket_all(GradientBucketer& bucketer, Model& model) {
  const auto weights = model.weights();
  for (std::size_t i = weights.size(); i-- > 0;) {
    bucketer.on_layer_backward(*weights[i]);
  }
  bucketer.finish({&model});
}

}  // namespace bucketer_tests

TEST(Parallel, BucketerAveragesAcrossRanks) {
  using namespace bucketer_tests;
  comm::World::run(4, [](comm::Communicator& comm) {
    Model model = build_layered_model(100);
    std::vector<float> grads(model.parameter_count(),
                             static_cast<float>(comm.rank() + 1));
    model.load_flat_gradients(grads);
    // The model's several weights tensors share one ring per sync.
    GradientBucketer bucketer(comm);
    bucket_all(bucketer, model);
    EXPECT_EQ(bucketer.buckets_completed(), 1u);
    for (const float g : model.flatten_gradients()) {
      EXPECT_FLOAT_EQ(g, 2.5f);  // mean of 1..4
    }
  });
}

TEST(Parallel, BucketerMatchesBlockingAllreduceAndSyncsReplicas) {
  // Against the blocking flatten-everything path the bucketed result agrees
  // only NUMERICALLY: an element's ring summation order depends on its
  // chunk index, which differs between the forward-order flat buffer and
  // the hook-order (reverse-layer) packing, so last bits legitimately
  // differ. What must hold exactly is cross-rank agreement — the
  // all-gather hands every rank the same reduced bytes, so replicas stay
  // BIT-identical to each other.
  using namespace bucketer_tests;
  comm::World::run(3, [](comm::Communicator& comm) {
    Model reference = build_layered_model(100);
    Model bucketed = build_layered_model(100);
    util::Rng rng(500 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grads(reference.parameter_count());
    for (auto& g : grads) g = static_cast<float>(rng.uniform(-1.0, 1.0));
    reference.load_flat_gradients(grads);
    bucketed.load_flat_gradients(grads);

    allreduce_gradients(reference, comm);
    GradientBucketer bucketer(comm);
    bucket_all(bucketer, bucketed);

    const auto expect = reference.flatten_gradients();
    const auto got = bucketed.flatten_gradients();
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_NEAR(expect[i], got[i], 1e-5f) << "element " << i;
    }

    // Bit-exact replica agreement: every rank's averaged gradients must be
    // byte-identical, or data-parallel replicas drift apart.
    const std::vector<float> everyone = comm.allgather(got);
    for (std::size_t r = 0; r < static_cast<std::size_t>(comm.size()); ++r) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(everyone[r * got.size() + i], got[i])
            << "rank " << r << " element " << i;
      }
    }
  });
}

TEST(Parallel, BucketerViaBackwardHookMatchesAllreduce) {
  // End-to-end through the real seam: Model::backward(hook) hands each
  // weights object to the bucketer once the pass's weight gradients are
  // final.
  using namespace bucketer_tests;
  const Tensor x = random_batch(8, 6, 40);
  const Tensor y = random_batch(8, 4, 41);
  comm::World::run(2, [&](comm::Communicator& comm) {
    Model reference = build_layered_model(100);
    Model hooked = build_layered_model(100);
    const LayerId out = 3;  // input, fused fc x2, linear

    auto run_backward = [&](Model& model, const Model::BackwardHook& hook) {
      model.forward({&x});
      Tensor grad;
      mse_loss(model.output(out), y, &grad);
      model.zero_gradients();
      model.add_output_gradient(out, grad);
      model.backward(hook);
    };

    run_backward(reference, Model::BackwardHook{});
    allreduce_gradients(reference, comm);

    GradientBucketer bucketer(comm);
    run_backward(hooked, [&bucketer](Weights& w) {
      bucketer.on_layer_backward(w);
    });
    bucketer.finish({&hooked});

    EXPECT_EQ(bucketer.overlap_fraction(), 0.0);
    const auto expect = reference.flatten_gradients();
    const auto got = hooked.flatten_gradients();
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_NEAR(expect[i], got[i], 1e-5f) << "element " << i;
    }
  });
}

TEST(Parallel, BucketerIsOneCommunicatorAllreduceInHookOrder) {
  // The sync's arithmetic, pinned bit for bit: whatever the group's size
  // (this model is over a quarter-million floats), one finish() is one
  // ring over the floats in hook order, identical to the communicator's
  // own ring all-reduce of that buffer scaled by 1/p.
  using namespace bucketer_tests;
  for (const int ranks : {2, 3, 4}) {
    comm::World::run(ranks, [ranks](comm::Communicator& comm) {
      Model model("big", 100);
      const LayerId in = model.add_input(512);
      const LayerId hidden = model.add_dense(in, 512, ActivationKind::Relu);
      model.add_linear(hidden, 8);
      ASSERT_GT(model.parameter_count(), 262144u);
      const auto weights = model.weights();
      auto hook_order_gradients = [&weights] {
        std::vector<float> flat;
        for (std::size_t i = weights.size(); i-- > 0;) {
          const auto g = weights[i]->gradient().data();
          flat.insert(flat.end(), g.begin(), g.end());
        }
        return flat;
      };
      GradientBucketer bucketer(comm);
      util::Rng rng(700 + static_cast<std::uint64_t>(comm.rank()));
      for (int sync = 1; sync <= 2; ++sync) {
        std::vector<float> grads(model.parameter_count());
        for (auto& g : grads) g = static_cast<float>(rng.uniform(-1.0, 1.0));
        model.load_flat_gradients(grads);

        std::vector<float> expect = hook_order_gradients();
        comm.allreduce(expect, comm::ReduceOp::Sum);
        tensor::scale(1.0f / static_cast<float>(ranks),
                      std::span<float>(expect));

        bucket_all(bucketer, model);
        EXPECT_EQ(bucketer.buckets_completed(),
                  static_cast<std::uint64_t>(sync));
        const std::vector<float> got = hook_order_gradients();
        ASSERT_EQ(got.size(), expect.size());
        EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                              got.size() * sizeof(float)),
                  0)
            << "p=" << ranks << " sync " << sync;
      }
    });
  }
}

TEST(Parallel, BucketerCoverageMismatchThrows) {
  // finish() must reject a sync whose hooks never packed the model's
  // gradients (a missing backward hook would silently skip averaging).
  using namespace bucketer_tests;
  comm::World::run(2, [](comm::Communicator& comm) {
    Model model = build_layered_model(100);
    GradientBucketer bucketer(comm);
    EXPECT_THROW(bucketer.finish({&model}), InvalidArgument);
  });
}

TEST(Parallel, BucketerSingleRankIsNoOp) {
  using namespace bucketer_tests;
  comm::World::run(1, [](comm::Communicator& comm) {
    Model model = build_layered_model(100);
    std::vector<float> grads(model.parameter_count(), 3.0f);
    model.load_flat_gradients(grads);
    GradientBucketer bucketer(comm);
    bucket_all(bucketer, model);
    EXPECT_EQ(bucketer.buckets_completed(), 0u);
    for (const float g : model.flatten_gradients()) {
      EXPECT_FLOAT_EQ(g, 3.0f);
    }
  });
}

// ---- checkpoint corruption fuzz ----------------------------------------------------

// Exhaustive single-byte corruption sweep over a weight checkpoint: every
// possible flipped byte must either be rejected with FormatError (naming
// the corrupt file) or load structurally intact — exactly the original
// weight count, never a partial result, never an untyped error. Header
// corruption (magic, version, lengths, count) must always be rejected;
// payload flips are allowed through because the format carries no checksum,
// but the size contract still holds.
TEST(Checkpoint, SingleByteCorruptionFuzz) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_fuzz.bin";
  std::vector<float> weights(32);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<float>(i) * 0.25f - 3.0f;
  }
  nn::save_weights(path, "fuzz-target", weights);

  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(pristine.empty());
  // Header = everything before the payload floats.
  const std::size_t header_bytes =
      pristine.size() - weights.size() * sizeof(float);

  for (std::size_t off = 0; off < pristine.size(); ++off) {
    std::vector<char> corrupt = pristine;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0xff);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    try {
      const std::vector<float> loaded = nn::load_weights(path);
      EXPECT_EQ(loaded.size(), weights.size()) << "flipped byte " << off;
      // Only name/payload bytes may survive a flip; the fixed header and
      // the length fields must be integrity-checked.
      const bool structural =
          off < 12 ||                              // magic + version
          (off >= 12 && off < 16) ||               // name length
          (off >= header_bytes - 8 && off < header_bytes);  // weight count
      EXPECT_FALSE(structural)
          << "structural header byte " << off << " accepted after a flip";
    } catch (const FormatError& ex) {
      EXPECT_NE(std::string(ex.what()).find(path.string()), std::string::npos)
          << "FormatError does not name the corrupt file: " << ex.what();
    }
  }

  // Truncation at every prefix length must be rejected, never partially
  // loaded.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, header_bytes - 1,
        header_bytes, pristine.size() - sizeof(float), pristine.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_THROW((void)nn::load_weights(path), FormatError)
        << "truncated to " << keep << " bytes";
  }
}

// ---- dynamic loss scaling ----------------------------------------------------------

TEST(LossScale, SkipStepLeavesWeightsAndInnerStateUntouched) {
  auto controller = std::make_shared<LossScaleController>();
  const auto factory =
      make_loss_scaling_factory(make_adam_factory(0.05f), controller);
  auto opt = factory();
  EXPECT_EQ(opt->name(), "loss_scaled_adam");
  std::vector<float> weights{1.0f, -2.0f, 0.5f};

  // One good step first so the inner Adam carries non-trivial state.
  controller->begin_step();
  std::vector<float> grad{0.1f, -0.3f, 0.2f};
  tensor::scale(controller->scale(), grad);
  controller->observe(grad);
  ASSERT_FALSE(controller->should_skip());
  opt->step(weights, grad);
  controller->end_step();
  const std::vector<float> weights_after = weights;
  const std::vector<float> state_after = opt->serialize_state();
  const float scale_before = controller->scale();

  // Overflowed group: the step is skipped wholesale — weights AND the
  // inner optimizer's moment estimates stay bit-identical.
  controller->begin_step();
  const std::vector<float> bad{std::numeric_limits<float>::infinity(), 1.0f,
                               2.0f};
  controller->observe(bad);
  EXPECT_TRUE(controller->should_skip());
  opt->step(weights, bad);
  EXPECT_EQ(weights, weights_after);
  EXPECT_EQ(opt->serialize_state(), state_after);
  controller->end_step();
  EXPECT_EQ(controller->scale(), scale_before * 0.5f);
  EXPECT_EQ(controller->skipped_steps(), 1);
}

TEST(LossScale, BackoffAndGrowthRespectBounds) {
  LossScaleController::Config config;
  config.initial_scale = 4.0f;
  config.growth_interval = 2;
  config.min_scale = 1.0f;
  config.max_scale = 8.0f;
  LossScaleController ctl(config);
  const std::vector<float> good{1.0f};
  const std::vector<float> bad{std::numeric_limits<float>::quiet_NaN()};
  auto run = [&ctl](const std::vector<float>& g) {
    ctl.begin_step();
    ctl.observe(g);
    ctl.end_step();
  };
  run(good);
  EXPECT_EQ(ctl.scale(), 4.0f);  // one good step: below the interval
  run(good);
  EXPECT_EQ(ctl.scale(), 8.0f);  // second consecutive good step: doubled
  run(good);
  run(good);
  EXPECT_EQ(ctl.scale(), 8.0f);  // growth past max_scale is declined
  EXPECT_EQ(ctl.growth_events(), 1);
  run(bad);
  EXPECT_EQ(ctl.scale(), 4.0f);
  // A good step after an overflow restarts the growth interval.
  run(good);
  EXPECT_EQ(ctl.scale(), 4.0f);
  run(bad);
  run(bad);
  run(bad);
  EXPECT_EQ(ctl.scale(), 1.0f);  // floored at min_scale
  EXPECT_EQ(ctl.skipped_steps(), 4);
}

TEST(LossScale, PowerOfTwoScalingIsExact) {
  // Scaling the gradient by 2^16 and unscaling inside the decorator is
  // exact fp32 math: the trajectory matches unscaled Adam bit for bit.
  auto controller = std::make_shared<LossScaleController>();
  auto scaled = make_loss_scaling_factory(make_adam_factory(0.01f),
                                          controller)();
  auto plain = make_adam_factory(0.01f)();
  std::vector<float> w_scaled{0.7f, -1.3f, 2.9f, 0.01f};
  std::vector<float> w_plain = w_scaled;
  util::Rng rng(77);
  for (int step = 0; step < 25; ++step) {
    std::vector<float> grad(w_plain.size());
    for (auto& g : grad) g = static_cast<float>(rng.uniform(-1.0, 1.0));
    plain->step(w_plain, grad);
    std::vector<float> grad_scaled = grad;
    tensor::scale(controller->scale(), grad_scaled);
    controller->begin_step();
    controller->observe(grad_scaled);
    scaled->step(w_scaled, grad_scaled);
    controller->end_step();
  }
  EXPECT_EQ(w_scaled, w_plain);
  EXPECT_EQ(scaled->serialize_state(), plain->serialize_state());
}

TEST(LossScale, CloneFreshSharesControllerDropsState) {
  auto controller = std::make_shared<LossScaleController>();
  auto opt = make_loss_scaling_factory(make_adam_factory(0.05f),
                                       controller)();
  std::vector<float> w{1.0f};
  const std::vector<float> g{65536.0f};
  controller->begin_step();
  opt->step(w, g);
  controller->end_step();
  auto fresh = opt->clone_fresh();
  EXPECT_EQ(fresh->name(), opt->name());
  const auto state = fresh->serialize_state();
  for (const float v : state) EXPECT_EQ(v, 0.0f);
}

// ---- bf16 gradient wire encoding ---------------------------------------------------

TEST(Parallel, BucketerBf16WireHalvesBytesAndRanksAgree) {
  using namespace bucketer_tests;
  comm::World::run(4, [](comm::Communicator& comm) {
    Model fp32_model = build_layered_model(100);
    Model bf16_model = build_layered_model(100);
    util::Rng rng(900 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grads(fp32_model.parameter_count());
    for (auto& g : grads) g = static_cast<float>(rng.uniform(-1.0, 1.0));
    fp32_model.load_flat_gradients(grads);
    bf16_model.load_flat_gradients(grads);

    GradientBucketer fp32_bucketer(comm, WireDtype::Fp32);
    bucket_all(fp32_bucketer, fp32_model);
    GradientBucketer bf16_bucketer(comm, WireDtype::Bf16);
    EXPECT_EQ(bf16_bucketer.wire_dtype(), WireDtype::Bf16);
    bucket_all(bf16_bucketer, bf16_model);

    // Same logical gradient volume, half the wire bytes.
    EXPECT_EQ(bf16_bucketer.bytes_reduced(), fp32_bucketer.bytes_reduced());
    EXPECT_EQ(bf16_bucketer.wire_bytes_sent() * 2,
              fp32_bucketer.wire_bytes_sent());

    // Every ring hop sends bf16, so a chunk's partial sum is quantized at
    // each of the (ranks - 1) reduce hops plus once by the owner. Each
    // hop's error is a bf16 half-ulp of the PARTIAL sum (gradients in
    // [-1, 1], partials up to ~4), so the bound is absolute in the partial
    // magnitude — small final values see relative error amplified by
    // cancellation, exactly the behaviour DESIGN.md documents.
    const auto expect = fp32_model.flatten_gradients();
    const auto got = bf16_model.flatten_gradients();
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_NEAR(expect[i], got[i], 0.02f) << "element " << i;
      // Every value sits exactly on the bf16 grid (decode of the wire).
      ASSERT_EQ(got[i], tensor::quantize(got[i], tensor::HalfKind::Bf16))
          << "element " << i;
    }

    // Replicas must still agree bit-for-bit or they drift apart.
    const std::vector<float> everyone = comm.allgather(got);
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(everyone[r * got.size() + i], got[i])
            << "rank " << r << " element " << i;
      }
    }
  });
}

TEST(Parallel, BucketerHalfWireMatchesSerialReference) {
  // Pins the half-precision ring bit for bit against a serial model of its
  // association. Chunk c starts at rank c, and each later rank k on the
  // way to the owner (rank c - 1) decodes the incoming partial sum and adds
  // its own gradient: acc = decode(encode(acc)) + g_k. The owner keeps
  // decode(encode(acc)), every rank receives exactly those values, and
  // all scale by 1/p.
  using namespace bucketer_tests;
  const auto rank_gradients = [](int rank, std::size_t count) {
    util::Rng rng(1300 + static_cast<std::uint64_t>(rank));
    std::vector<float> grads(count);
    for (auto& g : grads) g = static_cast<float>(rng.uniform(-3.0, 3.0));
    return grads;
  };
  for (const WireDtype dtype : {WireDtype::Bf16, WireDtype::Fp16}) {
    const tensor::HalfKind kind = dtype == WireDtype::Bf16
                                      ? tensor::HalfKind::Bf16
                                      : tensor::HalfKind::Fp16;
    for (const int ranks : {2, 3, 4}) {
      comm::World::run(ranks, [&](comm::Communicator& comm) {
        Model model = build_layered_model(100);
        const auto weights = model.weights();
        const auto hook_order = [&weights] {
          std::vector<float> flat;
          for (std::size_t i = weights.size(); i-- > 0;) {
            const auto g = weights[i]->gradient().data();
            flat.insert(flat.end(), g.begin(), g.end());
          }
          return flat;
        };
        const std::size_t n = model.parameter_count();
        std::vector<std::vector<float>> packed;  // every rank's, hook order
        for (int r = 0; r < ranks; ++r) {
          model.load_flat_gradients(rank_gradients(r, n));
          packed.push_back(hook_order());
        }
        std::vector<float> expect(n);
        const auto p = static_cast<std::size_t>(ranks);
        std::size_t begin = 0;
        for (std::size_t c = 0; c < p; ++c) {
          const std::size_t end = begin + n / p + (c < n % p ? 1 : 0);
          for (std::size_t i = begin; i < end; ++i) {
            float acc = packed[c][i];
            for (std::size_t k = 1; k < p; ++k) {
              acc = tensor::quantize(acc, kind) + packed[(c + k) % p][i];
            }
            expect[i] =
                tensor::quantize(acc, kind) * (1.0f / static_cast<float>(p));
          }
          begin = end;
        }

        model.load_flat_gradients(rank_gradients(comm.rank(), n));
        GradientBucketer bucketer(comm, dtype);
        bucket_all(bucketer, model);
        const std::vector<float> got = hook_order();
        ASSERT_EQ(got.size(), expect.size());
        EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                              got.size() * sizeof(float)),
                  0)
            << to_string(dtype) << " p=" << ranks << " rank " << comm.rank();
      });
    }
  }
}

TEST(Parallel, BucketerWireDtypeFromEnvDefaultsFp32) {
  comm::World::run(1, [](comm::Communicator& comm) {
    GradientBucketer bucketer(comm);
    EXPECT_EQ(bucketer.wire_dtype(), WireDtype::Fp32);
    EXPECT_EQ(bucketer.wire_bytes_sent(), 0u);
  });
}

// ---- reduced-precision weight checkpoints ------------------------------------------

TEST(Checkpoint, ReducedPrecisionRoundTripsLosslesslyAtStoredPrecision) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_half.bin";
  std::vector<float> weights(300);
  util::Rng rng(41);
  for (auto& w : weights) w = static_cast<float>(rng.uniform(-4.0, 4.0));
  weights[0] = 0.0f;
  weights[1] = -0.0f;
  weights[2] = std::ldexp(1.0f, -24);  // fp16 subnormal

  for (const auto dtype : {WeightsDtype::Bf16, WeightsDtype::Fp16}) {
    const tensor::HalfKind kind = half_kind(dtype);
    save_weights(path, "half-model", weights, dtype);
    std::string name;
    WeightsDtype loaded_dtype = WeightsDtype::Fp32;
    const std::vector<float> loaded =
        load_weights(path, &name, &loaded_dtype);
    EXPECT_EQ(name, "half-model");
    EXPECT_EQ(loaded_dtype, dtype);
    ASSERT_EQ(loaded.size(), weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_EQ(loaded[i], tensor::quantize(weights[i], kind))
          << "element " << i;
    }
    // Lossless at stored precision: re-saving the loaded values produces
    // a byte-identical image.
    const auto sibling = path.string() + ".again";
    save_weights(sibling, "half-model", loaded, dtype);
    std::ifstream f1(path, std::ios::binary), f2(sibling, std::ios::binary);
    const std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                               std::istreambuf_iterator<char>());
    const std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(b1, b2);
    // Half payloads are 2 bytes per weight (vs 4 for fp32).
    save_weights(sibling, "half-model", weights, WeightsDtype::Fp32);
    std::ifstream f3(sibling, std::ios::binary);
    const std::vector<char> fp32_bytes((std::istreambuf_iterator<char>(f3)),
                                       std::istreambuf_iterator<char>());
    // v2 adds one dtype byte to the header but halves the payload.
    EXPECT_EQ(fp32_bytes.size() + 1 - weights.size() * 2, b1.size());
  }
}

TEST(Checkpoint, Fp32DefaultStillWritesLegacyFormat) {
  // dtype defaulted (fp32) must produce the v1 image so downgraded readers
  // keep working; the loader reports Fp32 and returns exact values.
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_v1.bin";
  const std::vector<float> weights{1.5f, -2.25f, 1e-30f, 3.0e30f};
  save_weights(path, "fp32-model", weights);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, 1u);  // legacy fp32 format, byte-compatible
  WeightsDtype dtype = WeightsDtype::Bf16;
  const std::vector<float> loaded = load_weights(path, nullptr, &dtype);
  EXPECT_EQ(dtype, WeightsDtype::Fp32);
  EXPECT_EQ(loaded, weights);
}

TEST(Checkpoint, WeightsDtypeNames) {
  EXPECT_STREQ(to_string(WeightsDtype::Fp32), "fp32");
  EXPECT_STREQ(to_string(WeightsDtype::Bf16), "bf16");
  EXPECT_STREQ(to_string(WeightsDtype::Fp16), "fp16");
  EXPECT_EQ(half_kind(WeightsDtype::Bf16), tensor::HalfKind::Bf16);
  EXPECT_EQ(half_kind(WeightsDtype::Fp16), tensor::HalfKind::Fp16);
}

}  // namespace
