#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"

namespace ltfb::nn {

namespace {

// The update loops are elementwise: a vector main loop (lanewise
// IEEE-exact, so bit-identical to the scalar loop at every width) covers
// the aligned part of a range and a scalar tail the rest, so any split of
// the elements into ranges gives the same bits.
using tensor::simd::vf;
constexpr std::size_t kW = tensor::simd::kNativeWidth;

}  // namespace

void Optimizer::step(std::span<float> weights,
                     std::span<const float> gradient) {
  LTFB_CHECK(weights.size() == gradient.size());
  begin_step(weights.size());
  update(weights, gradient, 0, weights.size());
}

void Sgd::update(std::span<float> weights, std::span<const float> gradient,
                 std::size_t b, std::size_t e) {
  const float lr = lr_;
  const vf vlr = vf::broadcast(lr);
  const std::size_t ve = b + tensor::simd::main_loop_bound(e - b);
  for (std::size_t i = b; i < ve; i += kW) {
    (vf::load(&weights[i]) - vlr * vf::load(&gradient[i])).store(&weights[i]);
  }
  for (std::size_t i = ve; i < e; ++i) {
    weights[i] -= lr * gradient[i];
  }
}

void Momentum::begin_step(std::size_t size) {
  if (velocity_.size() != size) velocity_.assign(size, 0.0f);
}

void Momentum::update(std::span<float> weights,
                      std::span<const float> gradient, std::size_t b,
                      std::size_t e) {
  float* velocity = velocity_.data();
  const float lr = lr_;
  const float momentum = momentum_;
  const vf vlr = vf::broadcast(lr);
  const vf vmom = vf::broadcast(momentum);
  const std::size_t ve = b + tensor::simd::main_loop_bound(e - b);
  for (std::size_t i = b; i < ve; i += kW) {
    const vf vel =
        vmom * vf::load(velocity + i) - vlr * vf::load(&gradient[i]);
    vel.store(velocity + i);
    (vf::load(&weights[i]) + vel).store(&weights[i]);
  }
  for (std::size_t i = ve; i < e; ++i) {
    velocity[i] = momentum * velocity[i] - lr * gradient[i];
    weights[i] += velocity[i];
  }
}

void Adam::begin_step(std::size_t size) {
  if (m_.size() != size) {
    m_.assign(size, 0.0f);
    v_.assign(size, 0.0f);
    t_ = 0;
  }
  ++t_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  step_size_ = lr_ * std::sqrt(bc2) / bc1;
}

void Adam::update(std::span<float> weights, std::span<const float> gradient,
                  std::size_t b, std::size_t e) {
  float* m = m_.data();
  float* v = v_.data();
  const float alpha = step_size_;
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float epsilon = epsilon_;
  const vf vb1 = vf::broadcast(beta1);
  const vf vomb1 = vf::broadcast(1.0f - beta1);
  const vf vb2 = vf::broadcast(beta2);
  const vf vomb2 = vf::broadcast(1.0f - beta2);
  const vf valpha = vf::broadcast(alpha);
  const vf veps = vf::broadcast(epsilon);
  const std::size_t ve = b + tensor::simd::main_loop_bound(e - b);
  for (std::size_t i = b; i < ve; i += kW) {
    const vf g = vf::load(&gradient[i]);
    const vf mi = vb1 * vf::load(m + i) + vomb1 * g;
    const vf vi = vb2 * vf::load(v + i) + vomb2 * g * g;
    mi.store(m + i);
    vi.store(v + i);
    (vf::load(&weights[i]) - valpha * mi / (vi.sqrt() + veps))
        .store(&weights[i]);
  }
  for (std::size_t i = ve; i < e; ++i) {
    const float g = gradient[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    weights[i] -= alpha * m[i] / (tensor::simd::sqrt1(v[i]) + epsilon);
  }
}

void Optimizer::deserialize_state(std::span<const float> state) {
  LTFB_CHECK_MSG(state.empty(),
                 "optimizer '" << name() << "' carries no state but got "
                               << state.size() << " floats");
}

std::vector<float> Adam::serialize_state() const {
  if (t_ == 0) return {};
  std::vector<float> state;
  state.reserve(1 + m_.size() + v_.size());
  state.push_back(static_cast<float>(t_));
  state.insert(state.end(), m_.begin(), m_.end());
  state.insert(state.end(), v_.begin(), v_.end());
  return state;
}

void Adam::deserialize_state(std::span<const float> state) {
  if (state.empty()) {
    m_.clear();
    v_.clear();
    t_ = 0;
    return;
  }
  LTFB_CHECK_MSG(state.size() % 2 == 1,
                 "adam state must be [t, m..., v...], got " << state.size()
                                                            << " floats");
  const std::size_t count = (state.size() - 1) / 2;
  t_ = static_cast<long>(state[0]);
  LTFB_CHECK_MSG(t_ > 0, "adam state has non-positive step count " << t_);
  m_.assign(state.begin() + 1,
            state.begin() + 1 + static_cast<std::ptrdiff_t>(count));
  v_.assign(state.begin() + 1 + static_cast<std::ptrdiff_t>(count),
            state.end());
}

OptimizerFactory make_sgd_factory(float lr) {
  return [lr] { return std::make_unique<Sgd>(lr); };
}

OptimizerFactory make_momentum_factory(float lr, float momentum) {
  return [lr, momentum] { return std::make_unique<Momentum>(lr, momentum); };
}

OptimizerFactory make_adam_factory(float lr, float beta1, float beta2,
                                   float epsilon) {
  return [=] { return std::make_unique<Adam>(lr, beta1, beta2, epsilon); };
}

// ---- dynamic loss scaling --------------------------------------------------

LossScaleController::LossScaleController(const Config& config)
    : config_(config), scale_(config.initial_scale) {
  LTFB_CHECK_MSG(config.initial_scale >= config.min_scale &&
                     config.initial_scale <= config.max_scale,
                 "loss scale " << config.initial_scale << " outside ["
                               << config.min_scale << ", "
                               << config.max_scale << "]");
  LTFB_CHECK(config.growth_factor > 1.0f);
  LTFB_CHECK(config.backoff_factor > 0.0f && config.backoff_factor < 1.0f);
  LTFB_CHECK(config.growth_interval > 0);
}

void LossScaleController::begin_step() { overflow_ = false; }

void LossScaleController::observe(std::span<const float> gradient) {
  if (!overflow_ && !tensor::all_finite(gradient)) overflow_ = true;
}

void LossScaleController::end_step() {
  if (overflow_) {
    ++skipped_;
    good_steps_ = 0;
    scale_ = std::max(config_.min_scale, scale_ * config_.backoff_factor);
    LTFB_COUNTER_ADD("nn/loss_scale_skips", 1);
  } else if (++good_steps_ >= config_.growth_interval) {
    good_steps_ = 0;
    const float grown = scale_ * config_.growth_factor;
    if (grown <= config_.max_scale) {
      scale_ = grown;
      ++growths_;
    }
  }
  overflow_ = false;
  LTFB_GAUGE_SET("nn/loss_scale", static_cast<double>(scale_));
}

LossScalingOptimizer::LossScalingOptimizer(
    std::unique_ptr<Optimizer> inner,
    std::shared_ptr<LossScaleController> controller)
    : inner_(std::move(inner)), controller_(std::move(controller)) {
  LTFB_CHECK(inner_ != nullptr && controller_ != nullptr);
}

void LossScalingOptimizer::begin_step(std::size_t size) {
  skip_ = controller_->should_skip();  // overflow: whole group sits out
  if (skip_) return;
  if (unscaled_.size() != size) unscaled_.resize(size);
  inner_->begin_step(size);
}

void LossScalingOptimizer::update(std::span<float> weights,
                                  std::span<const float> gradient,
                                  std::size_t b, std::size_t e) {
  if (skip_) return;
  // Unscale into a scratch copy; the scale is a power of two, so the
  // division is exact and the inner optimizer sees the true gradient.
  std::copy(gradient.begin() + static_cast<std::ptrdiff_t>(b),
            gradient.begin() + static_cast<std::ptrdiff_t>(e),
            unscaled_.begin() + static_cast<std::ptrdiff_t>(b));
  tensor::scale(1.0f / controller_->scale(),
                std::span<float>(unscaled_.data() + b, e - b));
  inner_->update(weights, unscaled_, b, e);
}

std::unique_ptr<Optimizer> LossScalingOptimizer::clone_fresh() const {
  return std::make_unique<LossScalingOptimizer>(inner_->clone_fresh(),
                                                controller_);
}

OptimizerFactory make_loss_scaling_factory(
    OptimizerFactory inner, std::shared_ptr<LossScaleController> controller) {
  LTFB_CHECK(inner != nullptr && controller != nullptr);
  return [inner = std::move(inner), controller = std::move(controller)] {
    return std::make_unique<LossScalingOptimizer>(inner(), controller);
  };
}

bool mixed_precision_from_env() {
  const char* value = std::getenv("LTFB_MIXED_PRECISION");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

}  // namespace ltfb::nn
