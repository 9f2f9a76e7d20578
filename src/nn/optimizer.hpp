// First-order optimizers.
//
// The paper trains the CycleGAN with Adam (initial learning rate 1e-3,
// mini-batch 128); SGD and momentum are provided for tests and for the
// data-parallel scaling experiments. An optimizer instance owns the state
// for exactly one weight tensor (LBANN's layout); models clone a prototype
// per Weights object via the factory.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ltfb::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update: weights -= f(gradient). Both spans have the size
  /// fixed by the first call; state is allocated lazily. Runs begin_step()
  /// and then update() over every element on the calling thread;
  /// Model::apply_optimizer_step fans a model's updates out instead.
  void step(std::span<float> weights, std::span<const float> gradient);

  /// Opens one update of a `size`-element tensor: allocates state on first
  /// use and advances the step count. Called once per step, before any
  /// update() of that step.
  virtual void begin_step(std::size_t size) = 0;

  /// The elementwise part of the step opened by begin_step(), on elements
  /// [begin, end) of the full weights/gradient spans. Disjoint ranges may
  /// run concurrently, and every split of the elements into ranges gives
  /// the same bits.
  virtual void update(std::span<float> weights,
                      std::span<const float> gradient, std::size_t begin,
                      std::size_t end) = 0;

  virtual std::string name() const = 0;

  /// Current learning rate (mutable for schedules).
  virtual float learning_rate() const = 0;
  virtual void set_learning_rate(float lr) = 0;

  /// Deep copy including hyperparameters but NOT accumulated state —
  /// used when stamping out per-weights instances from a prototype.
  virtual std::unique_ptr<Optimizer> clone_fresh() const = 0;

  /// Accumulated state as a flat float vector (empty for stateless
  /// optimizers). Together with deserialize_state this is what makes
  /// checkpoint/restart bit-identical: restoring weights alone would reset
  /// Adam's moments and momentum's velocity, changing every subsequent
  /// update.
  virtual std::vector<float> serialize_state() const { return {}; }

  /// Restores state produced by serialize_state on an identically
  /// configured optimizer; throws ltfb::InvalidArgument on a size or
  /// encoding mismatch.
  virtual void deserialize_state(std::span<const float> state);
};

using OptimizerFactory = std::function<std::unique_ptr<Optimizer>()>;

/// Plain stochastic gradient descent.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr) : lr_(lr) {}
  void begin_step(std::size_t /*size*/) override {}
  void update(std::span<float> weights, std::span<const float> gradient,
              std::size_t begin, std::size_t end) override;
  std::string name() const override { return "sgd"; }
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::unique_ptr<Optimizer> clone_fresh() const override {
    return std::make_unique<Sgd>(lr_);
  }

 private:
  float lr_;
};

/// SGD with classical momentum.
class Momentum final : public Optimizer {
 public:
  Momentum(float lr, float momentum) : lr_(lr), momentum_(momentum) {}
  void begin_step(std::size_t size) override;
  void update(std::span<float> weights, std::span<const float> gradient,
              std::size_t begin, std::size_t end) override;
  std::string name() const override { return "momentum"; }
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::unique_ptr<Optimizer> clone_fresh() const override {
    return std::make_unique<Momentum>(lr_, momentum_);
  }
  std::vector<float> serialize_state() const override { return velocity_; }
  void deserialize_state(std::span<const float> state) override {
    velocity_.assign(state.begin(), state.end());
  }

 private:
  float lr_;
  float momentum_;
  std::vector<float> velocity_;
};

/// Adam (Kingma & Ba) — the paper's optimizer of record.
class Adam final : public Optimizer {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}
  void begin_step(std::size_t size) override;
  void update(std::span<float> weights, std::span<const float> gradient,
              std::size_t begin, std::size_t end) override;
  std::string name() const override { return "adam"; }
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::unique_ptr<Optimizer> clone_fresh() const override {
    return std::make_unique<Adam>(lr_, beta1_, beta2_, epsilon_);
  }
  /// Layout: [t, m..., v...]. t is exact as a float up to 2^24 steps.
  std::vector<float> serialize_state() const override;
  void deserialize_state(std::span<const float> state) override;

 private:
  float lr_, beta1_, beta2_, epsilon_;
  std::vector<float> m_, v_;
  long t_ = 0;
  float step_size_ = 0.0f;  // bias-corrected lr of the open step
};

/// Dynamic loss-scale state shared by every LossScalingOptimizer of one
/// trainer. Mixed-precision training multiplies the loss gradient by a
/// large power-of-two scale S so small gradients survive reduced-precision
/// storage/transport; the controller watches the scaled gradients for
/// overflow and adapts S:
///
///   begin_step(); observe(g) for every gradient in the step group;
///   then run the optimizer steps (each LossScalingOptimizer consults
///   should_skip()); end_step();
///
/// On any non-finite gradient the WHOLE group is skipped (no weights in
/// the group move — never a partial update) and S backs off; after
/// growth_interval consecutive good steps S doubles, up to max_scale.
/// Scales are powers of two, so scaling and unscaling are exact in fp32.
class LossScaleController {
 public:
  struct Config {
    float initial_scale = 65536.0f;  // 2^16
    float growth_factor = 2.0f;
    float backoff_factor = 0.5f;
    long growth_interval = 200;
    float min_scale = 1.0f;
    float max_scale = 16777216.0f;  // 2^24
  };

  LossScaleController() : LossScaleController(Config{}) {}
  explicit LossScaleController(const Config& config);

  float scale() const noexcept { return scale_; }

  /// Opens a step group: clears the group's overflow flag.
  void begin_step();
  /// Scans a (scaled) gradient; any non-finite value marks the group for
  /// skipping.
  void observe(std::span<const float> gradient);
  bool should_skip() const noexcept { return overflow_; }
  /// Closes the group: backs the scale off on overflow, grows it after
  /// growth_interval consecutive good steps.
  void end_step();

  long skipped_steps() const noexcept { return skipped_; }
  long growth_events() const noexcept { return growths_; }

 private:
  Config config_;
  float scale_;
  bool overflow_ = false;
  long good_steps_ = 0;
  long skipped_ = 0;
  long growths_ = 0;
};

/// Decorator that makes any optimizer loss-scale-aware: divides the scaled
/// gradient back down by the controller's current scale before delegating,
/// and skips the step entirely (weights AND inner optimizer state
/// untouched) when the controller flagged the group at begin_step(). State
/// serialization passes through to the inner optimizer, so checkpoints are
/// layout-compatible with unscaled training.
class LossScalingOptimizer final : public Optimizer {
 public:
  LossScalingOptimizer(std::unique_ptr<Optimizer> inner,
                       std::shared_ptr<LossScaleController> controller);
  void begin_step(std::size_t size) override;
  void update(std::span<float> weights, std::span<const float> gradient,
              std::size_t begin, std::size_t end) override;
  std::string name() const override { return "loss_scaled_" + inner_->name(); }
  float learning_rate() const override { return inner_->learning_rate(); }
  void set_learning_rate(float lr) override { inner_->set_learning_rate(lr); }
  std::unique_ptr<Optimizer> clone_fresh() const override;
  std::vector<float> serialize_state() const override {
    return inner_->serialize_state();
  }
  void deserialize_state(std::span<const float> state) override {
    inner_->deserialize_state(state);
  }

 private:
  std::unique_ptr<Optimizer> inner_;
  std::shared_ptr<LossScaleController> controller_;
  std::vector<float> unscaled_;
  bool skip_ = false;  // the open step's group overflowed
};

/// Factory helpers.
OptimizerFactory make_sgd_factory(float lr);
OptimizerFactory make_momentum_factory(float lr, float momentum);
OptimizerFactory make_adam_factory(float lr, float beta1 = 0.9f,
                                   float beta2 = 0.999f,
                                   float epsilon = 1e-8f);
/// Wraps every optimizer the inner factory produces in a
/// LossScalingOptimizer sharing `controller`.
OptimizerFactory make_loss_scaling_factory(
    OptimizerFactory inner, std::shared_ptr<LossScaleController> controller);

/// True when LTFB_MIXED_PRECISION is set to anything but "" or "0": the
/// process-wide default for the reduced-precision train + comm path.
bool mixed_precision_from_env();

}  // namespace ltfb::nn
