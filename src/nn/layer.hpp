// Layer zoo for the DAG model.
//
// The paper's CycleGAN components are "standard fully-connected neural
// networks" (Sec. II-D), so the zoo is: FullyConnected, the usual
// activations, Dropout, and the structural layers (Input, Concat, Slice)
// needed to wire the multimodal autoencoder. All activations operate on
// rank-2 [batch, features] tensors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/weights.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ltfb::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string type() const = 0;

  /// Called once when the layer joins a model; receives the feature widths
  /// of its parents and an RNG for weight initialization.
  virtual void setup(const std::vector<std::size_t>& input_widths,
                     util::Rng& rng) = 0;

  virtual std::size_t output_width() const = 0;

  /// Computes output_ from the parent outputs. `training` toggles
  /// stochastic layers (Dropout).
  virtual void forward(const std::vector<const tensor::Tensor*>& inputs,
                       bool training) = 0;

  /// Accumulates parameter gradients and fills grad_inputs (one tensor per
  /// parent, same shape as that parent's output).
  virtual void backward(const std::vector<const tensor::Tensor*>& inputs,
                        const tensor::Tensor& grad_output,
                        std::vector<tensor::Tensor>& grad_inputs) = 0;

  const tensor::Tensor& output() const noexcept { return output_; }
  tensor::Tensor& mutable_output() noexcept { return output_; }

  /// False when no parent takes a gradient (every parent is a data input,
  /// or fed only by data inputs): backward() may then skip grad_inputs and
  /// leave it empty. Set by the model when the layer joins it.
  bool propagates_gradient() const noexcept { return propagates_gradient_; }
  void set_propagates_gradient(bool propagates) noexcept {
    propagates_gradient_ = propagates;
  }

  std::vector<Weights*> weights() {
    std::vector<Weights*> result;
    result.reserve(weights_.size());
    for (const auto& w : weights_) result.push_back(w.get());
    return result;
  }

 protected:
  tensor::Tensor output_;
  std::vector<std::unique_ptr<Weights>> weights_;

 private:
  bool propagates_gradient_ = true;
};

/// Source layer; the model copies mini-batch data into its output.
class InputLayer final : public Layer {
 public:
  explicit InputLayer(std::size_t width) : width_(width) {}
  std::string type() const override { return "input"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;

 private:
  std::size_t width_;
};

/// Elementwise activations; derivative is computed from the stored output.
enum class ActivationKind { Relu, LeakyRelu, Sigmoid, Tanh };

const char* to_string(ActivationKind kind) noexcept;

/// Affine layer: Y = act(X W + b) with W in R^{in x out}. The bias add and
/// the (optional) fused activation run inside the gemm epilogue, on the
/// still-hot output tile, instead of as separate full passes. The fused
/// form is elementwise-identical to a FullyConnected followed by an
/// Activation layer: same per-element operation order in forward, and the
/// backward derivative computed from the stored output y matches the
/// input-based form for every supported activation (for relu/leaky-relu,
/// y > 0 iff the pre-activation is > 0; sigmoid/tanh already differentiate
/// through y).
class FullyConnected final : public Layer {
 public:
  enum class Init { GlorotUniform, HeNormal };
  explicit FullyConnected(std::size_t output_width, bool has_bias = true,
                          Init init = Init::GlorotUniform)
      : out_width_(output_width), has_bias_(has_bias), init_(init) {}
  /// Fused dense: Y = act(X W + b) in one pass.
  FullyConnected(std::size_t output_width, bool has_bias, Init init,
                 ActivationKind act, float leaky_slope = 0.01f)
      : out_width_(output_width),
        has_bias_(has_bias),
        init_(init),
        has_act_(true),
        act_(act),
        leaky_slope_(leaky_slope) {}
  std::string type() const override;
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return out_width_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;

 private:
  std::size_t in_width_ = 0;
  std::size_t out_width_;
  bool has_bias_;
  Init init_;
  bool has_act_ = false;
  ActivationKind act_ = ActivationKind::Relu;
  float leaky_slope_ = 0.01f;
};

class Activation final : public Layer {
 public:
  explicit Activation(ActivationKind kind, float leaky_slope = 0.01f)
      : kind_(kind), leaky_slope_(leaky_slope) {}
  std::string type() const override { return to_string(kind_); }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;
  ActivationKind kind() const noexcept { return kind_; }

 private:
  ActivationKind kind_;
  float leaky_slope_;
  std::size_t width_ = 0;
};

/// Inverted dropout: active only in training mode; scales survivors by
/// 1/(1-p) so evaluation needs no rescaling.
class Dropout final : public Layer {
 public:
  explicit Dropout(float drop_probability)
      : drop_probability_(drop_probability) {}
  std::string type() const override { return "dropout"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;

 private:
  float drop_probability_;
  std::size_t width_ = 0;
  util::Rng rng_;
  tensor::Tensor mask_;
};

/// Feature-wise concatenation of all parents.
class Concat final : public Layer {
 public:
  std::string type() const override { return "concat"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;

 private:
  std::vector<std::size_t> input_widths_;
  std::size_t width_ = 0;
};

/// Feature range selection [begin, end) from a single parent.
class Slice final : public Layer {
 public:
  Slice(std::size_t begin, std::size_t end) : begin_(begin), end_(end) {}
  std::string type() const override { return "slice"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return end_ - begin_; }
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training) override;
  void backward(const std::vector<const tensor::Tensor*>& inputs,
                const tensor::Tensor& grad_output,
                std::vector<tensor::Tensor>& grad_inputs) override;

 private:
  std::size_t begin_, end_;
  std::size_t parent_width_ = 0;
};

}  // namespace ltfb::nn
