// Layer zoo for the DAG model.
//
// The paper's CycleGAN components are "standard fully-connected neural
// networks" (Sec. II-D), so the zoo is: FullyConnected, the usual
// activations, Dropout, and the structural layers (Input, Concat, Slice)
// needed to wire the multimodal autoencoder. All activations operate on
// rank-2 [batch, features] tensors.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/weights.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ltfb::nn {

/// A layer's parent outputs, in parent order. An input layer's one entry
/// is the mini-batch tensor bound to it for the pass.
using LayerInputs = std::span<const tensor::Tensor* const>;

/// Gives `t` the shape rows x cols, reallocating only when the shape
/// changes; the contents are unspecified afterwards.
void ensure_shape(tensor::Tensor& t, std::size_t rows, std::size_t cols);

/// A layer runs inside model passes over row shards of the batch. Each pass
/// first calls the layer's prepare step once, on the calling thread, for
/// the work that needs the whole batch (sizing buffers, packing weight
/// panels, drawing dropout masks). Then every shard runs its rows through
/// every layer, and shards may run concurrently. A row's forward values
/// and data gradients never depend on other rows, so every row computes
/// the same bits whatever shard it lands in. Weight gradients sum over the
/// whole batch and run afterwards, as independent weight tasks.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string type() const = 0;

  /// Called once when the layer joins a model; receives the feature widths
  /// of its parents and an RNG for weight initialization.
  virtual void setup(const std::vector<std::size_t>& input_widths,
                     util::Rng& rng) = 0;

  virtual std::size_t output_width() const = 0;

  /// Once per forward pass of a `rows`-row batch, before any rows run:
  /// sizes the output. `training` toggles stochastic layers (Dropout).
  virtual void prepare_forward(std::size_t rows, bool training);

  /// Output rows [row_begin, row_end) from the same rows of the parents.
  virtual void forward_rows(LayerInputs inputs, std::size_t row_begin,
                            std::size_t row_end) = 0;

  /// Once per backward pass, before any rows run. `weight_gradients`
  /// says whether the pass goes on to this layer's weight tasks.
  virtual void prepare_backward(std::size_t rows, bool weight_gradients);

  /// The data gradients of rows [row_begin, row_end): from those rows of
  /// dL/d(output), writes the same rows of dL/d(parent p) into
  /// *grad_inputs[p], skipping parents whose entry is null.
  virtual void backward_rows(LayerInputs inputs,
                             const tensor::Tensor& grad_output,
                             std::span<tensor::Tensor* const> grad_inputs,
                             std::size_t row_begin,
                             std::size_t row_end) = 0;

  /// Independent tasks that accumulate the weight gradients of the last
  /// backward pass over its whole batch; they run after every row of that
  /// pass's data gradients. Zero for weightless layers and for passes
  /// prepared without weight gradients.
  virtual std::size_t weight_tasks() const { return 0; }
  virtual void run_weight_task(std::size_t task, LayerInputs inputs,
                               const tensor::Tensor& grad_output);

  const tensor::Tensor& output() const noexcept { return output_; }

  /// False when no parent takes a gradient (every parent is a data input,
  /// or fed only by data inputs): backward then computes no dL/d(parent)
  /// and gets only null grad_inputs. Set by the model when the layer joins
  /// it.
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

/// Source layer: its forward copies rows of the mini-batch bound to it.
class InputLayer final : public Layer {
 public:
  explicit InputLayer(std::size_t width) : width_(width) {}
  std::string type() const override { return "input"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;

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
  void prepare_forward(std::size_t rows, bool training) override;
  void prepare_backward(std::size_t rows, bool weight_gradients) override;
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;
  /// dW row blocks (kGemmRowBlock rows of W each), then the bias sum.
  std::size_t weight_tasks() const override;
  void run_weight_task(std::size_t task, LayerInputs inputs,
                       const tensor::Tensor& grad_output) override;

 private:
  std::size_t dw_row_blocks() const noexcept;

  std::size_t in_width_ = 0;
  std::size_t out_width_;
  bool has_bias_;
  Init init_;
  bool has_act_ = false;
  ActivationKind act_ = ActivationKind::Relu;
  float leaky_slope_ = 0.01f;

  // Packed once per pass and shared by every row shard: op(B) = W for the
  // forward GEMM, W^T for dX, and dZ (packed by rows as the data
  // gradients produce them) for dW = X^T dZ.
  tensor::PackedB weights_panel_;
  tensor::PackedB weights_t_panel_;
  tensor::PackedB grad_z_panel_;
  tensor::Tensor grad_z_;  // dL/dZ when the activation is fused
  tensor::Tensor bias_sums_;
  bool weight_gradients_ = false;
};

class Activation final : public Layer {
 public:
  explicit Activation(ActivationKind kind, float leaky_slope = 0.01f)
      : kind_(kind), leaky_slope_(leaky_slope) {}
  std::string type() const override { return to_string(kind_); }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;
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
  /// Draws the whole batch's mask, in index order, before any rows run.
  void prepare_forward(std::size_t rows, bool training) override;
  void prepare_backward(std::size_t rows, bool weight_gradients) override;
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;

 private:
  float drop_probability_;
  std::size_t width_ = 0;
  util::Rng rng_;
  tensor::Tensor mask_;
  bool masked_ = false;  // the last forward pass was a training pass
};

/// Feature-wise concatenation of all parents.
class Concat final : public Layer {
 public:
  std::string type() const override { return "concat"; }
  void setup(const std::vector<std::size_t>& input_widths,
             util::Rng& rng) override;
  std::size_t output_width() const override { return width_; }
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;

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
  void forward_rows(LayerInputs inputs, std::size_t row_begin,
                    std::size_t row_end) override;
  void backward_rows(LayerInputs inputs, const tensor::Tensor& grad_output,
                     std::span<tensor::Tensor* const> grad_inputs,
                     std::size_t row_begin, std::size_t row_end) override;

 private:
  std::size_t begin_, end_;
  std::size_t parent_width_ = 0;
};

}  // namespace ltfb::nn
