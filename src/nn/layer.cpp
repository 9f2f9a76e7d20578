#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/initializer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"

namespace ltfb::nn {

namespace {

tensor::EpilogueAct to_epilogue(ActivationKind kind) noexcept {
  switch (kind) {
    case ActivationKind::Relu: return tensor::EpilogueAct::Relu;
    case ActivationKind::LeakyRelu: return tensor::EpilogueAct::LeakyRelu;
    case ActivationKind::Sigmoid: return tensor::EpilogueAct::Sigmoid;
    case ActivationKind::Tanh: return tensor::EpilogueAct::Tanh;
  }
  return tensor::EpilogueAct::None;
}

// dL/dz = dL/dy * act'(z), computed from the stored output y (see the
// FullyConnected doc comment for why y is sufficient). The relu/leaky
// branches run on the vector path with the exact scalar predicate.
void activation_backward_from_output(ActivationKind kind, float leaky_slope,
                                     const float* yp, const float* gp,
                                     float* op, std::size_t n) {
  using tensor::simd::vf;
  constexpr std::size_t kW = tensor::simd::kNativeWidth;
  const std::size_t ve = tensor::simd::main_loop_bound(n);
  switch (kind) {
    case ActivationKind::Relu:
      for (std::size_t i = 0; i < ve; i += kW) {
        vf::select_gt_zero(vf::load(yp + i), vf::load(gp + i), vf::zero())
            .store(op + i);
      }
      for (std::size_t i = ve; i < n; ++i) {
        op[i] = yp[i] > 0.0f ? gp[i] : 0.0f;
      }
      break;
    case ActivationKind::LeakyRelu: {
      const vf slope = vf::broadcast(leaky_slope);
      for (std::size_t i = 0; i < ve; i += kW) {
        const vf g = vf::load(gp + i);
        vf::select_gt_zero(vf::load(yp + i), g, g * slope).store(op + i);
      }
      for (std::size_t i = ve; i < n; ++i) {
        op[i] = yp[i] > 0.0f ? gp[i] : leaky_slope * gp[i];
      }
      break;
    }
    case ActivationKind::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        op[i] = gp[i] * yp[i] * (1.0f - yp[i]);
      }
      break;
    case ActivationKind::Tanh:
      for (std::size_t i = 0; i < n; ++i) {
        op[i] = gp[i] * (1.0f - yp[i] * yp[i]);
      }
      break;
  }
}

// Copies rows [row_begin, row_end) of `src`'s columns [col, col + width)
// into the same rows of `dst`'s columns [dst_col, dst_col + width).
void copy_columns(const tensor::Tensor& src, std::size_t col,
                  tensor::Tensor& dst, std::size_t dst_col, std::size_t width,
                  std::size_t row_begin, std::size_t row_end) {
  const std::size_t src_cols = src.cols();
  const std::size_t dst_cols = dst.cols();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    std::copy_n(src.raw() + r * src_cols + col, width,
                dst.raw() + r * dst_cols + dst_col);
  }
}

}  // namespace

void ensure_shape(tensor::Tensor& t, std::size_t rows, std::size_t cols) {
  if (t.rank() == 2 && t.rows() == rows && t.cols() == cols) return;
  t.resize({rows, cols});
}

// ---- Layer -----------------------------------------------------------------

void Layer::prepare_forward(std::size_t rows, bool /*training*/) {
  ensure_shape(output_, rows, output_width());
}

void Layer::prepare_backward(std::size_t /*rows*/, bool /*weight_gradients*/) {
}

void Layer::run_weight_task(std::size_t task, LayerInputs /*inputs*/,
                            const tensor::Tensor& /*grad_output*/) {
  LTFB_CHECK_MSG(false, type() << " layer has no weight task " << task);
}

// ---- InputLayer ------------------------------------------------------------

void InputLayer::setup(const std::vector<std::size_t>& input_widths,
                       util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(input_widths.empty(), "input layers have no parents");
}

void InputLayer::forward_rows(LayerInputs inputs, std::size_t row_begin,
                              std::size_t row_end) {
  copy_columns(*inputs[0], 0, output_, 0, width_, row_begin, row_end);
}

void InputLayer::backward_rows(
    LayerInputs /*inputs*/, const tensor::Tensor& /*grad_output*/,
    std::span<tensor::Tensor* const> /*grad_inputs*/,
    std::size_t /*row_begin*/, std::size_t /*row_end*/) {}

// ---- FullyConnected --------------------------------------------------------

void FullyConnected::setup(const std::vector<std::size_t>& input_widths,
                           util::Rng& rng) {
  LTFB_CHECK_MSG(input_widths.size() == 1,
                 "fully_connected takes exactly one parent");
  in_width_ = input_widths[0];
  LTFB_CHECK(in_width_ > 0 && out_width_ > 0);
  auto kernel = std::make_unique<Weights>(
      "linearity", tensor::Shape{in_width_, out_width_});
  if (init_ == Init::GlorotUniform) {
    glorot_uniform(rng, in_width_, out_width_, kernel->values().data());
  } else {
    he_normal(rng, in_width_, kernel->values().data());
  }
  weights_.push_back(std::move(kernel));
  if (has_bias_) {
    auto bias = std::make_unique<Weights>("bias", tensor::Shape{out_width_});
    weights_.push_back(std::move(bias));
  }
}

std::string FullyConnected::type() const {
  if (!has_act_) return "fully_connected";
  return std::string("fully_connected_") + to_string(act_);
}

void FullyConnected::prepare_forward(std::size_t rows, bool training) {
  Layer::prepare_forward(rows, training);
  weights_panel_.pack(tensor::Op::None, weights_[0]->values());
}

void FullyConnected::forward_rows(LayerInputs inputs, std::size_t row_begin,
                                  std::size_t row_end) {
  const tensor::Tensor& x = *inputs[0];
  LTFB_CHECK_MSG(x.cols() == in_width_, "fully_connected input width "
                                            << x.cols() << " != "
                                            << in_width_);
  // Bias and the fused activation both ride the gemm epilogue: one pass
  // over the output instead of up to three.
  tensor::Epilogue ep;
  ep.bias = has_bias_ ? weights_[1]->values().raw() : nullptr;
  ep.act = has_act_ ? to_epilogue(act_) : tensor::EpilogueAct::None;
  ep.leaky_slope = leaky_slope_;
  tensor::gemm_rows(tensor::Op::None, 1.0f, x, weights_panel_, 0.0f, output_,
                    row_begin, row_end, ep);
}

void FullyConnected::prepare_backward(std::size_t rows,
                                      bool weight_gradients) {
  if (has_act_) ensure_shape(grad_z_, rows, out_width_);
  if (propagates_gradient()) {
    weights_t_panel_.pack(tensor::Op::Transpose, weights_[0]->values());
  }
  weight_gradients_ = weight_gradients;
  if (weight_gradients_) grad_z_panel_.reshape(rows, out_width_);
}

void FullyConnected::backward_rows(
    LayerInputs /*inputs*/, const tensor::Tensor& grad_output,
    std::span<tensor::Tensor* const> grad_inputs, std::size_t row_begin,
    std::size_t row_end) {
  // With a fused activation the incoming gradient is dL/dy; convert to
  // dL/dz (z = XW + b) first, exactly as a separate Activation layer's
  // backward would have.
  const tensor::Tensor* gz = &grad_output;
  if (has_act_) {
    const std::size_t first = row_begin * out_width_;
    activation_backward_from_output(
        act_, leaky_slope_, output_.raw() + first, grad_output.raw() + first,
        grad_z_.raw() + first, (row_end - row_begin) * out_width_);
    gz = &grad_z_;
  }
  if (weight_gradients_) grad_z_panel_.pack_rows(*gz, row_begin, row_end);
  // dX = dZ W^T, unless the input is data that takes no gradient.
  if (grad_inputs[0] != nullptr) {
    tensor::gemm_rows(tensor::Op::None, 1.0f, *gz, weights_t_panel_, 0.0f,
                      *grad_inputs[0], row_begin, row_end);
  }
}

std::size_t FullyConnected::dw_row_blocks() const noexcept {
  return (in_width_ + tensor::kGemmRowBlock - 1) / tensor::kGemmRowBlock;
}

std::size_t FullyConnected::weight_tasks() const {
  if (!weight_gradients_) return 0;
  return dw_row_blocks() + (has_bias_ ? 1 : 0);
}

void FullyConnected::run_weight_task(std::size_t task, LayerInputs inputs,
                                     const tensor::Tensor& grad_output) {
  if (task < dw_row_blocks()) {
    // Rows of dW += X^T dZ (accumulate so multiple backward passes sum, as
    // in LBANN). Each element sums the whole batch in one k-blocked chain.
    const std::size_t first = task * tensor::kGemmRowBlock;
    tensor::gemm_rows(tensor::Op::Transpose, 1.0f, *inputs[0], grad_z_panel_,
                      1.0f, weights_[0]->gradient(), first,
                      std::min(in_width_, first + tensor::kGemmRowBlock));
    return;
  }
  ensure_shape(bias_sums_, 1, out_width_);
  tensor::column_sums(has_act_ ? grad_z_ : grad_output, bias_sums_.data());
  tensor::axpy(1.0f, bias_sums_.data(), weights_[1]->gradient().data());
}

// ---- Activation ------------------------------------------------------------

const char* to_string(ActivationKind kind) noexcept {
  switch (kind) {
    case ActivationKind::Relu: return "relu";
    case ActivationKind::LeakyRelu: return "leaky_relu";
    case ActivationKind::Sigmoid: return "sigmoid";
    case ActivationKind::Tanh: return "tanh";
  }
  return "?";
}

void Activation::setup(const std::vector<std::size_t>& input_widths,
                       util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(input_widths.size() == 1, "activation takes one parent");
  width_ = input_widths[0];
}

void Activation::forward_rows(LayerInputs inputs, std::size_t row_begin,
                              std::size_t row_end) {
  const std::size_t first = row_begin * width_;
  const float* xp = inputs[0]->raw() + first;
  float* yp = output_.raw() + first;
  const std::size_t n = (row_end - row_begin) * width_;
  using tensor::simd::vf;
  constexpr std::size_t kW = tensor::simd::kNativeWidth;
  const std::size_t ve = tensor::simd::main_loop_bound(n);
  switch (kind_) {
    case ActivationKind::Relu:
      for (std::size_t i = 0; i < ve; i += kW) {
        const vf v = vf::load(xp + i);
        vf::select_gt_zero(v, v, vf::zero()).store(yp + i);
      }
      for (std::size_t i = ve; i < n; ++i) {
        yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
      }
      break;
    case ActivationKind::LeakyRelu: {
      const vf slope = vf::broadcast(leaky_slope_);
      for (std::size_t i = 0; i < ve; i += kW) {
        const vf v = vf::load(xp + i);
        vf::select_gt_zero(v, v, v * slope).store(yp + i);
      }
      for (std::size_t i = ve; i < n; ++i) {
        yp[i] = xp[i] > 0.0f ? xp[i] : leaky_slope_ * xp[i];
      }
      break;
    }
    case ActivationKind::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        yp[i] = 1.0f / (1.0f + std::exp(-xp[i]));
      }
      break;
    case ActivationKind::Tanh:
      for (std::size_t i = 0; i < n; ++i) yp[i] = std::tanh(xp[i]);
      break;
  }
}

void Activation::backward_rows(LayerInputs /*inputs*/,
                               const tensor::Tensor& grad_output,
                               std::span<tensor::Tensor* const> grad_inputs,
                               std::size_t row_begin, std::size_t row_end) {
  if (grad_inputs[0] == nullptr) return;
  // The output-based derivative is identical to the input-based one for
  // every kind (for relu/leaky, y > 0 iff x > 0), so the standalone layer
  // shares the fused-dense backward kernel.
  const std::size_t first = row_begin * width_;
  activation_backward_from_output(
      kind_, leaky_slope_, output_.raw() + first, grad_output.raw() + first,
      grad_inputs[0]->raw() + first, (row_end - row_begin) * width_);
}

// ---- Dropout ---------------------------------------------------------------

void Dropout::setup(const std::vector<std::size_t>& input_widths,
                    util::Rng& rng) {
  LTFB_CHECK_MSG(input_widths.size() == 1, "dropout takes one parent");
  LTFB_CHECK_MSG(drop_probability_ >= 0.0f && drop_probability_ < 1.0f,
                 "dropout probability must be in [0, 1), got "
                     << drop_probability_);
  width_ = input_widths[0];
  rng_ = util::Rng(rng.engine()());
}

void Dropout::prepare_forward(std::size_t rows, bool training) {
  Layer::prepare_forward(rows, training);
  masked_ = training && drop_probability_ != 0.0f;
  if (!masked_) return;
  // One draw per element in index order, whatever the row shards, so the
  // mask is the same at every team size.
  ensure_shape(mask_, rows, width_);
  const float keep = 1.0f - drop_probability_;
  const float inv_keep = 1.0f / keep;
  for (float& m : mask_.data()) m = rng_.bernoulli(keep) ? inv_keep : 0.0f;
}

void Dropout::forward_rows(LayerInputs inputs, std::size_t row_begin,
                           std::size_t row_end) {
  const std::size_t first = row_begin * width_;
  const std::size_t last = row_end * width_;
  const float* xp = inputs[0]->raw();
  float* yp = output_.raw();
  if (!masked_) {
    std::copy(xp + first, xp + last, yp + first);
    return;
  }
  const float* mp = mask_.raw();
  for (std::size_t i = first; i < last; ++i) yp[i] = xp[i] * mp[i];
}

void Dropout::prepare_backward(std::size_t rows, bool /*weight_gradients*/) {
  LTFB_CHECK(!masked_ || mask_.rows() == rows);
}

void Dropout::backward_rows(LayerInputs /*inputs*/,
                            const tensor::Tensor& grad_output,
                            std::span<tensor::Tensor* const> grad_inputs,
                            std::size_t row_begin, std::size_t row_end) {
  if (grad_inputs[0] == nullptr) return;
  const std::size_t first = row_begin * width_;
  const std::size_t last = row_end * width_;
  const float* gp = grad_output.raw();
  float* dp = grad_inputs[0]->raw();
  if (!masked_) {  // eval-mode pass
    std::copy(gp + first, gp + last, dp + first);
    return;
  }
  const float* mp = mask_.raw();
  for (std::size_t i = first; i < last; ++i) dp[i] = gp[i] * mp[i];
}

// ---- Concat ----------------------------------------------------------------

void Concat::setup(const std::vector<std::size_t>& input_widths,
                   util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(!input_widths.empty(), "concat needs at least one parent");
  input_widths_ = input_widths;
  width_ = 0;
  for (const auto w : input_widths_) width_ += w;
}

void Concat::forward_rows(LayerInputs inputs, std::size_t row_begin,
                          std::size_t row_end) {
  std::size_t offset = 0;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    copy_columns(*inputs[p], 0, output_, offset, input_widths_[p], row_begin,
                 row_end);
    offset += input_widths_[p];
  }
}

void Concat::backward_rows(LayerInputs /*inputs*/,
                           const tensor::Tensor& grad_output,
                           std::span<tensor::Tensor* const> grad_inputs,
                           std::size_t row_begin, std::size_t row_end) {
  std::size_t offset = 0;
  for (std::size_t p = 0; p < grad_inputs.size(); ++p) {
    if (grad_inputs[p] != nullptr) {
      copy_columns(grad_output, offset, *grad_inputs[p], 0, input_widths_[p],
                   row_begin, row_end);
    }
    offset += input_widths_[p];
  }
}

// ---- Slice -----------------------------------------------------------------

void Slice::setup(const std::vector<std::size_t>& input_widths,
                  util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(input_widths.size() == 1, "slice takes one parent");
  parent_width_ = input_widths[0];
  LTFB_CHECK_MSG(begin_ < end_ && end_ <= parent_width_,
                 "slice [" << begin_ << ", " << end_ << ") out of range for "
                           << parent_width_ << " features");
}

void Slice::forward_rows(LayerInputs inputs, std::size_t row_begin,
                         std::size_t row_end) {
  copy_columns(*inputs[0], begin_, output_, 0, end_ - begin_, row_begin,
               row_end);
}

void Slice::backward_rows(LayerInputs /*inputs*/,
                          const tensor::Tensor& grad_output,
                          std::span<tensor::Tensor* const> grad_inputs,
                          std::size_t row_begin, std::size_t row_end) {
  tensor::Tensor* grad_input = grad_inputs[0];
  if (grad_input == nullptr) return;
  // Features outside the slice take a zero gradient.
  std::fill(grad_input->raw() + row_begin * parent_width_,
            grad_input->raw() + row_end * parent_width_, 0.0f);
  copy_columns(grad_output, 0, *grad_input, begin_, end_ - begin_, row_begin,
               row_end);
}

}  // namespace ltfb::nn
