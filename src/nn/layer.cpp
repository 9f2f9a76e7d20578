#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/initializer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

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

}  // namespace

// ---- InputLayer ------------------------------------------------------------

void InputLayer::setup(const std::vector<std::size_t>& input_widths,
                       util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(input_widths.empty(), "input layers have no parents");
}

void InputLayer::forward(const std::vector<const tensor::Tensor*>& /*inputs*/,
                         bool /*training*/) {
  // The model writes batch data straight into output_; nothing to do.
}

void InputLayer::backward(
    const std::vector<const tensor::Tensor*>& /*inputs*/,
    const tensor::Tensor& /*grad_output*/,
    std::vector<tensor::Tensor>& grad_inputs) {
  grad_inputs.clear();
}

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

void FullyConnected::forward(const std::vector<const tensor::Tensor*>& inputs,
                             bool /*training*/) {
  const tensor::Tensor& x = *inputs[0];
  LTFB_CHECK_MSG(x.cols() == in_width_, "fully_connected input width "
                                            << x.cols() << " != "
                                            << in_width_);
  output_.resize({x.rows(), out_width_});
  // Bias and the fused activation both ride the gemm epilogue: one pass
  // over the output instead of up to three.
  tensor::Epilogue ep;
  ep.bias = has_bias_ ? weights_[1]->values().raw() : nullptr;
  ep.act = has_act_ ? to_epilogue(act_) : tensor::EpilogueAct::None;
  ep.leaky_slope = leaky_slope_;
  tensor::gemm(tensor::Op::None, tensor::Op::None, 1.0f, x,
               weights_[0]->values(), 0.0f, output_, ep);
}

void FullyConnected::backward(
    const std::vector<const tensor::Tensor*>& inputs,
    const tensor::Tensor& grad_output,
    std::vector<tensor::Tensor>& grad_inputs) {
  const tensor::Tensor& x = *inputs[0];
  // With a fused activation the incoming gradient is dL/dy; convert to
  // dL/dz (z = XW + b) first, exactly as a separate Activation layer's
  // backward would have.
  tensor::Tensor grad_z;
  const tensor::Tensor* gz = &grad_output;
  if (has_act_) {
    grad_z.resize(grad_output.shape());
    activation_backward_from_output(act_, leaky_slope_, output_.raw(),
                                    grad_output.raw(), grad_z.raw(),
                                    grad_output.size());
    gz = &grad_z;
  }
  // dW += X^T dZ (accumulate so multiple backward passes sum, as in LBANN).
  tensor::gemm(tensor::Op::Transpose, tensor::Op::None, 1.0f, x, *gz, 1.0f,
               weights_[0]->gradient());
  if (has_bias_) {
    tensor::Tensor col_sums({out_width_});
    tensor::column_sums(*gz, col_sums.data());
    tensor::axpy(1.0f, col_sums.data(), weights_[1]->gradient().data());
  }
  // dX = dZ W^T, unless the input is data that takes no gradient.
  if (!propagates_gradient()) {
    grad_inputs.clear();
    return;
  }
  grad_inputs.resize(1);
  grad_inputs[0].resize({x.rows(), in_width_});
  tensor::gemm(tensor::Op::None, tensor::Op::Transpose, 1.0f, *gz,
               weights_[0]->values(), 0.0f, grad_inputs[0]);
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

void Activation::forward(const std::vector<const tensor::Tensor*>& inputs,
                         bool /*training*/) {
  const tensor::Tensor& x = *inputs[0];
  output_.resize(x.shape());
  const float* xp = x.raw();
  float* yp = output_.raw();
  const std::size_t n = x.size();
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

void Activation::backward(
    const std::vector<const tensor::Tensor*>& /*inputs*/,
    const tensor::Tensor& grad_output,
    std::vector<tensor::Tensor>& grad_inputs) {
  grad_inputs.resize(1);
  grad_inputs[0].resize(grad_output.shape());
  // The output-based derivative is identical to the input-based one for
  // every kind (for relu/leaky, y > 0 iff x > 0), so the standalone layer
  // shares the fused-dense backward kernel.
  activation_backward_from_output(kind_, leaky_slope_, output_.raw(),
                                  grad_output.raw(), grad_inputs[0].raw(),
                                  grad_output.size());
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

void Dropout::forward(const std::vector<const tensor::Tensor*>& inputs,
                      bool training) {
  const tensor::Tensor& x = *inputs[0];
  output_.resize(x.shape());
  if (!training || drop_probability_ == 0.0f) {
    std::copy(x.data().begin(), x.data().end(), output_.data().begin());
    mask_.resize({0, 0});
    return;
  }
  mask_.resize(x.shape());
  const float keep = 1.0f - drop_probability_;
  const float inv_keep = 1.0f / keep;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float m = rng_.bernoulli(keep) ? inv_keep : 0.0f;
    mask_[i] = m;
    output_[i] = x[i] * m;
  }
}

void Dropout::backward(const std::vector<const tensor::Tensor*>& /*inputs*/,
                       const tensor::Tensor& grad_output,
                       std::vector<tensor::Tensor>& grad_inputs) {
  grad_inputs.resize(1);
  grad_inputs[0].resize(grad_output.shape());
  if (mask_.empty()) {  // eval-mode pass
    std::copy(grad_output.data().begin(), grad_output.data().end(),
              grad_inputs[0].data().begin());
    return;
  }
  LTFB_CHECK(mask_.same_shape(grad_output));
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_inputs[0][i] = grad_output[i] * mask_[i];
  }
}

// ---- Concat ----------------------------------------------------------------

void Concat::setup(const std::vector<std::size_t>& input_widths,
                   util::Rng& /*rng*/) {
  LTFB_CHECK_MSG(!input_widths.empty(), "concat needs at least one parent");
  input_widths_ = input_widths;
  width_ = 0;
  for (const auto w : input_widths_) width_ += w;
}

void Concat::forward(const std::vector<const tensor::Tensor*>& inputs,
                     bool /*training*/) {
  const std::size_t batch = inputs[0]->rows();
  output_.resize({batch, width_});
  for (std::size_t r = 0; r < batch; ++r) {
    float* out_row = output_.raw() + r * width_;
    std::size_t offset = 0;
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      LTFB_ASSERT(inputs[p]->rows() == batch);
      const auto row = inputs[p]->row(r);
      std::copy(row.begin(), row.end(), out_row + offset);
      offset += input_widths_[p];
    }
  }
}

void Concat::backward(const std::vector<const tensor::Tensor*>& inputs,
                      const tensor::Tensor& grad_output,
                      std::vector<tensor::Tensor>& grad_inputs) {
  const std::size_t batch = grad_output.rows();
  grad_inputs.resize(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    grad_inputs[p].resize({batch, input_widths_[p]});
  }
  for (std::size_t r = 0; r < batch; ++r) {
    const float* grad_row = grad_output.raw() + r * width_;
    std::size_t offset = 0;
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      std::copy_n(grad_row + offset, input_widths_[p],
                  grad_inputs[p].raw() + r * input_widths_[p]);
      offset += input_widths_[p];
    }
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

void Slice::forward(const std::vector<const tensor::Tensor*>& inputs,
                    bool /*training*/) {
  const tensor::Tensor& x = *inputs[0];
  const std::size_t batch = x.rows();
  const std::size_t w = end_ - begin_;
  output_.resize({batch, w});
  for (std::size_t r = 0; r < batch; ++r) {
    std::copy_n(x.raw() + r * parent_width_ + begin_, w,
                output_.raw() + r * w);
  }
}

void Slice::backward(const std::vector<const tensor::Tensor*>& inputs,
                     const tensor::Tensor& grad_output,
                     std::vector<tensor::Tensor>& grad_inputs) {
  const std::size_t batch = grad_output.rows();
  const std::size_t w = end_ - begin_;
  grad_inputs.resize(1);
  grad_inputs[0].resize(inputs[0]->shape());
  for (std::size_t r = 0; r < batch; ++r) {
    std::copy_n(grad_output.raw() + r * w, w,
                grad_inputs[0].raw() + r * parent_width_ + begin_);
  }
}

}  // namespace ltfb::nn
