#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.hpp"
#include "util/error.hpp"

namespace ltfb::nn {

namespace {

/// softplus(z) = log(1 + e^z) computed without overflow.
inline double softplus(double z) {
  return z > 0.0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
}

inline double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

double mae_loss(const tensor::Tensor& pred, const tensor::Tensor& target,
                tensor::Tensor* grad) {
  LTFB_CHECK_MSG(pred.same_shape(target), "mae_loss shape mismatch");
  const std::size_t n = pred.size();
  LTFB_CHECK(n > 0);
  const double inv_n = 1.0 / static_cast<double>(n);
  const float* p = pred.raw();
  const float* t = target.raw();
  if (grad != nullptr) {
    // sign(pred - target) / n in its own branch-free vector pass. The float
    // constants are exactly what float(±1.0 * inv_n) rounds to, and the
    // ordered compares give 0 for ties and NaN, as the sign of the double
    // difference does.
    grad->resize(pred.shape());
    float* g = grad->raw();
    const float pos = static_cast<float>(inv_n);
    const float neg = -pos;
    using tensor::simd::vf;
    constexpr std::size_t kW = tensor::simd::kNativeWidth;
    const vf vpos = vf::broadcast(pos);
    const vf vneg = vf::broadcast(neg);
    const std::size_t ve = tensor::simd::main_loop_bound(n);
    for (std::size_t i = 0; i < ve; i += kW) {
      const vf vp = vf::load(p + i);
      const vf vt = vf::load(t + i);
      vf::select_gt(vp, vt, vpos, vf::select_gt(vt, vp, vneg, vf::zero()))
          .store(g + i);
    }
    for (std::size_t i = ve; i < n; ++i) {
      g[i] = p[i] > t[i] ? pos : (p[i] < t[i] ? neg : 0.0f);
    }
  }
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    loss += std::abs(static_cast<double>(p[i]) - static_cast<double>(t[i]));
  }
  return loss * inv_n;
}

double mse_loss(const tensor::Tensor& pred, const tensor::Tensor& target,
                tensor::Tensor* grad) {
  LTFB_CHECK_MSG(pred.same_shape(target), "mse_loss shape mismatch");
  const std::size_t n = pred.size();
  LTFB_CHECK(n > 0);
  if (grad != nullptr) grad->resize(pred.shape());
  const double inv_n = 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(pred[i]) - static_cast<double>(target[i]);
    loss += d * d;
    if (grad != nullptr) {
      (*grad)[i] = static_cast<float>(2.0 * d * inv_n);
    }
  }
  return loss * inv_n;
}

double bce_with_logits(const tensor::Tensor& logits, float label,
                       tensor::Tensor* grad) {
  LTFB_CHECK(label == 0.0f || label == 1.0f);
  const std::size_t n = logits.size();
  LTFB_CHECK(n > 0);
  if (grad != nullptr) grad->resize(logits.shape());
  const double inv_n = 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = static_cast<double>(logits[i]);
    loss += softplus(z) - static_cast<double>(label) * z;
    if (grad != nullptr) {
      (*grad)[i] = static_cast<float>((sigmoid(z) - label) * inv_n);
    }
  }
  return loss * inv_n;
}

double bce_with_logits(const tensor::Tensor& logits,
                       const tensor::Tensor& labels, tensor::Tensor* grad) {
  LTFB_CHECK_MSG(logits.same_shape(labels), "bce shape mismatch");
  const std::size_t n = logits.size();
  LTFB_CHECK(n > 0);
  if (grad != nullptr) grad->resize(logits.shape());
  const double inv_n = 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = static_cast<double>(logits[i]);
    const double y = static_cast<double>(labels[i]);
    loss += softplus(z) - y * z;
    if (grad != nullptr) {
      (*grad)[i] = static_cast<float>((sigmoid(z) - y) * inv_n);
    }
  }
  return loss * inv_n;
}

double softmax_cross_entropy(const tensor::Tensor& logits,
                             std::span<const int> labels,
                             tensor::Tensor* grad) {
  LTFB_CHECK(logits.rank() == 2);
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  LTFB_CHECK_MSG(labels.size() == batch, "label count mismatch");
  if (grad != nullptr) grad->resize(logits.shape());
  const double inv_b = 1.0 / static_cast<double>(batch);
  double loss = 0.0;
  std::vector<double> probs(classes);
  for (std::size_t r = 0; r < batch; ++r) {
    const int label = labels[r];
    LTFB_CHECK_MSG(label >= 0 && static_cast<std::size_t>(label) < classes,
                   "label " << label << " out of range");
    // Stable softmax: shift by the row max.
    const float* row = logits.raw() + r * classes;
    double row_max = row[0];
    for (std::size_t c = 1; c < classes; ++c) {
      row_max = std::max(row_max, static_cast<double>(row[c]));
    }
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      probs[c] = std::exp(static_cast<double>(row[c]) - row_max);
      denom += probs[c];
    }
    loss -= std::log(probs[static_cast<std::size_t>(label)] / denom);
    if (grad != nullptr) {
      for (std::size_t c = 0; c < classes; ++c) {
        const double p = probs[c] / denom;
        const double target =
            (c == static_cast<std::size_t>(label)) ? 1.0 : 0.0;
        (*grad)[r * classes + c] = static_cast<float>((p - target) * inv_b);
      }
    }
  }
  return loss * inv_b;
}

double classification_accuracy(const tensor::Tensor& logits,
                               std::span<const int> labels) {
  LTFB_CHECK(logits.rank() == 2 && labels.size() == logits.rows());
  const std::size_t classes = logits.cols();
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.raw() + r * classes;
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (static_cast<int>(best) == labels[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace ltfb::nn
