// Trainable parameter tensor with its gradient accumulator and optimizer.
//
// Mirrors LBANN's weights objects: a layer owns one Weights per parameter
// tensor; the model aggregates them for optimizer steps, flattening (LTFB
// model exchange) and gradient all-reduce (data parallelism).
#pragma once

#include <memory>
#include <string>

#include "nn/optimizer.hpp"
#include "tensor/tensor.hpp"

namespace ltfb::nn {

class Weights {
 public:
  Weights(std::string name, tensor::Shape shape)
      : name_(std::move(name)),
        values_(shape),
        gradient_(std::move(shape)) {}

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return values_.size(); }
  const tensor::Shape& shape() const noexcept { return values_.shape(); }

  tensor::Tensor& values() noexcept { return values_; }
  const tensor::Tensor& values() const noexcept { return values_; }
  tensor::Tensor& gradient() noexcept { return gradient_; }
  const tensor::Tensor& gradient() const noexcept { return gradient_; }

  void zero_gradient() { gradient_.zero(); }

  void attach_optimizer(std::unique_ptr<Optimizer> optimizer) {
    optimizer_ = std::move(optimizer);
  }
  Optimizer* optimizer() noexcept { return optimizer_.get(); }
  /// Null for frozen weights; Model::apply_optimizer_step skips them.
  const Optimizer* optimizer() const noexcept { return optimizer_.get(); }

 private:
  std::string name_;
  tensor::Tensor values_;
  tensor::Tensor gradient_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace ltfb::nn
