#include "nn/model.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace ltfb::nn {

Model::Model(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed) {}

LayerId Model::add_input(std::size_t width, InputKind kind) {
  const LayerId id = add(std::make_unique<InputLayer>(width), {});
  layers_[id].takes_grad = kind == InputKind::Differentiable;
  input_ids_.push_back(id);
  return id;
}

LayerId Model::add(std::unique_ptr<Layer> layer, std::vector<LayerId> parents) {
  LTFB_CHECK(layer != nullptr);
  const LayerId id = layers_.size();
  std::vector<std::size_t> input_widths;
  input_widths.reserve(parents.size());
  bool parent_takes_grad = false;
  for (const LayerId parent : parents) {
    LTFB_CHECK_MSG(parent < id, "parent " << parent
                                          << " must precede layer " << id);
    input_widths.push_back(layers_[parent].layer->output_width());
    parent_takes_grad = parent_takes_grad || layers_[parent].takes_grad;
  }
  layer->setup(input_widths, rng_);
  layer->set_propagates_gradient(parent_takes_grad);
  for (Weights* w : layer->weights()) {
    weight_ptrs_.push_back(w);
    parameter_count_ += w->size();
  }
  const bool takes_grad = parent_takes_grad || !layer->weights().empty();
  layers_.push_back(
      Node{std::move(layer), std::move(parents), {}, false, takes_grad});
  return id;
}

LayerId Model::add_dense(LayerId parent, std::size_t width,
                         ActivationKind act) {
  const auto init = (act == ActivationKind::Relu ||
                     act == ActivationKind::LeakyRelu)
                        ? FullyConnected::Init::HeNormal
                        : FullyConnected::Init::GlorotUniform;
  // One fused layer (activation applied in the gemm epilogue) instead of a
  // FullyConnected + Activation pair: elementwise-identical results, one
  // fewer pass over the activations. Parameter order and the RNG draw
  // sequence are unchanged (Activation::setup consumed no randomness).
  return add(std::make_unique<FullyConnected>(width, true, init, act),
             {parent});
}

LayerId Model::add_linear(LayerId parent, std::size_t width) {
  return add(std::make_unique<FullyConnected>(width), {parent});
}

const Layer& Model::layer(LayerId id) const {
  LTFB_CHECK(id < layers_.size());
  return *layers_[id].layer;
}

void Model::set_optimizer(const OptimizerFactory& factory) {
  for (Weights* w : weight_ptrs_) {
    w->attach_optimizer(factory());
  }
}

std::vector<const tensor::Tensor*> Model::parent_outputs(
    const Node& node) const {
  std::vector<const tensor::Tensor*> outputs;
  outputs.reserve(node.parents.size());
  for (const LayerId parent : node.parents) {
    outputs.push_back(&layers_[parent].layer->output());
  }
  return outputs;
}

void Model::forward(const std::vector<const tensor::Tensor*>& inputs,
                    bool training) {
  LTFB_CHECK_MSG(inputs.size() == input_ids_.size(),
                 "model " << name_ << " expects " << input_ids_.size()
                          << " inputs, got " << inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const tensor::Tensor& in = *inputs[i];
    Layer& input_layer = *layers_[input_ids_[i]].layer;
    LTFB_CHECK_MSG(in.rank() == 2 && in.cols() == input_layer.output_width(),
                   "input " << i << " has shape "
                            << tensor::shape_to_string(in.shape())
                            << ", expected [*, "
                            << input_layer.output_width() << "]");
    input_layer.mutable_output().resize(in.shape());
    std::copy(in.data().begin(), in.data().end(),
              input_layer.mutable_output().data().begin());
  }
  for (auto& node : layers_) {
    const auto parents = parent_outputs(node);
    node.layer->forward(parents, training);
  }
}

const tensor::Tensor& Model::output(LayerId id) const {
  LTFB_CHECK(id < layers_.size());
  return layers_[id].layer->output();
}

void Model::zero_gradients() {
  for (Weights* w : weight_ptrs_) w->zero_gradient();
  for (auto& node : layers_) {
    node.has_grad = false;
  }
}

void Model::add_output_gradient(LayerId id, const tensor::Tensor& grad) {
  LTFB_CHECK(id < layers_.size());
  Node& node = layers_[id];
  LTFB_CHECK_MSG(grad.same_shape(node.layer->output()),
                 "gradient shape " << tensor::shape_to_string(grad.shape())
                                   << " != output shape of layer " << id);
  if (!node.has_grad) {
    node.grad_accumulator.resize(grad.shape());
    std::copy(grad.data().begin(), grad.data().end(),
              node.grad_accumulator.data().begin());
    node.has_grad = true;
  } else {
    tensor::axpy(1.0f, grad.data(), node.grad_accumulator.data());
  }
}

void Model::backward() { backward(BackwardHook{}); }

void Model::backward(const BackwardHook& hook) {
  std::vector<tensor::Tensor> grad_inputs;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Node& node = layers_[i];
    if (!node.has_grad) continue;
    const auto parents = parent_outputs(node);
    grad_inputs.clear();
    node.layer->backward(parents, node.grad_accumulator, grad_inputs);
    if (hook) {
      // This layer's weight gradients are final (only its own backward
      // writes them): hand them to the overlap seam before computing the
      // rest of the sweep.
      for (Weights* w : node.layer->weights()) hook(*w);
    }
    if (!node.layer->propagates_gradient()) continue;
    LTFB_CHECK(grad_inputs.size() == node.parents.size() ||
               node.parents.empty());
    for (std::size_t p = 0; p < node.parents.size(); ++p) {
      if (layers_[node.parents[p]].takes_grad) {
        add_output_gradient(node.parents[p], grad_inputs[p]);
      }
    }
  }
}

const tensor::Tensor& Model::input_gradient(std::size_t input_index) const {
  LTFB_CHECK(input_index < input_ids_.size());
  const Node& node = layers_[input_ids_[input_index]];
  LTFB_CHECK_MSG(node.takes_grad, "input " << input_index
                                           << " is a data input and takes "
                                              "no gradient");
  LTFB_CHECK_MSG(node.has_grad,
                 "input " << input_index
                          << " received no gradient; run backward() first");
  return node.grad_accumulator;
}

void Model::apply_optimizer_step() {
  for (Weights* w : weight_ptrs_) w->apply_step();
}

std::vector<float> Model::flatten_weights() const {
  std::vector<float> flat;
  flat.reserve(parameter_count_);
  for (const Weights* w : weight_ptrs_) {
    const auto data = w->values().data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void Model::load_flat_weights(std::span<const float> flat) {
  LTFB_CHECK_MSG(flat.size() == parameter_count_,
                 "flat weight size " << flat.size() << " != parameter count "
                                     << parameter_count_);
  std::size_t offset = 0;
  for (Weights* w : weight_ptrs_) {
    auto data = w->values().data();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                data.size(), data.begin());
    offset += data.size();
  }
}

std::vector<float> Model::flatten_gradients() const {
  std::vector<float> flat;
  flat.reserve(parameter_count_);
  for (const Weights* w : weight_ptrs_) {
    const auto data = w->gradient().data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void Model::load_flat_gradients(std::span<const float> flat) {
  LTFB_CHECK(flat.size() == parameter_count_);
  std::size_t offset = 0;
  for (Weights* w : weight_ptrs_) {
    auto data = w->gradient().data();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                data.size(), data.begin());
    offset += data.size();
  }
}

std::vector<float> Model::flatten_optimizer_state() const {
  // Encoding: per weights object, [entry_count, state...]. Counts are
  // exact as floats below 2^24 — far above any per-tensor state size here.
  std::vector<float> flat;
  for (const Weights* w : weight_ptrs_) {
    const Optimizer* optimizer = w->optimizer();
    const std::vector<float> state =
        (optimizer != nullptr) ? optimizer->serialize_state()
                               : std::vector<float>{};
    LTFB_CHECK_MSG(state.size() < (1u << 24),
                   "optimizer state too large to length-prefix: "
                       << state.size());
    flat.push_back(static_cast<float>(state.size()));
    flat.insert(flat.end(), state.begin(), state.end());
  }
  return flat;
}

void Model::load_optimizer_state(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Weights* w : weight_ptrs_) {
    LTFB_CHECK_MSG(offset < flat.size(),
                   "optimizer state underrun at offset " << offset);
    const auto count = static_cast<std::size_t>(flat[offset]);
    ++offset;
    LTFB_CHECK_MSG(offset + count <= flat.size(),
                   "optimizer state entry of " << count
                                               << " floats overruns buffer");
    Optimizer* optimizer = w->optimizer();
    LTFB_CHECK_MSG(optimizer != nullptr || count == 0,
                   "checkpoint has optimizer state for weights without an "
                   "attached optimizer");
    if (optimizer != nullptr) {
      optimizer->deserialize_state(flat.subspan(offset, count));
    }
    offset += count;
  }
  LTFB_CHECK_MSG(offset == flat.size(),
                 "optimizer state has " << flat.size() - offset
                                        << " trailing floats");
}

}  // namespace ltfb::nn
