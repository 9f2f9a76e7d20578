#include "nn/model.hpp"

#include <algorithm>

#include "tensor/ops.hpp"
#include "util/compute_pool.hpp"

namespace ltfb::nn {

namespace {

// Elements per optimizer-update task. Below two chunks' worth of
// parameters a model updates on the calling thread.
constexpr std::size_t kUpdateGrain = 4096;

// Rows per shard of a `rows`-row pass on a team of `team`: about two
// shards per team member, so a thread that finishes early can claim
// another, in whole 4-row register tiles. A team of one runs the batch as
// one shard.
std::size_t shard_rows(std::size_t rows, std::size_t team) {
  if (team <= 1 || rows == 0) return std::max<std::size_t>(rows, 1);
  constexpr std::size_t kTileRows = 4;
  const std::size_t per = (rows + 2 * team - 1) / (2 * team);
  return (per + kTileRows - 1) / kTileRows * kTileRows;
}

// Runs fn(row_begin, row_end) over the row shards of a `rows`-row pass as
// one fork-join on the compute team.
void for_row_shards(std::size_t rows,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  util::ComputePool& team = util::ComputePool::instance();
  team.parallel_ranges(rows, shard_rows(rows, team.size()), fn);
}

}  // namespace

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
  for (Weights* w : layer->weights()) {
    update_chunks_.push_back(update_chunks_.back() +
                             (w->size() + kUpdateGrain - 1) / kUpdateGrain);
  }
  Node node;
  node.layer = std::move(layer);
  node.parents = std::move(parents);
  node.takes_grad = takes_grad;
  if (node.parents.empty()) {
    node.inputs.assign(1, nullptr);  // the batch, bound by forward()
  }
  for (const LayerId parent : node.parents) {
    node.inputs.push_back(&layers_[parent].layer->output());
  }
  node.grad_targets.assign(node.parents.size(), nullptr);
  node.edge_grads.resize(node.parents.size());
  layers_.push_back(std::move(node));
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

void Model::forward(const std::vector<const tensor::Tensor*>& inputs,
                    bool training) {
  LTFB_CHECK_MSG(inputs.size() == input_ids_.size(),
                 "model " << name_ << " expects " << input_ids_.size()
                          << " inputs, got " << inputs.size());
  const std::size_t rows = inputs.empty() ? 0 : inputs[0]->rows();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const tensor::Tensor& in = *inputs[i];
    Node& node = layers_[input_ids_[i]];
    LTFB_CHECK_MSG(in.rank() == 2 &&
                       in.cols() == node.layer->output_width() &&
                       in.rows() == rows,
                   "input " << i << " has shape "
                            << tensor::shape_to_string(in.shape())
                            << ", expected [" << rows << ", "
                            << node.layer->output_width() << "]");
    node.inputs[0] = &in;
  }
  for (Node& node : layers_) node.layer->prepare_forward(rows, training);
  for_row_shards(rows, [this](std::size_t begin, std::size_t end) {
    for (Node& node : layers_) {
      node.layer->forward_rows(node.inputs, begin, end);
    }
  });
  batch_rows_ = rows;
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
    ensure_shape(node.grad_accumulator, grad.rows(), grad.cols());
    std::copy(grad.data().begin(), grad.data().end(),
              node.grad_accumulator.data().begin());
    node.has_grad = true;
  } else {
    tensor::axpy(1.0f, grad.data(), node.grad_accumulator.data());
  }
}

void Model::backward() { run_backward(true, BackwardHook{}); }

void Model::backward(const BackwardHook& hook) { run_backward(true, hook); }

void Model::backward_inputs() { run_backward(false, BackwardHook{}); }

void Model::run_backward(bool weight_gradients, const BackwardHook& hook) {
  const std::size_t rows = batch_rows_;
  // Plan the reverse sweep on the calling thread: which layers run, and
  // for every parent edge whether its gradient is the first to reach the
  // parent (written straight into the accumulator) or is added to one
  // already there — the order the serial sweep delivered them in. A layer
  // that passes no gradient on only has weight gradients to give, which a
  // data-only pass skips.
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Node& node = layers_[i];
    const bool propagates = node.layer->propagates_gradient();
    node.in_pass = node.has_grad && (weight_gradients || propagates);
    std::fill(node.grad_targets.begin(), node.grad_targets.end(), nullptr);
    if (!node.in_pass) continue;
    node.layer->prepare_backward(rows, weight_gradients);
    if (!propagates) continue;
    for (std::size_t p = 0; p < node.parents.size(); ++p) {
      Node& parent = layers_[node.parents[p]];
      if (!parent.takes_grad) continue;
      const std::size_t width = parent.layer->output_width();
      tensor::Tensor* target = &parent.grad_accumulator;
      if (parent.has_grad) target = &node.edge_grads[p];
      ensure_shape(*target, rows, width);
      node.grad_targets[p] = target;
      parent.has_grad = true;
    }
  }

  // The data gradients: every shard sweeps its rows back through the
  // layers, so a row's gradient reaches each parent in the serial order.
  for_row_shards(rows, [this](std::size_t begin, std::size_t end) {
    for (std::size_t i = layers_.size(); i-- > 0;) {
      Node& node = layers_[i];
      if (!node.in_pass) continue;
      node.layer->backward_rows(node.inputs, node.grad_accumulator,
                                node.grad_targets, begin, end);
      for (std::size_t p = 0; p < node.parents.size(); ++p) {
        if (node.grad_targets[p] != &node.edge_grads[p]) continue;
        tensor::Tensor& into = layers_[node.parents[p]].grad_accumulator;
        const std::size_t width = into.cols();
        tensor::axpy(1.0f,
                     node.edge_grads[p].data().subspan(begin * width,
                                                       (end - begin) * width),
                     into.data().subspan(begin * width, (end - begin) * width));
      }
    }
  });
  if (!weight_gradients) return;

  // The weight gradients of every layer that ran, as one task list.
  weight_stage_.clear();
  std::size_t tasks = 0;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (!layers_[i].in_pass) continue;
    const std::size_t count = layers_[i].layer->weight_tasks();
    if (count == 0) continue;
    weight_stage_.emplace_back(i, tasks);
    tasks += count;
  }
  util::ComputePool::instance().run_tasks(tasks, [this](std::size_t t) {
    // weight_stage_ lists first tasks in increasing order.
    const auto it = std::upper_bound(
        weight_stage_.begin(), weight_stage_.end(), t,
        [](std::size_t task, const std::pair<LayerId, std::size_t>& entry) {
          return task < entry.second;
        }) - 1;
    Node& node = layers_[it->first];
    node.layer->run_weight_task(t - it->second, node.inputs,
                                node.grad_accumulator);
  });

  if (hook) {
    for (std::size_t i = layers_.size(); i-- > 0;) {
      if (!layers_[i].in_pass) continue;
      for (Weights* w : layers_[i].layer->weights()) hook(*w);
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
  for (Weights* w : weight_ptrs_) {
    if (Optimizer* optimizer = w->optimizer()) optimizer->begin_step(w->size());
  }
  auto update_chunk = [this](std::size_t chunk) {
    const std::size_t w = static_cast<std::size_t>(
        std::upper_bound(update_chunks_.begin(), update_chunks_.end(), chunk) -
        update_chunks_.begin() - 1);
    Weights& weights = *weight_ptrs_[w];
    Optimizer* optimizer = weights.optimizer();
    if (optimizer == nullptr) return;  // frozen weights
    const std::size_t begin = (chunk - update_chunks_[w]) * kUpdateGrain;
    const std::size_t end = std::min(weights.size(), begin + kUpdateGrain);
    optimizer->update(weights.values().data(), weights.gradient().data(),
                      begin, end);
  };
  const std::size_t chunks = update_chunks_.back();
  if (parameter_count_ < 2 * kUpdateGrain) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) update_chunk(chunk);
  } else {
    util::ComputePool::instance().run_tasks(chunks, update_chunk);
  }
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
