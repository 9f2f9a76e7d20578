// DAG model: the LBANN "model" concept.
//
// A model is a directed acyclic graph of layers plus their weights. Layers
// are added in topological order (parents before children — enforced), so
// forward is a single sweep in insertion order and backward the reverse
// sweep, accumulating gradients where a layer output fans out to multiple
// children.
//
// Each pass runs on the compute team (util::ComputePool) as row shards of
// the batch: forward is one fork-join in which every shard sweeps its rows
// through every layer, and backward is two — the data gradients
// (activation backward and dX) by row shards, then every layer's weight
// gradients as one task list. The shard count follows from the team size
// and the batch rows alone, and a row's values never depend on its shard,
// so every team size gives the same bits.
//
// The flat weight view (flatten_weights / load_flat_weights) is the unit of
// LTFB model exchange and of data-parallel gradient all-reduce.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace ltfb::nn {

using LayerId = std::size_t;

/// A differentiable input receives dL/d(input) in backward(): composed
/// models chain gradients through it. A data input never does, so the
/// layers it feeds skip computing that gradient.
enum class InputKind { Differentiable, Data };

class Model {
 public:
  /// `seed` drives weight initialization and stochastic layers; two models
  /// built identically from the same seed are bit-identical.
  Model(std::string name, std::uint64_t seed);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  const std::string& name() const noexcept { return name_; }

  /// Adds a source layer of the given feature width. Mini-batch data is
  /// bound to input layers positionally in forward().
  LayerId add_input(std::size_t width,
                    InputKind kind = InputKind::Differentiable);

  /// Adds a layer whose parents are existing layer ids (all < the new id).
  LayerId add(std::unique_ptr<Layer> layer, std::vector<LayerId> parents);

  /// Shorthand for the ubiquitous FullyConnected + Activation pair.
  LayerId add_dense(LayerId parent, std::size_t width, ActivationKind act);

  /// Final FullyConnected without activation (regression head / logits).
  LayerId add_linear(LayerId parent, std::size_t width);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  const Layer& layer(LayerId id) const;

  /// Stamps a fresh optimizer instance onto every weights object. Call
  /// once after the graph is complete.
  void set_optimizer(const OptimizerFactory& factory);

  // -- execution -------------------------------------------------------------

  /// Runs the graph on one mini-batch; `inputs` bind positionally to the
  /// input layers (same order they were added). All inputs must share the
  /// batch (row) count.
  void forward(const std::vector<const tensor::Tensor*>& inputs,
               bool training = true);

  const tensor::Tensor& output(LayerId id) const;

  /// Clears gradient accumulators (weights and pending output grads).
  void zero_gradients();

  /// Registers dL/d(output of `id`); accumulated if called twice.
  void add_output_gradient(LayerId id, const tensor::Tensor& grad);

  /// Reverse sweep from all registered output gradients: the data
  /// gradients, then the weight gradients of every layer that received a
  /// gradient (accumulated into Weights::gradient()).
  void backward();

  /// Per-weights completion hook: once the weight gradients of the pass
  /// are final, `hook` fires with each weights object of every layer that
  /// received a gradient, in reverse-layer order. The gradient all-reduce
  /// (nn::GradientBucketer) packs from this seam. Only pass a hook on a
  /// model's FINAL backward call before its gradients are consumed: a
  /// gradient-accumulating second backward would fire the hook on partial
  /// sums.
  using BackwardHook = std::function<void(Weights&)>;
  void backward(const BackwardHook& hook);

  /// The data gradients alone: dL/d(input) for every differentiable input,
  /// bit for bit what backward() computes, for a pass whose weight
  /// gradients would be thrown away. No weight gradient is touched and no
  /// hook fires.
  void backward_inputs();

  /// dL/d(input i) after backward() — how composed models (e.g. the
  /// CycleGAN's decoder feeding gradient back into the forward model)
  /// chain gradients across component networks. Throws for a data input.
  const tensor::Tensor& input_gradient(std::size_t input_index) const;

  /// Optimizer update on every weights object: each optimizer opens its
  /// step, then the elementwise updates of all the model's weights run as
  /// one task list of fixed-size chunks on the compute team.
  void apply_optimizer_step();

  // -- weights ---------------------------------------------------------------

  std::vector<Weights*> weights() { return weight_ptrs_; }
  std::size_t parameter_count() const noexcept { return parameter_count_; }

  /// Serializes every parameter into one contiguous float vector (layer
  /// order, then weights order within the layer). The unit of LTFB
  /// generator exchange.
  std::vector<float> flatten_weights() const;
  void load_flat_weights(std::span<const float> flat);

  /// Same flattening for gradients (data-parallel all-reduce buffer).
  std::vector<float> flatten_gradients() const;
  void load_flat_gradients(std::span<const float> flat);

  /// Per-weights optimizer state, each entry length-prefixed so stateless
  /// and not-yet-stepped optimizers round-trip as zero-length entries. The
  /// checkpoint/restart companion of flatten_weights: both are needed for
  /// a bit-identical resume.
  std::vector<float> flatten_optimizer_state() const;
  void load_optimizer_state(std::span<const float> flat);

  util::Rng& rng() noexcept { return rng_; }

 private:
  struct Node {
    std::unique_ptr<Layer> layer;
    std::vector<LayerId> parents;
    // The parents' outputs; for an input layer, the batch bound to it by
    // the current forward().
    std::vector<const tensor::Tensor*> inputs;
    tensor::Tensor grad_accumulator;  // dL/d(output)
    bool has_grad = false;
    // Whether backward() delivers dL/d(output) here: false for data inputs
    // and for weightless layers fed only by them.
    bool takes_grad = true;
    // The plan of the current backward pass. in_pass: the layer runs.
    // grad_targets[p]: where it writes dL/d(parent p) — the parent's
    // accumulator when this is the first gradient to reach it, else
    // edge_grads[p], which is then added into the accumulator; null when
    // the parent takes none.
    bool in_pass = false;
    std::vector<tensor::Tensor*> grad_targets;
    std::vector<tensor::Tensor> edge_grads;
  };

  // One backward pass; weight_gradients = false is backward_inputs().
  void run_backward(bool weight_gradients, const BackwardHook& hook);

  std::string name_;
  util::Rng rng_;
  std::vector<Node> layers_;
  std::vector<LayerId> input_ids_;
  std::vector<Weights*> weight_ptrs_;
  std::size_t parameter_count_ = 0;
  // Rows of the batch the last forward() ran.
  std::size_t batch_rows_ = 0;
  // First optimizer-update chunk of each weights object (weight_ptrs_
  // order), then the total.
  std::vector<std::size_t> update_chunks_{0};
  // (layer, first task) of each layer with weight tasks in the current
  // backward pass.
  std::vector<std::pair<LayerId, std::size_t>> weight_stage_;
};

}  // namespace ltfb::nn
