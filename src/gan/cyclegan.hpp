// CycleGAN surrogate model for ICF experiments (Sec. II-D, Fig. 2).
//
// Five fully-connected component networks:
//
//   encoder   E : R^{15+D}  -> R^20   multimodal autoencoder (outputs -> latent)
//   decoder   Dec : R^20    -> R^{15+D}
//   forward   F : R^5       -> R^20   the surrogate (params -> latent)
//   inverse   G : R^20      -> R^5    self-consistency inverse model
//   disc      D : R^20      -> logit  adversarial critic on the latent space
//
// and the paper's three consistency conditions:
//   * internal consistency — Dec(F(x)) predicts all output modalities
//     jointly, trained with mean absolute error (surrogate fidelity loss);
//   * physical consistency — D is trained adversarially to distinguish
//     encoded real outputs E(y) from predicted latents F(x);
//   * self consistency — G(F(x)) ~ x with mean absolute error (cycle loss).
//
// The autoencoder is trained with an MAE reconstruction loss ("a priori" in
// the paper; here it can be pretrained and/or co-trained). Training uses
// Adam at lr 1e-3 and mini-batch 128 by default — the paper's settings.
//
// LTFB-for-GANs contract (Sec. III-C): generator_weights() exposes
// everything EXCEPT the discriminator (E, Dec, F, G) as one flat vector —
// the unit of tournament exchange — while the discriminator stays local to
// its trainer ("a student educated by multiple teachers").
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <vector>

#include "data/data_reader.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace ltfb::gan {

struct CycleGanConfig {
  std::size_t input_width = 5;
  std::size_t scalar_width = 15;
  std::size_t image_width = 0;
  std::size_t latent_width = 20;

  std::vector<std::size_t> encoder_hidden = {128, 64};
  std::vector<std::size_t> decoder_hidden = {64, 128};
  std::vector<std::size_t> forward_hidden = {32, 64};
  std::vector<std::size_t> inverse_hidden = {32};
  std::vector<std::size_t> discriminator_hidden = {32, 16};

  /// Paper settings: Adam, initial learning rate 1e-3.
  float learning_rate = 1e-3f;
  float lambda_fidelity = 1.0f;      // surrogate fidelity (MAE)
  float lambda_adversarial = 0.05f;  // physical consistency (BCE)
  float lambda_cycle = 1.0f;         // self consistency (MAE)
  /// Latent consistency: F(x) is regressed onto E(y) — the paper's forward
  /// model maps into the latent space the autoencoder defined a priori.
  /// Also the glue that makes G(E(y)) inversion work: G learns on F's
  /// latents, so F and E must agree.
  float lambda_latent = 0.5f;

  /// Mixed-precision training: loss gradients are multiplied by a dynamic
  /// power-of-two scale S before backward (so small gradients survive the
  /// bf16 all-reduce wire encoding), every optimizer is wrapped in a
  /// loss-scaling decorator that divides S back out exactly, and any
  /// non-finite gradient skips the whole phase group's update while S
  /// backs off. Because S is a power of two, the fp32 math trajectory is
  /// bit-identical to unscaled training until a gradient actually
  /// overflows or the wire dtype quantizes. Defaults to the
  /// LTFB_MIXED_PRECISION environment toggle.
  bool mixed_precision = nn::mixed_precision_from_env();

  std::size_t output_width() const noexcept {
    return scalar_width + image_width;
  }
};

/// Per-step training diagnostics.
struct StepMetrics {
  double reconstruction_loss = 0.0;  // autoencoder MAE
  double fidelity_loss = 0.0;        // MAE(Dec(F(x)), y)
  double adversarial_loss = 0.0;     // generator-side BCE
  double cycle_loss = 0.0;           // MAE(G(F(x)), x)
  double latent_loss = 0.0;          // MAE(F(x), E(y))
  double discriminator_loss = 0.0;   // critic BCE (real + fake)
};

/// Validation metrics; `total` is the paper's tournament/validation metric
/// (forward + inverse loss — lower is better).
struct EvalMetrics {
  double forward_loss = 0.0;   // MAE(Dec(F(x)), y)
  double inverse_loss = 0.0;   // MAE(G(F(x)), x)
  double reconstruction_loss = 0.0;
  double discriminator_accuracy = 0.0;  // on real-vs-predicted latents
  /// Generator-side BCE against the local critic — the Fig. 6 "evaluate
  /// exchanged generators against the local discriminator" signal.
  double generator_adversarial = 0.0;
  double total() const noexcept { return forward_loss + inverse_loss; }
};

class CycleGan {
 public:
  CycleGan(CycleGanConfig config, std::uint64_t seed);

  const CycleGanConfig& config() const noexcept { return config_; }

  /// One autoencoder-only update (the "a priori" pretraining phase).
  double pretrain_autoencoder_step(const data::Batch& batch);

  /// One full training step: autoencoder update, discriminator update,
  /// then the generator update through all three consistency losses.
  StepMetrics train_step(const data::Batch& batch);

  /// Evaluation on a batch (no parameter updates).
  EvalMetrics evaluate(const data::Batch& batch);

  /// Dec(F(x)): predicted output bundle [B, scalar+image] for raw inputs.
  tensor::Tensor predict_outputs(const tensor::Tensor& inputs);

  /// G(F(x)): round-trip through latent space back to parameters.
  tensor::Tensor cycle_inputs(const tensor::Tensor& inputs);

  /// G(E(y)): inferred input parameters from observed outputs — the
  /// "robust model inversion" use-case in the paper's Sec. II-A.
  tensor::Tensor invert_outputs(const tensor::Tensor& outputs);

  // -- LTFB exchange ----------------------------------------------------------

  /// Everything except the discriminator, flattened (E, Dec, F, G order).
  std::vector<float> generator_weights() const;
  void load_generator_weights(std::span<const float> flat);
  std::size_t generator_parameter_count() const noexcept;

  /// Discriminator weights — exchanged only in the full-model ablation.
  std::vector<float> discriminator_weights() const;
  void load_discriminator_weights(std::span<const float> flat);

  /// Accumulated optimizer state across all five component networks, in
  /// component order (encoder, decoder, forward, inverse, discriminator).
  /// Checkpointing weights without this state is NOT resume-identical:
  /// Adam's moments restart from zero and training trajectories diverge.
  std::vector<float> optimizer_state() const;
  void load_optimizer_state(std::span<const float> flat);

  std::size_t parameter_count() const noexcept;

  /// Full-model checkpoint (generator bundle + discriminator) on disk.
  /// load_checkpoint requires an identically configured model. `dtype`
  /// selects the stored weight encoding (nn::save_weights versioning);
  /// loads accept any supported version regardless of this model's config.
  void save_checkpoint(const std::filesystem::path& path,
                       nn::WeightsDtype dtype = nn::WeightsDtype::Fp32) const;
  void load_checkpoint(const std::filesystem::path& path);

  /// Current learning rate / in-place change across every optimizer —
  /// used by the PBT-style hyperparameter exploration (LtfbConfig).
  float learning_rate() const noexcept { return config_.learning_rate; }
  void set_learning_rate(float lr);

  /// Component access for tests and data-parallel gradient hooks.
  nn::Model& encoder() noexcept { return encoder_; }
  nn::Model& decoder() noexcept { return decoder_; }
  nn::Model& forward_model() noexcept { return forward_; }
  nn::Model& inverse_model() noexcept { return inverse_; }
  nn::Model& discriminator() noexcept { return discriminator_; }

  /// All five component models, for uniform iteration (gradient
  /// all-reduce across a trainer's ranks).
  std::vector<nn::Model*> components();

  /// Data-parallel hook: invoked with the models whose gradients are about
  /// to be consumed, immediately before each optimizer step inside
  /// train_step / pretrain_autoencoder_step. A trainer's ranks install an
  /// all-reduce here (see nn::allreduce_gradients); all ranks then see the
  /// same averaged gradients and stay weight-synchronized.
  using GradientSync = std::function<void(const std::vector<nn::Model*>&)>;
  void set_gradient_sync(GradientSync sync) { sync_ = std::move(sync); }

  /// Gradient hand-off seam: fires per weights object at the end of the
  /// FINAL backward pass of each model that the following GradientSync
  /// covers (nn::Model::backward(hook) semantics), so nn::GradientBucketer
  /// can pack each layer's gradients for the sync's one ring all-reduce.
  /// Data-only passes (the generator phase's decoder/discriminator passes)
  /// and accumulating first passes (the discriminator's real-batch pass)
  /// never see the hook.
  using BackwardHook = nn::Model::BackwardHook;
  void set_backward_hook(BackwardHook hook) {
    backward_hook_ = std::move(hook);
  }

  /// The shared loss-scale state when config.mixed_precision is set;
  /// nullptr otherwise. Exposed for tests and telemetry.
  const std::shared_ptr<nn::LossScaleController>& loss_scale() const noexcept {
    return loss_scale_;
  }

 private:
  /// Multiplies a loss gradient by the current scale S (no-op in fp32
  /// mode). Applied to every loss-seam gradient of a phase group, so the
  /// accumulated weight gradients are exactly S x their fp32 values.
  void scale_loss_grad(tensor::Tensor& grad);
  /// Scans the (post-sync, final) weight gradients of a phase group for
  /// overflow. Runs after the gradient all-reduce, so every rank sees the
  /// same averaged values and reaches the same skip decision.
  void observe_gradients(const std::vector<nn::Model*>& models);

  CycleGanConfig config_;
  nn::Model encoder_;
  nn::Model decoder_;
  nn::Model forward_;
  nn::Model inverse_;
  nn::Model discriminator_;
  nn::LayerId encoder_out_, decoder_out_, forward_out_, inverse_out_,
      disc_out_;
  GradientSync sync_;
  BackwardHook backward_hook_;
  std::shared_ptr<nn::LossScaleController> loss_scale_;
};

}  // namespace ltfb::gan
