#include "gan/cyclegan.hpp"

#include <cmath>

#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace ltfb::gan {

namespace {

/// Builds an MLP trunk: input -> hidden (LeakyReLU) -> linear head.
nn::LayerId build_mlp(nn::Model& model, std::size_t input_width,
                      nn::InputKind input_kind,
                      const std::vector<std::size_t>& hidden,
                      std::size_t output_width) {
  nn::LayerId cursor = model.add_input(input_width, input_kind);
  for (const std::size_t width : hidden) {
    cursor = model.add_dense(cursor, width, nn::ActivationKind::LeakyRelu);
  }
  return model.add_linear(cursor, output_width);
}

}  // namespace

CycleGan::CycleGan(CycleGanConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      encoder_("encoder", util::derive_seed(seed, "encoder")),
      decoder_("decoder", util::derive_seed(seed, "decoder")),
      forward_("forward", util::derive_seed(seed, "forward")),
      inverse_("inverse", util::derive_seed(seed, "inverse")),
      discriminator_("discriminator", util::derive_seed(seed, "disc")) {
  LTFB_CHECK_MSG(config_.output_width() > 0, "output width must be positive");
  LTFB_CHECK(config_.latent_width > 0 && config_.input_width > 0);

  // E(y) and F(x) read the batch itself: their inputs are data, so their
  // backward skips the input-gradient GEMM. The other three read latents
  // and pass gradient back into E or F.
  using nn::InputKind;
  encoder_out_ = build_mlp(encoder_, config_.output_width(), InputKind::Data,
                           config_.encoder_hidden, config_.latent_width);
  decoder_out_ = build_mlp(decoder_, config_.latent_width,
                           InputKind::Differentiable, config_.decoder_hidden,
                           config_.output_width());
  forward_out_ = build_mlp(forward_, config_.input_width, InputKind::Data,
                           config_.forward_hidden, config_.latent_width);
  inverse_out_ = build_mlp(inverse_, config_.latent_width,
                           InputKind::Differentiable, config_.inverse_hidden,
                           config_.input_width);
  disc_out_ = build_mlp(discriminator_, config_.latent_width,
                        InputKind::Differentiable,
                        config_.discriminator_hidden, 1);

  nn::OptimizerFactory adam = nn::make_adam_factory(config_.learning_rate);
  if (config_.mixed_precision) {
    loss_scale_ = std::make_shared<nn::LossScaleController>();
    adam = nn::make_loss_scaling_factory(std::move(adam), loss_scale_);
  }
  encoder_.set_optimizer(adam);
  decoder_.set_optimizer(adam);
  forward_.set_optimizer(adam);
  inverse_.set_optimizer(adam);
  discriminator_.set_optimizer(adam);
}

void CycleGan::scale_loss_grad(tensor::Tensor& grad) {
  if (loss_scale_) tensor::scale(loss_scale_->scale(), grad.data());
}

void CycleGan::observe_gradients(const std::vector<nn::Model*>& models) {
  if (!loss_scale_) return;
  for (nn::Model* model : models) {
    for (nn::Weights* weights : model->weights()) {
      loss_scale_->observe(weights->gradient().data());
    }
  }
}

std::vector<nn::Model*> CycleGan::components() {
  return {&encoder_, &decoder_, &forward_, &inverse_, &discriminator_};
}

double CycleGan::pretrain_autoencoder_step(const data::Batch& batch) {
  // E(y) -> Dec -> reconstruction, MAE loss, joint E/Dec update.
  encoder_.zero_gradients();
  decoder_.zero_gradients();
  if (loss_scale_) loss_scale_->begin_step();
  encoder_.forward({&batch.outputs}, /*training=*/true);
  decoder_.forward({&encoder_.output(encoder_out_)}, true);
  tensor::Tensor grad;
  const double loss =
      nn::mae_loss(decoder_.output(decoder_out_), batch.outputs, &grad);
  scale_loss_grad(grad);
  decoder_.add_output_gradient(decoder_out_, grad);
  decoder_.backward(backward_hook_);
  encoder_.add_output_gradient(encoder_out_, decoder_.input_gradient(0));
  encoder_.backward(backward_hook_);
  if (sync_) sync_({&encoder_, &decoder_});
  observe_gradients({&encoder_, &decoder_});
  encoder_.apply_optimizer_step();
  decoder_.apply_optimizer_step();
  if (loss_scale_) loss_scale_->end_step();
  return loss;
}

StepMetrics CycleGan::train_step(const data::Batch& batch) {
  StepMetrics metrics;

  // ---- phase 1: autoencoder (internal-consistency substrate) --------------
  metrics.reconstruction_loss = pretrain_autoencoder_step(batch);

  // ---- phase 2: discriminator ----------------------------------------------
  // Real latents: E(y) (treated as constants — no gradient into E).
  encoder_.forward({&batch.outputs}, /*training=*/false);
  const tensor::Tensor real_latent = encoder_.output(encoder_out_);
  forward_.forward({&batch.inputs}, /*training=*/false);
  const tensor::Tensor fake_latent = forward_.output(forward_out_);

  discriminator_.zero_gradients();
  if (loss_scale_) loss_scale_->begin_step();
  tensor::Tensor d_grad;
  discriminator_.forward({&real_latent}, true);
  double d_loss =
      nn::bce_with_logits(discriminator_.output(disc_out_), 1.0f, &d_grad);
  scale_loss_grad(d_grad);
  discriminator_.add_output_gradient(disc_out_, d_grad);
  discriminator_.backward();

  discriminator_.forward({&fake_latent}, true);
  d_loss +=
      nn::bce_with_logits(discriminator_.output(disc_out_), 0.0f, &d_grad);
  scale_loss_grad(d_grad);
  discriminator_.add_output_gradient(disc_out_, d_grad);
  // Second, accumulating backward: only now are the critic's gradients
  // final, so only this pass carries the backward hook.
  discriminator_.backward(backward_hook_);
  if (sync_) sync_({&discriminator_});
  observe_gradients({&discriminator_});
  discriminator_.apply_optimizer_step();
  if (loss_scale_) loss_scale_->end_step();
  metrics.discriminator_loss = 0.5 * d_loss;

  // ---- phase 3: generator (forward + inverse) -------------------------------
  // Dec and D only carry gradient back into F here: their backward passes
  // compute input gradients alone, since their weights do not step in
  // this phase and the next phase to step them zeroes their gradients
  // first.
  forward_.zero_gradients();
  inverse_.zero_gradients();
  decoder_.zero_gradients();
  discriminator_.zero_gradients();
  if (loss_scale_) loss_scale_->begin_step();

  forward_.forward({&batch.inputs}, true);
  const tensor::Tensor& z = forward_.output(forward_out_);

  // (a) surrogate fidelity: MAE(Dec(F(x)), y), gradient through Dec into F.
  decoder_.forward({&z}, true);
  tensor::Tensor fid_grad;
  metrics.fidelity_loss =
      nn::mae_loss(decoder_.output(decoder_out_), batch.outputs, &fid_grad);
  tensor::scale(config_.lambda_fidelity, fid_grad.data());
  scale_loss_grad(fid_grad);
  decoder_.add_output_gradient(decoder_out_, fid_grad);
  decoder_.backward_inputs();
  forward_.add_output_gradient(forward_out_, decoder_.input_gradient(0));

  // (b) physical consistency: fool the critic — BCE(D(F(x)), real).
  discriminator_.forward({&z}, true);
  tensor::Tensor adv_grad;
  metrics.adversarial_loss = nn::bce_with_logits(
      discriminator_.output(disc_out_), 1.0f, &adv_grad);
  tensor::scale(config_.lambda_adversarial, adv_grad.data());
  scale_loss_grad(adv_grad);
  discriminator_.add_output_gradient(disc_out_, adv_grad);
  discriminator_.backward_inputs();
  forward_.add_output_gradient(forward_out_, discriminator_.input_gradient(0));

  // (c) latent consistency: pin F's latents to the autoencoder's latent
  // space (E(y) treated as constant — its pass was eval-mode in phase 2).
  if (config_.lambda_latent > 0.0f) {
    tensor::Tensor lat_grad;
    metrics.latent_loss = nn::mae_loss(z, real_latent, &lat_grad);
    tensor::scale(config_.lambda_latent, lat_grad.data());
    scale_loss_grad(lat_grad);
    forward_.add_output_gradient(forward_out_, lat_grad);
  }

  // (d) self consistency: MAE(G(F(x)), x), gradient through G into F.
  inverse_.forward({&z}, true);
  tensor::Tensor cyc_grad;
  metrics.cycle_loss =
      nn::mae_loss(inverse_.output(inverse_out_), batch.inputs, &cyc_grad);
  tensor::scale(config_.lambda_cycle, cyc_grad.data());
  scale_loss_grad(cyc_grad);
  inverse_.add_output_gradient(inverse_out_, cyc_grad);
  inverse_.backward(backward_hook_);
  forward_.add_output_gradient(forward_out_, inverse_.input_gradient(0));

  forward_.backward(backward_hook_);
  if (sync_) sync_({&forward_, &inverse_});
  observe_gradients({&forward_, &inverse_});
  forward_.apply_optimizer_step();
  inverse_.apply_optimizer_step();
  if (loss_scale_) loss_scale_->end_step();
  return metrics;
}

EvalMetrics CycleGan::evaluate(const data::Batch& batch) {
  EvalMetrics metrics;

  forward_.forward({&batch.inputs}, /*training=*/false);
  const tensor::Tensor& z = forward_.output(forward_out_);

  decoder_.forward({&z}, false);
  metrics.forward_loss =
      nn::mae_loss(decoder_.output(decoder_out_), batch.outputs, nullptr);

  inverse_.forward({&z}, false);
  metrics.inverse_loss =
      nn::mae_loss(inverse_.output(inverse_out_), batch.inputs, nullptr);

  encoder_.forward({&batch.outputs}, false);
  const tensor::Tensor real_latent = encoder_.output(encoder_out_);
  decoder_.forward({&real_latent}, false);
  metrics.reconstruction_loss =
      nn::mae_loss(decoder_.output(decoder_out_), batch.outputs, nullptr);

  // Critic accuracy: real latents scored positive, predicted negative.
  std::size_t correct = 0;
  discriminator_.forward({&real_latent}, false);
  const tensor::Tensor real_logits = discriminator_.output(disc_out_);
  for (std::size_t i = 0; i < real_logits.size(); ++i) {
    if (real_logits[i] > 0.0f) ++correct;
  }
  discriminator_.forward({&z}, false);
  const tensor::Tensor& fake_logits = discriminator_.output(disc_out_);
  for (std::size_t i = 0; i < fake_logits.size(); ++i) {
    if (fake_logits[i] <= 0.0f) ++correct;
  }
  metrics.discriminator_accuracy =
      static_cast<double>(correct) /
      static_cast<double>(real_logits.size() + fake_logits.size());
  metrics.generator_adversarial =
      nn::bce_with_logits(fake_logits, 1.0f, nullptr);
  return metrics;
}

tensor::Tensor CycleGan::predict_outputs(const tensor::Tensor& inputs) {
  forward_.forward({&inputs}, false);
  decoder_.forward({&forward_.output(forward_out_)}, false);
  return decoder_.output(decoder_out_);
}

tensor::Tensor CycleGan::cycle_inputs(const tensor::Tensor& inputs) {
  forward_.forward({&inputs}, false);
  inverse_.forward({&forward_.output(forward_out_)}, false);
  return inverse_.output(inverse_out_);
}

tensor::Tensor CycleGan::invert_outputs(const tensor::Tensor& outputs) {
  encoder_.forward({&outputs}, false);
  inverse_.forward({&encoder_.output(encoder_out_)}, false);
  return inverse_.output(inverse_out_);
}

std::vector<float> CycleGan::generator_weights() const {
  std::vector<float> flat;
  flat.reserve(generator_parameter_count());
  for (const nn::Model* model :
       {&encoder_, &decoder_, &forward_, &inverse_}) {
    const auto part = model->flatten_weights();
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

void CycleGan::load_generator_weights(std::span<const float> flat) {
  LTFB_CHECK_MSG(flat.size() == generator_parameter_count(),
                 "generator weight size mismatch: " << flat.size() << " vs "
                     << generator_parameter_count());
  std::size_t offset = 0;
  for (nn::Model* model : {&encoder_, &decoder_, &forward_, &inverse_}) {
    model->load_flat_weights(flat.subspan(offset, model->parameter_count()));
    offset += model->parameter_count();
  }
}

std::size_t CycleGan::generator_parameter_count() const noexcept {
  return encoder_.parameter_count() + decoder_.parameter_count() +
         forward_.parameter_count() + inverse_.parameter_count();
}

std::vector<float> CycleGan::discriminator_weights() const {
  return discriminator_.flatten_weights();
}

void CycleGan::load_discriminator_weights(std::span<const float> flat) {
  discriminator_.load_flat_weights(flat);
}

std::size_t CycleGan::parameter_count() const noexcept {
  return generator_parameter_count() + discriminator_.parameter_count();
}

std::vector<float> CycleGan::optimizer_state() const {
  // Each component's blob is length-prefixed: state size depends on how
  // many steps each optimizer has taken, so it is not derivable from the
  // architecture alone.
  std::vector<float> flat;
  for (const nn::Model* model :
       {&encoder_, &decoder_, &forward_, &inverse_, &discriminator_}) {
    const std::vector<float> part = model->flatten_optimizer_state();
    LTFB_CHECK_MSG(part.size() < (1u << 24),
                   "component optimizer state too large: " << part.size());
    flat.push_back(static_cast<float>(part.size()));
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

void CycleGan::load_optimizer_state(std::span<const float> flat) {
  std::size_t offset = 0;
  for (nn::Model* model :
       {&encoder_, &decoder_, &forward_, &inverse_, &discriminator_}) {
    LTFB_CHECK_MSG(offset < flat.size(),
                   "cyclegan optimizer state truncated at offset " << offset);
    const auto count = static_cast<std::size_t>(flat[offset]);
    ++offset;
    LTFB_CHECK_MSG(offset + count <= flat.size(),
                   "cyclegan optimizer state entry of "
                       << count << " floats overruns buffer");
    model->load_optimizer_state(flat.subspan(offset, count));
    offset += count;
  }
  LTFB_CHECK_MSG(offset == flat.size(),
                 "cyclegan optimizer state has trailing floats");
}

void CycleGan::set_learning_rate(float lr) {
  LTFB_CHECK_MSG(lr > 0.0f, "learning rate must be positive");
  config_.learning_rate = lr;
  for (nn::Model* component : components()) {
    for (nn::Weights* weights : component->weights()) {
      if (weights->optimizer() != nullptr) {
        weights->optimizer()->set_learning_rate(lr);
      }
    }
  }
}

void CycleGan::save_checkpoint(const std::filesystem::path& path,
                               nn::WeightsDtype dtype) const {
  std::vector<float> flat = generator_weights();
  const auto disc = discriminator_weights();
  flat.insert(flat.end(), disc.begin(), disc.end());
  nn::save_weights(path, "cyclegan", flat, dtype);
}

void CycleGan::load_checkpoint(const std::filesystem::path& path) {
  std::string name;
  const std::vector<float> flat = nn::load_weights(path, &name);
  LTFB_CHECK_MSG(name == "cyclegan",
                 "checkpoint '" << name << "' is not a CycleGAN");
  LTFB_CHECK_MSG(flat.size() == parameter_count(),
                 "checkpoint parameter count mismatch");
  const std::size_t gen = generator_parameter_count();
  load_generator_weights(std::span<const float>(flat).subspan(0, gen));
  load_discriminator_weights(std::span<const float>(flat).subspan(gen));
}

}  // namespace ltfb::gan
