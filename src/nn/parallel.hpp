// Data-parallel training hooks.
//
// Within a trainer, LBANN distributes the samples of each mini-batch across
// ranks and averages gradients with an all-reduce after back propagation.
// Two flavours live here:
//
//   * allreduce_gradients — the simple blocking path: flatten every
//     gradient into one buffer, Communicator::allreduce it over the trainer
//     communicator, scale by 1/ranks, scatter back.
//   * GradientBucketer — the trainer path: the Model::backward hook packs
//     each layer's gradients in hook (reverse-layer) order, and the
//     optimizer-step sync runs ONE ring all-reduce over the packed floats
//     under a deadline, with an optional half-precision wire. The paper's
//     Aluminum overlaps that ring with backprop; here the hook fires only
//     once a model's whole weight stage is done, so nothing is left to
//     overlap and the ring simply runs at the sync.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "nn/model.hpp"
#include "tensor/half.hpp"

namespace ltfb::nn {

/// On-the-wire encoding for gradient all-reduce payloads. The packed
/// gradients always accumulate in fp32 (ring reduction adds decoded fp32
/// values); reduced-precision dtypes only halve what each hop ships. Bf16
/// is the gradient-friendly choice: fp32's full exponent range, so no
/// loss-scale interplay with overflow on the wire.
enum class WireDtype { Fp32, Bf16, Fp16 };

const char* to_string(WireDtype dtype) noexcept;

/// Averages `model`'s accumulated gradients across all ranks of `comm`.
/// Every rank must call this with a structurally identical model.
void allreduce_gradients(Model& model, comm::Communicator& comm);

/// Broadcasts rank `root`'s weights to all ranks (initial weight sync and
/// post-tournament winner propagation within a trainer).
void broadcast_weights(Model& model, comm::Communicator& comm, int root = 0);

/// True when every rank's flattened weights are bit-identical. O(1)
/// traffic: each rank reduces a 64-bit FNV-1a hash of its weight bytes
/// (shipped as four exactly-representable 16-bit float pieces) under Min
/// and Max; identical weights ⇔ identical hashes up to the 2^-64 collision
/// odds of FNV — a consistency check, not a cryptographic proof.
bool weights_in_sync(Model& model, comm::Communicator& comm);

/// Hook-packed gradient all-reduce: one ring per sync group.
///
/// Usage (one instance per rank, over the trainer communicator):
///
///   GradientBucketer bucketer(comm);
///   model.set_backward_hook([&](Weights& w) {
///     bucketer.on_layer_backward(w); });
///   model.set_gradient_sync([&](const std::vector<nn::Model*>& ms) {
///     bucketer.finish(ms, deadline); });
///
/// Every rank must run a structurally identical model, so hooks fire in
/// the same order everywhere and all ranks pack identical layouts — the
/// collective correctness requirement. All calls must come from the rank's
/// own thread (the communicator single-thread contract).
///
/// The ring is the same reduce-scatter + all-gather as
/// Communicator::allreduce (same chunk table, step order and reduction),
/// so at the fp32 wire its result is bit-identical to that collective over
/// the packed floats. It is run on user-level messages instead because it
/// needs what the collective lacks: a deadline, a half-precision wire, and
/// messages that fault-injection drop schedules can address.
///
/// One payload circulates (DESIGN.md §10): a reduce-scatter step adds this
/// rank's chunk into the received partial sum in place and sends that same
/// buffer on, and an all-gather step copies the final chunk out and
/// forwards the buffer untouched. Sends move the buffer, so between rank
/// threads of one process a hop costs one pass over the chunk and no copy.
///
/// Fault behaviour: a peer dying mid-ring surfaces as ltfb::RankFailedError
/// from finish(); once finish()'s time budget is spent it throws
/// ltfb::TimeoutError instead of hanging when traffic is lost. The
/// bucketer is not reusable after either error (the trainer aborts the
/// round).
class GradientBucketer {
 public:
  /// Every rank must construct with the same wire dtype (enforced
  /// indirectly: a mismatch trips the payload-size check on the first
  /// exchange). The one-argument form reads wire_dtype_from_env().
  explicit GradientBucketer(comm::Communicator& comm);
  GradientBucketer(comm::Communicator& comm, WireDtype wire_dtype);

  GradientBucketer(const GradientBucketer&) = delete;
  GradientBucketer& operator=(const GradientBucketer&) = delete;

  /// LTFB_ALLREDUCE_DTYPE (fp32|bf16|fp16) when set; otherwise bf16 under
  /// LTFB_MIXED_PRECISION=1 and fp32 elsewhere.
  static WireDtype wire_dtype_from_env();

  /// Backward-hook entry: appends `w`'s gradient to the sync group's
  /// packed buffer. No communication.
  void on_layer_backward(Weights& w);

  /// Optimizer-step barrier: ring all-reduces everything packed since the
  /// last finish, scales by 1/ranks and scatters the averaged gradients
  /// back into the packed weights objects. `models` is the coverage
  /// contract — their summed parameter counts must equal what the hooks
  /// packed (catches a missing/doubled hook). `timeout` bounds the whole
  /// ring; the one-argument form allows 24 hours.
  void finish(const std::vector<Model*>& models);
  void finish(const std::vector<Model*>& models,
              std::chrono::milliseconds timeout);

  /// Always 0: the ring runs entirely inside finish(), after the backward
  /// pass that fed it, so no all-reduce time hides behind compute.
  /// ltfb_bench still reports it as allreduce.overlap_frac.
  double overlap_fraction() const noexcept { return 0.0; }

  /// Ring all-reduces run: one per finish() that had gradients to sync.
  std::uint64_t buckets_completed() const noexcept { return buckets_done_; }
  /// Logical bytes reduced (gradient floats * 4), independent of encoding.
  std::uint64_t bytes_reduced() const noexcept { return bytes_reduced_; }
  /// Payload bytes this rank actually put on the wire — what the wire
  /// dtype halves. The fig09 mixed-precision ablation gates on this.
  std::uint64_t wire_bytes_sent() const noexcept { return wire_bytes_; }
  WireDtype wire_dtype() const noexcept { return wire_dtype_; }

 private:
  /// Moves `payload` to the right neighbour and counts its wire bytes.
  void send_chunk(int tag, comm::Buffer payload);
  /// Receives the left neighbour's step-`step` payload within `budget` and
  /// checks that it holds `count` values in the wire dtype.
  comm::Buffer receive_chunk(int tag, int step, comm::Deadline budget,
                             std::size_t count);

  comm::Communicator& comm_;
  WireDtype wire_dtype_;
  std::vector<float> packed_;             // gradients in hook order
  std::vector<Weights*> packed_weights_;  // whose gradients, same order
  int tag_seq_ = 0;  // one tag per ring step; same sequence on all ranks

  std::uint64_t buckets_done_ = 0;
  std::uint64_t bytes_reduced_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

}  // namespace ltfb::nn
