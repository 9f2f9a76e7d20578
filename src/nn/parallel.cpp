#include "nn/parallel.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string>

#include "comm/serializer.hpp"
#include "nn/optimizer.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"

namespace ltfb::nn {
namespace {

// Gradient ring tags live in [1<<20, 1<<24): above the small hand-picked
// tags the rest of the tree uses, below the metric-aggregation tags, and
// far below the bit-62 internal-collective range the communicator reserves
// for itself. Every ring step takes the next tag of one sequence, which
// every rank runs identically (same syncs, same steps), so tags match
// everywhere; FIFO matching per (source, tag) makes eventual wrap-around
// reuse safe. Distinct tags per step matter under loss: a dropped chunk
// leaves its receiver waiting out the deadline instead of taking the next
// step's chunk in its place.
constexpr int kBucketTagBase = 1 << 20;
constexpr int kBucketTagRange = (1 << 24) - kBucketTagBase;

int ring_chunk(int index, int ranks) noexcept {
  return ((index % ranks) + ranks) % ranks;
}

tensor::HalfKind half_kind(WireDtype dtype) noexcept {
  return dtype == WireDtype::Fp16 ? tensor::HalfKind::Fp16
                                  : tensor::HalfKind::Bf16;
}

std::size_t wire_width(WireDtype dtype) noexcept {
  return dtype == WireDtype::Fp32 ? sizeof(float) : sizeof(std::uint16_t);
}

// The ring's payload kernels. A payload holds one chunk in the wire dtype
// as raw bytes; its floats and half values are read and written through
// memcpy-based lane loads (tensor::simd), never through a cast of the byte
// storage.

/// A fresh payload holding `chunk` in the wire dtype.
comm::Buffer encode_chunk(std::span<const float> chunk, WireDtype dtype) {
  if (dtype == WireDtype::Fp32) return comm::Serializer::pack_floats(chunk);
  comm::Buffer payload(chunk.size() * wire_width(dtype));
  tensor::encode_half(chunk, payload, half_kind(dtype));
  return payload;
}

/// One reduce hop in place: payload = payload + own, elementwise, which
/// IEEE addition makes bit for bit own + payload unless both are NaN.
/// `sum`, when not empty, also receives the values every receiver of the
/// payload decodes (the owner's copy; it may alias `own`).
void add_into(comm::Buffer& payload, std::span<const float> own,
              std::span<float> sum, WireDtype dtype) {
  if (dtype != WireDtype::Fp32) {
    tensor::add_into_half(payload, own, sum, half_kind(dtype));
    return;
  }
  const auto hop = [&payload, own, sum](auto lanes, std::size_t i) {
    using V = decltype(lanes);
    std::uint8_t* at = payload.data() + i * sizeof(float);
    const V total = V::load_bytes(at) + V::load(&own[i]);
    total.store_bytes(at);
    if (!sum.empty()) total.store(&sum[i]);
  };
  std::size_t i = 0;
  for (; i < tensor::simd::main_loop_bound(own.size());
       i += tensor::simd::kNativeWidth) {
    hop(tensor::simd::vf{}, i);
  }
  for (; i < own.size(); ++i) hop(tensor::simd::vec<1>{}, i);
}

/// Copies a payload's chunk out as floats.
void decode_chunk(const comm::Buffer& payload, std::span<float> out,
                  WireDtype dtype) {
  if (dtype != WireDtype::Fp32) {
    tensor::decode_half(payload, out, half_kind(dtype));
  } else if (!out.empty()) {
    std::memcpy(out.data(), payload.data(), payload.size());
  }
}

std::uint64_t fnv1a_append(std::uint64_t hash, float value) noexcept {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 32; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

void allreduce_gradients(Model& model, comm::Communicator& comm) {
  if (comm.size() == 1) return;
  std::vector<float> bucket = model.flatten_gradients();
  comm.allreduce(bucket, comm::ReduceOp::Sum);
  tensor::scale(1.0f / static_cast<float>(comm.size()),
                std::span<float>(bucket));
  model.load_flat_gradients(bucket);
}

void broadcast_weights(Model& model, comm::Communicator& comm, int root) {
  if (comm.size() == 1) return;
  std::vector<float> flat = model.flatten_weights();
  comm.broadcast(root, std::span<float>(flat));
  if (comm.rank() != root) {
    model.load_flat_weights(flat);
  }
}

bool weights_in_sync(Model& model, comm::Communicator& comm) {
  if (comm.size() == 1) return true;
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const Weights* w : model.weights()) {
    for (const float v : w->values().data()) {
      hash = fnv1a_append(hash, v);
    }
  }
  // Ship the hash as four 16-bit pieces: every value below 2^16 is exactly
  // representable as a float, so the Min/Max reductions are lossless.
  std::array<float, 4> pieces{};
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    pieces[i] = static_cast<float>((hash >> (16 * i)) & 0xffffu);
  }
  std::array<float, 4> max_copy = pieces;
  comm.allreduce(max_copy, comm::ReduceOp::Max);
  std::array<float, 4> min_copy = pieces;
  comm.allreduce(min_copy, comm::ReduceOp::Min);
  return max_copy == min_copy;
}

const char* to_string(WireDtype dtype) noexcept {
  switch (dtype) {
    case WireDtype::Fp32: return "fp32";
    case WireDtype::Bf16: return "bf16";
    case WireDtype::Fp16: return "fp16";
  }
  return "?";
}

GradientBucketer::GradientBucketer(comm::Communicator& comm)
    : GradientBucketer(comm, wire_dtype_from_env()) {}

GradientBucketer::GradientBucketer(comm::Communicator& comm,
                                   WireDtype wire_dtype)
    : comm_(comm), wire_dtype_(wire_dtype) {
  LTFB_CHECK_MSG(wire_dtype == WireDtype::Fp32 ||
                     wire_dtype == WireDtype::Bf16 ||
                     wire_dtype == WireDtype::Fp16,
                 "unknown gradient wire dtype "
                     << static_cast<int>(wire_dtype));
}

WireDtype GradientBucketer::wire_dtype_from_env() {
  const char* raw = std::getenv("LTFB_ALLREDUCE_DTYPE");
  if (raw == nullptr || *raw == '\0') {
    return mixed_precision_from_env() ? WireDtype::Bf16 : WireDtype::Fp32;
  }
  if (std::strcmp(raw, "fp32") == 0) return WireDtype::Fp32;
  if (std::strcmp(raw, "bf16") == 0) return WireDtype::Bf16;
  if (std::strcmp(raw, "fp16") == 0) return WireDtype::Fp16;
  LTFB_CHECK_MSG(false, "LTFB_ALLREDUCE_DTYPE='"
                            << raw << "' is not one of fp32|bf16|fp16");
  return WireDtype::Fp32;
}

void GradientBucketer::on_layer_backward(Weights& w) {
  if (comm_.size() == 1 || w.size() == 0) return;
  const auto grad = w.gradient().data();
  packed_.insert(packed_.end(), grad.begin(), grad.end());
  packed_weights_.push_back(&w);
}

void GradientBucketer::finish(const std::vector<Model*>& models) {
  finish(models, std::chrono::hours(24));
}

void GradientBucketer::finish(const std::vector<Model*>& models,
                              std::chrono::milliseconds timeout) {
  if (comm_.size() == 1) return;
  std::size_t expected = 0;
  for (const Model* model : models) {
    LTFB_CHECK(model != nullptr);
    expected += model->parameter_count();
  }
  LTFB_CHECK_MSG(packed_.size() == expected,
                 "gradient all-reduce packed "
                     << packed_.size() << " gradients but the sync covers "
                     << expected
                     << " parameters; backward hook missing or doubled");
  if (packed_.empty()) return;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const int ranks = comm_.size();
  const int rank = comm_.rank();

  // Ring chunk table: chunk i spans [offsets[i], offsets[i+1]). Short
  // groups leave trailing chunks empty — those steps still exchange
  // (empty) messages so the ring stays in lockstep.
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + packed_.size() / n +
                     (i < packed_.size() % n ? 1 : 0);
  }
  auto chunk = [&](int index) {
    const auto i = static_cast<std::size_t>(ring_chunk(index, ranks));
    return std::span<float>(packed_.data() + offsets[i],
                            offsets[i + 1] - offsets[i]);
  };

  // One payload circulates. Step s sends the payload to the right and
  // receives the next from the left. Reduce-scatter steps s in [0, p-1)
  // receive the partial sum of chunk (rank - s - 1) and add this rank's
  // own part into it, in place; the last of them completes chunk
  // (rank + 1), which this rank owns, so it also keeps the result. The
  // all-gather steps t = s - (p - 1) receive the final chunk (rank - t),
  // copy it out, and forward the payload unchanged. Only the copies differ
  // from packing every step afresh: message count, sizes, tags and order
  // are the same, re-encoding a decoded half value gives back its bits,
  // and the owner's quantized copy is decode(encode(sum)) either way.
  comm::Buffer payload = encode_chunk(chunk(rank), wire_dtype_);
  for (int step = 0; step < 2 * (ranks - 1); ++step) {
    const int tag = kBucketTagBase + tag_seq_;
    tag_seq_ = (tag_seq_ + 1) % kBucketTagRange;
    send_chunk(tag, std::move(payload));
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (budget.count() <= 0) {
      throw TimeoutError("gradient all-reduce spent its " +
                         std::to_string(timeout.count()) +
                         "ms budget before ring step " +
                         std::to_string(step) + " (tag " +
                         std::to_string(tag) + ")");
    }
    const bool reduce = step < ranks - 1;
    const std::span<float> target =
        reduce ? chunk(rank - step - 1) : chunk(rank - (step - (ranks - 1)));
    payload = receive_chunk(tag, step, budget, target.size());
    if (reduce) {
      const bool owner = step == ranks - 2;
      add_into(payload, target, owner ? target : std::span<float>(),
               wire_dtype_);
    } else {
      decode_chunk(payload, target, wire_dtype_);
    }
  }

  tensor::scale(1.0f / static_cast<float>(ranks), std::span<float>(packed_));
  std::size_t offset = 0;
  for (Weights* w : packed_weights_) {
    auto grad = w->gradient().data();
    std::copy_n(packed_.begin() + static_cast<std::ptrdiff_t>(offset),
                grad.size(), grad.begin());
    offset += grad.size();
  }
  ++buckets_done_;
  bytes_reduced_ += packed_.size() * sizeof(float);
  LTFB_COUNTER_ADD("nn/allreduce_buckets", 1);
  LTFB_COUNTER_ADD("nn/allreduce_bytes", packed_.size() * sizeof(float));
  packed_.clear();
  packed_weights_.clear();
}

void GradientBucketer::send_chunk(int tag, comm::Buffer payload) {
  wire_bytes_ += payload.size();
  LTFB_COUNTER_ADD("nn/allreduce_wire_bytes", payload.size());
  comm_.send(ring_chunk(comm_.rank() + 1, comm_.size()), tag,
             std::move(payload));
}

comm::Buffer GradientBucketer::receive_chunk(int tag, int step,
                                             comm::Deadline budget,
                                             std::size_t count) {
  comm::Buffer payload =
      comm_.recv(ring_chunk(comm_.rank() - 1, comm_.size()), tag, budget);
  LTFB_CHECK_MSG(payload.size() == count * wire_width(wire_dtype_),
                 "gradient ring tag " << tag << " step " << step
                                      << " received " << payload.size()
                                      << " bytes, expected " << count << " "
                                      << to_string(wire_dtype_) << " values");
  return payload;
}

}  // namespace ltfb::nn
