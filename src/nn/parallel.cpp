#include "nn/parallel.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/optimizer.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/ops.hpp"
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

  // Reduce-scatter steps s in [0, p-1) send chunk (rank - s) and add into
  // chunk (rank - s - 1); all-gather steps t = s - (p - 1) send chunk
  // (rank + 1 - t) and overwrite chunk (rank - t).
  for (int step = 0; step < 2 * (ranks - 1); ++step) {
    const bool reduce = step < ranks - 1;
    const int t = step - (ranks - 1);
    const int tag = kBucketTagBase + tag_seq_;
    tag_seq_ = (tag_seq_ + 1) % kBucketTagRange;
    send_chunk(tag, reduce ? chunk(rank - step) : chunk(rank + 1 - t),
               step == ranks - 1);
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (budget.count() <= 0) {
      throw TimeoutError("gradient all-reduce spent its " +
                         std::to_string(timeout.count()) +
                         "ms budget before ring step " +
                         std::to_string(step) + " (tag " +
                         std::to_string(tag) + ")");
    }
    receive_chunk(tag, step, budget,
                  reduce ? chunk(rank - step - 1) : chunk(rank - t), reduce);
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

void GradientBucketer::send_chunk(int tag, std::span<float> chunk,
                                  bool owner) {
  const int right = ring_chunk(comm_.rank() + 1, comm_.size());
  if (wire_dtype_ == WireDtype::Fp32) {
    comm_.send(right, tag, std::span<const float>(chunk));
    wire_bytes_ += chunk.size() * sizeof(float);
    LTFB_COUNTER_ADD("nn/allreduce_wire_bytes", chunk.size() * sizeof(float));
    return;
  }
  const tensor::HalfKind kind = half_kind(wire_dtype_);
  if (owner) {
    // This rank owns the fully-reduced chunk, which every peer will only
    // ever see through the half encoding. Quantize the owner's own copy in
    // place so all ranks converge on the identical half-representable
    // values (later forwards then re-encode losslessly).
    for (float& value : chunk) value = tensor::quantize(value, kind);
  }
  half_scratch_.resize(chunk.size());
  tensor::encode_half(chunk, half_scratch_, kind);
  comm::Buffer payload(chunk.size() * sizeof(std::uint16_t));
  std::memcpy(payload.data(), half_scratch_.data(), payload.size());
  comm_.send(right, tag, payload);
  wire_bytes_ += payload.size();
  LTFB_COUNTER_ADD("nn/allreduce_wire_bytes", payload.size());
}

void GradientBucketer::receive_chunk(int tag, int step, comm::Deadline budget,
                                     std::span<float> chunk, bool reduce) {
  const int left = ring_chunk(comm_.rank() - 1, comm_.size());
  const comm::Buffer payload = comm_.recv(left, tag, budget);
  std::vector<float> incoming;
  if (wire_dtype_ == WireDtype::Fp32) {
    incoming = comm::Deserializer::unpack_floats(payload);
  } else {
    LTFB_CHECK_MSG(payload.size() % sizeof(std::uint16_t) == 0,
                   "half-precision gradient payload of " << payload.size()
                                                         << " bytes is odd");
    const std::size_t count = payload.size() / sizeof(std::uint16_t);
    half_scratch_.resize(count);
    std::memcpy(half_scratch_.data(), payload.data(), payload.size());
    incoming.resize(count);
    tensor::decode_half(half_scratch_, incoming, half_kind(wire_dtype_));
  }
  LTFB_CHECK_MSG(incoming.size() == chunk.size(),
                 "gradient ring tag " << tag << " step " << step
                                      << " received " << incoming.size()
                                      << " floats, expected " << chunk.size());
  if (reduce) {
    tensor::axpy(1.0f, incoming, chunk);
  } else {
    std::copy(incoming.begin(), incoming.end(), chunk.begin());
  }
}

}  // namespace ltfb::nn
