// Single-precision general matrix multiply.
//
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
// The kernel is cache-blocked with an inner micro-kernel the compiler can
// vectorise; it is the workhorse behind every fully-connected layer in
// src/nn. Correctness is checked against a naive reference in the tests
// and throughput is tracked in bench/micro_kernels.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace ltfb::tensor {

enum class Op { None, Transpose };

/// Activation applied by a fused gemm epilogue. Mirrors the activations the
/// nn layer zoo supports; lives at the tensor level so tensor never depends
/// on nn.
enum class EpilogueAct { None, Relu, LeakyRelu, Sigmoid, Tanh };

/// Post-gemm transform applied to each C macro-block while it is still hot
/// in cache: C(i,j) = act(C(i,j) + bias[j]). Saves the extra full passes
/// over activations that a separate bias-add + activation layer would make.
struct Epilogue {
  /// Per-column bias (length n, bias[j] added to every row); null = none.
  const float* bias = nullptr;
  EpilogueAct act = EpilogueAct::None;
  float leaky_slope = 0.01f;

  bool empty() const { return bias == nullptr && act == EpilogueAct::None; }
};

/// General matrix multiply on rank-2 tensors.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n.
void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c);

/// gemm with a fused epilogue: C = act(alpha*op(A)*op(B) + beta*C + bias).
/// The epilogue runs per macro-block on the still-hot C tile; it is applied
/// even when the multiply itself degenerates (alpha == 0 or k == 0), so the
/// result is always exactly gemm-then-epilogue.
void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c, const Epilogue& epilogue);

/// Rows per macro-block of the blocked kernel. A row range that starts at a
/// multiple of it covers the same macro-blocks gemm() would.
inline constexpr std::size_t kGemmRowBlock = 32;

/// op(B) packed once for many row-range products (gemm_rows): each
/// 128-column block of op(B) becomes one k x (block width rounded up to 16)
/// row-major panel with zero padding, the layout the micro-kernel reads. A
/// layer packs its weights once per model pass and every row shard of the
/// pass reads the same panel. Storage only grows, so re-packing an operand
/// of an unchanged shape allocates nothing.
class PackedB {
 public:
  PackedB() = default;
  PackedB(const PackedB&) = delete;  // base_ points into storage_
  PackedB& operator=(const PackedB&) = delete;
  PackedB(PackedB&&) = default;
  PackedB& operator=(PackedB&&) = default;

  /// Packs op(b), a k x n operand.
  void pack(Op op, const Tensor& b);
  /// Shapes the panel for a k x n operand that pack_rows() will fill.
  void reshape(std::size_t k, std::size_t n);
  /// Packs rows [row_begin, row_end) of the k x n row-major tensor `b` into
  /// a panel shaped by reshape(k, n). Disjoint row ranges may be packed
  /// concurrently.
  void pack_rows(const Tensor& b, std::size_t row_begin, std::size_t row_end);

  std::size_t k() const noexcept { return k_; }
  std::size_t n() const noexcept { return n_; }
  /// The panel of column block `j_block` (row stride: its padded width).
  const float* block(std::size_t j_block) const noexcept;

 private:
  float* mutable_block(std::size_t j_block) noexcept;

  std::vector<float> storage_;
  float* base_ = nullptr;  // 64-byte aligned start inside storage_
  std::size_t k_ = 0;
  std::size_t n_ = 0;
};

/// Rows [row_begin, row_end) of C = act(alpha*op(A)*op(B) + beta*C + bias)
/// against a pre-packed op(B). Each C element sums its k terms exactly as
/// gemm() sums them, so any split of C's rows into ranges, run in any
/// order or concurrently, gives gemm()'s bits. Runs on the calling thread.
void gemm_rows(Op op_a, float alpha, const Tensor& a, const PackedB& b,
               float beta, Tensor& c, std::size_t row_begin,
               std::size_t row_end, const Epilogue& epilogue = {});

/// Convenience: C = A * B (both untransposed), overwriting C.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// Naive triple-loop reference used by the test suite to validate the
/// blocked kernel.
void gemm_reference(Op op_a, Op op_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c);

/// FLOP count of a gemm with the given logical dimensions (2*m*n*k).
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace ltfb::tensor
