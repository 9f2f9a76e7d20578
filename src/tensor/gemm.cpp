#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/compute_pool.hpp"

// Restrict-qualified pointers let the compiler prove the packed A/B blocks
// and the C tile never alias, so the micro-kernel's loads of the packed
// panels need no reload after its stores to C.
#define LTFB_GEMM_RESTRICT __restrict

namespace ltfb::tensor {

namespace {

struct Dims {
  std::size_t m, n, k;
};

Dims check_dims(Op op_a, Op op_b, const Tensor& a, const Tensor& b,
                const Tensor& c) {
  LTFB_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                 "gemm requires rank-2 tensors");
  const std::size_t m = (op_a == Op::None) ? a.rows() : a.cols();
  const std::size_t ka = (op_a == Op::None) ? a.cols() : a.rows();
  const std::size_t kb = (op_b == Op::None) ? b.rows() : b.cols();
  const std::size_t n = (op_b == Op::None) ? b.cols() : b.rows();
  LTFB_CHECK_MSG(ka == kb, "gemm inner dimension mismatch: "
                               << ka << " vs " << kb);
  LTFB_CHECK_MSG(c.rows() == m && c.cols() == n,
                 "gemm output shape mismatch: got "
                     << shape_to_string(c.shape()) << ", want [" << m << ", "
                     << n << "]");
  return {m, n, ka};
}

// Cache blocking: an A block (kBlockM x kBlockK) plus a B block
// (kBlockK x kBlockN) stay resident in L2 while the register tiles sweep.
// 32-row macro-blocks give a batch-128 layer four tasks, one per thread of a
// 4-wide team. kBlockK is NOT a tuning knob: each C element sums its k terms
// block by block, so the k-block size fixes the summation order.
constexpr std::size_t kBlockM = kGemmRowBlock;
constexpr std::size_t kBlockN = 128;
constexpr std::size_t kBlockK = 128;

// Register tile: 4 rows of A against 16 columns of B, accumulated in local
// vectors the micro-kernel indexes only with compile-time constants.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
static_assert(kBlockM % kMr == 0 && kBlockN % kNr == 0,
              "macro-blocks must hold whole padded register tiles");

constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Below this many multiply-adds (2*m*n*k FLOPs / 2), dispatching to the
// pool costs more than the kernel itself: run the block loop inline.
constexpr std::size_t kParallelMnkThreshold = 1u << 18;

// Per-thread A pack buffer — hoisted out of the call frame so every team
// thread reuses its own warm, cache-aligned copy instead of re-touching
// fresh stack pages per call.
alignas(64) thread_local std::array<float, kBlockM * kBlockK> tl_abuf;

// The op(B) column block a thread is working through: all its k-panels,
// stacked into one k x round_up(nb, kNr) row-major panel. It stays packed
// while the tasks the thread claims walk that column block's row blocks.
// The tag is the gemm call that packed it, never an operand address: the
// weights behind one address change between calls.
struct ThreadPanel {
  std::vector<float> storage;
  float* panel = nullptr;  // 64-byte aligned start inside storage
  std::uint64_t call = 0;  // 0: nothing packed yet
  std::size_t j_block = 0;
};
thread_local ThreadPanel tl_packed_b;

// Grows `storage` to hold `floats` floats starting on a 64-byte line and
// returns that start; the kNr floats of slack make room for the alignment.
float* aligned_panel(std::vector<float>& storage, float* current,
                     std::size_t floats) {
  if (current != nullptr && storage.size() >= floats + kNr) return current;
  storage.resize(floats + kNr);
  void* start = storage.data();
  std::size_t space = storage.size() * sizeof(float);
  return static_cast<float*>(
      std::align(64, floats * sizeof(float), start, space));
}

// Numbers gemm calls for the PackedB tags; starts at 1.
std::atomic<std::uint64_t> g_gemm_calls{0};

// Packs op(A)'s (i0..i0+mb) x (k0..k0+kb) block row-major into `buf`,
// zero rows padding it to whole kMr-row tiles, and folds alpha into the
// packed values (one multiply per element instead of one per use).
void pack_a(Op op, const Tensor& a, float alpha, std::size_t i0,
            std::size_t mb, std::size_t k0, std::size_t kb, float* buf) {
  const std::size_t lda = a.cols();
  if (op == Op::None) {
    for (std::size_t i = 0; i < mb; ++i) {
      const float* src = a.raw() + (i0 + i) * lda + k0;
      std::copy_n(src, kb, buf + i * kb);
    }
  } else {
    for (std::size_t i = 0; i < mb; ++i) {
      for (std::size_t k = 0; k < kb; ++k) {
        buf[i * kb + k] = a.raw()[(k0 + k) * lda + (i0 + i)];
      }
    }
  }
  if (alpha != 1.0f) {
    for (std::size_t i = 0; i < mb * kb; ++i) buf[i] *= alpha;
  }
  std::fill(buf + mb * kb, buf + round_up(mb, kMr) * kb, 0.0f);
}

// Packs rows [k_begin, k_end) of op(B)'s (0..k) x (j0..j0+nb) column block
// row-major into `buf` with row stride ldb_packed = nb rounded up to whole
// kNr-column tiles, zero-filling the padding columns. The k-panel of
// k-block k0 is then the ldb_packed-strided panel starting at row k0.
void pack_b(Op op, const Tensor& b, std::size_t k_begin, std::size_t k_end,
            std::size_t j0, std::size_t nb, std::size_t ldb_packed,
            float* buf) {
  const std::size_t ldb = b.cols();
  for (std::size_t kk = k_begin; kk < k_end; ++kk) {
    float* dst = buf + kk * ldb_packed;
    if (op == Op::None) {
      std::copy_n(b.raw() + kk * ldb + j0, nb, dst);
    } else {
      for (std::size_t j = 0; j < nb; ++j) {
        dst[j] = b.raw()[(j0 + j) * ldb + kk];
      }
    }
    std::fill(dst + nb, dst + ldb_packed, 0.0f);
  }
}

// Register-tile vector geometry: kNr columns hold kNv native vectors.
constexpr std::size_t kW = simd::kNativeWidth;
static_assert(kNr % kW == 0,
              "register tile width must be a multiple of the vector width");
constexpr std::size_t kNv = kNr / kW;

// Calls f(i) for i = 0, 1, ..., N-1 over one dimension of the register
// tile. At vector widths the loop is unrolled by construction rather than
// by compiler heuristic: each i is a std::integral_constant, so every
// accumulator index is a compile-time constant. At width 1 the tile is 64
// scalar accumulators, more than a register file holds, and unrolled they
// spill; a plain loop lets the compiler vectorize across the tile's columns
// instead.
template <std::size_t N, typename F>
inline void tile_loop(F&& f) {
  if constexpr (kW == 1) {
    for (std::size_t i = 0; i < N; ++i) f(i);
  } else {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (f(std::integral_constant<std::size_t, I>{}), ...);
    }(std::make_index_sequence<N>{});
  }
}

// The one micro-kernel: a kMr x kNr register tile of kNv vector
// accumulators per A row, updated with a broadcast-A multiply-add against
// the packed B row, then added into C once. At vector widths every
// accumulator index is a compile-time constant, which is what lets the
// compiler keep the whole tile in registers (at avx2: 8 ymm accumulators,
// and each k step is 2 loads, 4 broadcasts and 8 FMAs). Edge tiles run it
// too, on the zero-padded panels, so every C element sums its k terms in
// one order whatever tile covers it. At width 1 this expands to exactly the
// scalar accumulation loop the pre-SIMD kernel ran (same expression, same
// per-element order), which is the bit-identity anchor the scalar build is
// held to.
void micro_kernel_full(const float* LTFB_GEMM_RESTRICT a,
                       const float* LTFB_GEMM_RESTRICT b, std::size_t kb,
                       std::size_t ldb, float* LTFB_GEMM_RESTRICT c,
                       std::size_t ldc) {
  using simd::vf;
  vf acc[kMr][kNv];
  tile_loop<kMr>([&](auto r) {
    tile_loop<kNv>([&](auto col) { acc[r][col] = vf::zero(); });
  });
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* LTFB_GEMM_RESTRICT brow = b + kk * ldb;
    vf bv[kNv];
    tile_loop<kNv>([&](auto col) { bv[col] = vf::load(brow + col * kW); });
    tile_loop<kMr>([&](auto r) {
      const vf av = vf::broadcast(a[r * kb + kk]);
      tile_loop<kNv>([&](auto col) {
        acc[r][col] = acc[r][col].mul_add(av, bv[col]);
      });
    });
  }
  tile_loop<kMr>([&](auto r) {
    tile_loop<kNv>([&](auto col) {
      float* ct = c + r * ldc + col * kW;
      (vf::load(ct) + acc[r][col]).store(ct);
    });
  });
}

// Applies the fused epilogue to C's (i0..i0+mb) x (j0..j0+nb) block:
// C(i,j) = act(C(i,j) + bias[j]). Purely elementwise, so it preserves the
// kernel's bit-identity contract at any pool size. Relu/LeakyRelu run on
// the vector path with the exact scalar predicate (x > 0 select, not max);
// sigmoid/tanh stay scalar — libm transcendentals, same as the activation
// layers.
void apply_epilogue(float* LTFB_GEMM_RESTRICT cp, std::size_t ldc,
                    std::size_t i0, std::size_t mb, std::size_t j0,
                    std::size_t nb, const Epilogue& ep) {
  using simd::vf;
  for (std::size_t i = 0; i < mb; ++i) {
    float* LTFB_GEMM_RESTRICT row = cp + (i0 + i) * ldc + j0;
    const float* LTFB_GEMM_RESTRICT bias = ep.bias ? ep.bias + j0 : nullptr;
    switch (ep.act) {
      case EpilogueAct::Sigmoid:
        for (std::size_t j = 0; j < nb; ++j) {
          const float x = bias ? row[j] + bias[j] : row[j];
          row[j] = 1.0f / (1.0f + std::exp(-x));
        }
        break;
      case EpilogueAct::Tanh:
        for (std::size_t j = 0; j < nb; ++j) {
          const float x = bias ? row[j] + bias[j] : row[j];
          row[j] = std::tanh(x);
        }
        break;
      default: {
        const std::size_t vb = simd::main_loop_bound(nb);
        const vf slope = vf::broadcast(ep.leaky_slope);
        for (std::size_t j = 0; j < vb; j += kW) {
          vf x = vf::load(row + j);
          if (bias) x += vf::load(bias + j);
          if (ep.act == EpilogueAct::Relu) {
            x = vf::select_gt_zero(x, x, vf::zero());
          } else if (ep.act == EpilogueAct::LeakyRelu) {
            x = vf::select_gt_zero(x, x, x * slope);
          }
          x.store(row + j);
        }
        for (std::size_t j = vb; j < nb; ++j) {
          float x = bias ? row[j] + bias[j] : row[j];
          if (ep.act == EpilogueAct::Relu) {
            x = x > 0.0f ? x : 0.0f;
          } else if (ep.act == EpilogueAct::LeakyRelu) {
            x = x > 0.0f ? x : ep.leaky_slope * x;
          }
          row[j] = x;
        }
      }
    }
  }
}

// C's (i0..i0+mb) x (j0..j0+nb) macro-block += alpha * op(A) * op(B), with
// op(B)'s column block packed in `bpanel` (row stride ldb_packed), then the
// fused epilogue. The k0 loop runs sequentially here, so each C element
// accumulates its k terms in one fixed order wherever the block runs.
void macro_block(Op op_a, const Tensor& a, float alpha, std::size_t k,
                 const float* bpanel, std::size_t ldb_packed, float* cp,
                 std::size_t ldc, std::size_t i0, std::size_t mb,
                 std::size_t j0, std::size_t nb, const Epilogue& epilogue) {
  float* const abuf = tl_abuf.data();
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, k - k0);
    pack_a(op_a, a, alpha, i0, mb, k0, kb, abuf);
    const float* const bk = bpanel + k0 * ldb_packed;
    for (std::size_t i = 0; i < mb; i += kMr) {
      const std::size_t mr = std::min(kMr, mb - i);
      for (std::size_t j = 0; j < nb; j += kNr) {
        const std::size_t nr = std::min(kNr, nb - j);
        const float* ap = abuf + i * kb;
        const float* bp = bk + j;
        float* ctile = cp + (i0 + i) * ldc + (j0 + j);
        if (mr == kMr && nr == kNr) {
          micro_kernel_full(ap, bp, kb, ldb_packed, ctile, ldc);
          continue;
        }
        // Edge tile: the full kernel on the padded panels into a zeroed
        // scratch tile, whose in-range part is then added into C — the
        // same single add per k-block a full tile makes.
        alignas(64) float edge[kMr * kNr] = {};
        micro_kernel_full(ap, bp, kb, ldb_packed, edge, kNr);
        for (std::size_t r = 0; r < mr; ++r) {
          for (std::size_t col = 0; col < nr; ++col) {
            ctile[r * ldc + col] += edge[r * kNr + col];
          }
        }
      }
    }
  }
  // Fused epilogue: the macro-block's rows are still hot in cache here,
  // so bias + activation cost one read-modify-write instead of the extra
  // full passes separate layers would make.
  if (!epilogue.empty()) apply_epilogue(cp, ldc, i0, mb, j0, nb, epilogue);
}

// Scales C's rows [row_begin, row_begin + rows) by beta up front.
void scale_rows(float beta, float* cp, std::size_t n, std::size_t row_begin,
                std::size_t rows) {
  float* const first = cp + row_begin * n;
  if (beta == 0.0f) {
    std::fill_n(first, rows * n, 0.0f);
  } else if (beta != 1.0f) {
    scale(beta, std::span<float>(first, rows * n));
  }
}

}  // namespace

void PackedB::reshape(std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  const std::size_t full_blocks = n / kBlockN;
  const std::size_t floats =
      (full_blocks * kBlockN + round_up(n % kBlockN, kNr)) * k;
  base_ = aligned_panel(storage_, base_, floats);
}

float* PackedB::mutable_block(std::size_t j_block) noexcept {
  return base_ + j_block * kBlockN * k_;
}

const float* PackedB::block(std::size_t j_block) const noexcept {
  return base_ + j_block * kBlockN * k_;
}

void PackedB::pack(Op op, const Tensor& b) {
  LTFB_CHECK_MSG(b.rank() == 2, "PackedB::pack requires a rank-2 tensor");
  const std::size_t k = (op == Op::None) ? b.rows() : b.cols();
  const std::size_t n = (op == Op::None) ? b.cols() : b.rows();
  reshape(k, n);
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t nb = std::min(kBlockN, n - j0);
    pack_b(op, b, 0, k, j0, nb, round_up(nb, kNr),
           mutable_block(j0 / kBlockN));
  }
}

void PackedB::pack_rows(const Tensor& b, std::size_t row_begin,
                        std::size_t row_end) {
  LTFB_CHECK_MSG(b.rank() == 2 && b.rows() == k_ && b.cols() == n_ &&
                     row_begin <= row_end && row_end <= k_,
                 "PackedB::pack_rows: operand " << shape_to_string(b.shape())
                     << " rows [" << row_begin << ", " << row_end
                     << ") do not fit a " << k_ << " x " << n_ << " panel");
  for (std::size_t j0 = 0; j0 < n_; j0 += kBlockN) {
    const std::size_t nb = std::min(kBlockN, n_ - j0);
    pack_b(Op::None, b, row_begin, row_end, j0, nb, round_up(nb, kNr),
           mutable_block(j0 / kBlockN));
  }
}

void gemm_rows(Op op_a, float alpha, const Tensor& a, const PackedB& b,
               float beta, Tensor& c, std::size_t row_begin,
               std::size_t row_end, const Epilogue& epilogue) {
  LTFB_CHECK_MSG(a.rank() == 2 && c.rank() == 2,
                 "gemm_rows requires rank-2 tensors");
  const std::size_t m = (op_a == Op::None) ? a.rows() : a.cols();
  const std::size_t k = (op_a == Op::None) ? a.cols() : a.rows();
  const std::size_t n = b.n();
  LTFB_CHECK_MSG(k == b.k(), "gemm_rows inner dimension mismatch: "
                                 << k << " vs " << b.k());
  LTFB_CHECK_MSG(c.rows() == m && c.cols() == n,
                 "gemm_rows output shape mismatch: got "
                     << shape_to_string(c.shape()) << ", want [" << m << ", "
                     << n << "]");
  LTFB_CHECK_MSG(row_begin <= row_end && row_end <= m,
                 "gemm_rows row range [" << row_begin << ", " << row_end
                                         << ") outside " << m << " rows");
  const std::size_t rows = row_end - row_begin;
  if (rows == 0 || n == 0) return;
  float* cp = c.raw();
  scale_rows(beta, cp, n, row_begin, rows);
  if (alpha == 0.0f || k == 0) {
    if (!epilogue.empty()) {
      apply_epilogue(cp, n, row_begin, rows, 0, n, epilogue);
    }
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t nb = std::min(kBlockN, n - j0);
    const float* panel = b.block(j0 / kBlockN);
    for (std::size_t i0 = row_begin; i0 < row_end; i0 += kBlockM) {
      macro_block(op_a, a, alpha, k, panel, round_up(nb, kNr), cp, n, i0,
                  std::min(kBlockM, row_end - i0), j0, nb, epilogue);
    }
  }
}

void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c) {
  gemm(op_a, op_b, alpha, a, b, beta, c, Epilogue{});
}

void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c, const Epilogue& epilogue) {
  const auto [m, n, k] = check_dims(op_a, op_b, a, b, c);

  const bool timed = telemetry::enabled();
  const std::uint64_t start_ns = timed ? telemetry::now_ns() : 0;

  // Scale C by beta once up front (through the shared elementwise layer,
  // which is itself pool-parallel for large C).
  float* cp = c.raw();
  scale_rows(beta, cp, n, 0, m);
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) {
    // The multiply degenerates but the contract is gemm-then-epilogue:
    // the epilogue still transforms the beta-scaled C.
    if (!epilogue.empty() && m > 0 && n > 0) {
      apply_epilogue(cp, n, 0, m, 0, n, epilogue);
    }
    return;
  }

  const std::size_t i_blocks = (m + kBlockM - 1) / kBlockM;
  const std::size_t j_blocks = (n + kBlockN - 1) / kBlockN;
  const std::uint64_t call =
      g_gemm_calls.fetch_add(1, std::memory_order_relaxed) + 1;

  // One task per C macro-block, numbered column-block-major. A thread
  // claims tasks in increasing order, so the tasks it runs walk the row
  // blocks of one column block before the next: it packs that column block
  // of op(B) once and reuses it for every row block it claims. Each task is
  // one macro_block, whose fixed k order makes the output bit-identical
  // across runs and pool sizes.
  auto block_task = [&, m = m, n = n, k = k](std::size_t t) {
    const std::size_t j_block = t / i_blocks;
    const std::size_t i0 = (t % i_blocks) * kBlockM;
    const std::size_t j0 = j_block * kBlockN;
    const std::size_t nb = std::min(kBlockN, n - j0);
    const std::size_t ldb_packed = round_up(nb, kNr);
    ThreadPanel& packed = tl_packed_b;
    if (packed.call != call || packed.j_block != j_block) {
      packed.panel =
          aligned_panel(packed.storage, packed.panel, k * ldb_packed);
      pack_b(op_b, b, 0, k, j0, nb, ldb_packed, packed.panel);
      packed.call = call;
      packed.j_block = j_block;
    }
    macro_block(op_a, a, alpha, k, packed.panel, ldb_packed, cp, n, i0,
                std::min(kBlockM, m - i0), j0, nb, epilogue);
  };

  const std::size_t tasks = i_blocks * j_blocks;
  if (m * n * k < kParallelMnkThreshold || tasks == 1) {
    // Small GEMM: skip pool dispatch entirely; identical per-task work.
    for (std::size_t t = 0; t < tasks; ++t) block_task(t);
  } else {
    util::ComputePool::instance().run_tasks(tasks, block_task);
  }

  if (timed) {
    const double seconds =
        static_cast<double>(telemetry::now_ns() - start_ns) * 1e-9;
    LTFB_TIMER_RECORD("tensor/gemm", seconds);
    if (seconds > 0.0) {
      LTFB_GAUGE_SET("tensor/gemm_gflops",
                     gemm_flops(m, n, k) / seconds / 1e9);
    }
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c);
}

void gemm_reference(Op op_a, Op op_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c) {
  const auto [m, n, k] = check_dims(op_a, op_b, a, b, c);
  auto get_a = [&](std::size_t i, std::size_t kk) {
    return op_a == Op::None ? a.at(i, kk) : a.at(kk, i);
  };
  auto get_b = [&](std::size_t kk, std::size_t j) {
    return op_b == Op::None ? b.at(kk, j) : b.at(j, kk);
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(get_a(i, kk)) *
               static_cast<double>(get_b(kk, j));
      }
      c.at(i, j) = alpha * static_cast<float>(acc) + beta * c.at(i, j);
    }
  }
}

}  // namespace ltfb::tensor
