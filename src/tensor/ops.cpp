#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.hpp"
#include "util/compute_pool.hpp"

namespace ltfb::tensor {

namespace {

// Fixed chunk size for pool-parallel kernels. Boundaries depend only on the
// element count, never on the pool size, so elementwise results are
// trivially pool-invariant and reductions combine per-chunk partials in a
// fixed order (bit-identical at pool sizes 1, 3, 8, ...). Below one grain
// the kernels run inline — small tensors never pay dispatch overhead.
constexpr std::size_t kGrain = 1u << 15;
static_assert(kGrain % simd::kNativeWidth == 0,
              "chunk starts must stay vector-aligned");

using simd::vf;
constexpr std::size_t kW = simd::kNativeWidth;

util::ComputePool& pool() { return util::ComputePool::instance(); }

// The elementwise kernels below run a vector main loop plus a scalar tail.
// Every lane op is the IEEE-exact per-element operation, so the vectorized
// results are bit-identical to the scalar loops at every width — only
// kernels that combine values ACROSS lanes (gemm accumulation) differ per
// width, and the reductions further down stay scalar for that reason.

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  LTFB_CHECK(x.size() == y.size());
  pool().parallel_ranges(
      x.size(), kGrain, [alpha, x, y](std::size_t b, std::size_t e) {
        const vf va = vf::broadcast(alpha);
        const std::size_t ve = b + simd::main_loop_bound(e - b);
        for (std::size_t i = b; i < ve; i += kW) {
          vf::load(&y[i]).mul_add(va, vf::load(&x[i])).store(&y[i]);
        }
        for (std::size_t i = ve; i < e; ++i) y[i] += alpha * x[i];
      });
}

void scale(float alpha, std::span<float> x) {
  pool().parallel_ranges(
      x.size(), kGrain, [alpha, x](std::size_t b, std::size_t e) {
        const vf va = vf::broadcast(alpha);
        const std::size_t ve = b + simd::main_loop_bound(e - b);
        for (std::size_t i = b; i < ve; i += kW) {
          (vf::load(&x[i]) * va).store(&x[i]);
        }
        for (std::size_t i = ve; i < e; ++i) x[i] *= alpha;
      });
}

void add(const Tensor& a, const Tensor& b, Tensor& out) {
  LTFB_CHECK(a.same_shape(b));
  if (!out.same_shape(a)) out.resize(a.shape());
  const auto* ap = a.raw();
  const auto* bp = b.raw();
  auto* op = out.raw();
  pool().parallel_ranges(
      a.size(), kGrain, [ap, bp, op](std::size_t lo, std::size_t hi) {
        const std::size_t ve = lo + simd::main_loop_bound(hi - lo);
        for (std::size_t i = lo; i < ve; i += kW) {
          (vf::load(ap + i) + vf::load(bp + i)).store(op + i);
        }
        for (std::size_t i = ve; i < hi; ++i) op[i] = ap[i] + bp[i];
      });
}

void sub(const Tensor& a, const Tensor& b, Tensor& out) {
  LTFB_CHECK(a.same_shape(b));
  if (!out.same_shape(a)) out.resize(a.shape());
  const auto* ap = a.raw();
  const auto* bp = b.raw();
  auto* op = out.raw();
  pool().parallel_ranges(
      a.size(), kGrain, [ap, bp, op](std::size_t lo, std::size_t hi) {
        const std::size_t ve = lo + simd::main_loop_bound(hi - lo);
        for (std::size_t i = lo; i < ve; i += kW) {
          (vf::load(ap + i) - vf::load(bp + i)).store(op + i);
        }
        for (std::size_t i = ve; i < hi; ++i) op[i] = ap[i] - bp[i];
      });
}

void hadamard(const Tensor& a, const Tensor& b, Tensor& out) {
  LTFB_CHECK(a.same_shape(b));
  if (!out.same_shape(a)) out.resize(a.shape());
  const auto* ap = a.raw();
  const auto* bp = b.raw();
  auto* op = out.raw();
  pool().parallel_ranges(
      a.size(), kGrain, [ap, bp, op](std::size_t lo, std::size_t hi) {
        const std::size_t ve = lo + simd::main_loop_bound(hi - lo);
        for (std::size_t i = lo; i < ve; i += kW) {
          (vf::load(ap + i) * vf::load(bp + i)).store(op + i);
        }
        for (std::size_t i = ve; i < hi; ++i) op[i] = ap[i] * bp[i];
      });
}

void add_row_bias(std::span<const float> bias, Tensor& matrix) {
  LTFB_CHECK(matrix.rank() == 2 && bias.size() == matrix.cols());
  const std::size_t cols = matrix.cols();
  if (cols == 0) return;
  float* data = matrix.raw();
  // Chunk whole rows: rows-per-chunk is derived from cols only, so the
  // partition is independent of the pool size.
  const std::size_t rows_per = std::max<std::size_t>(1, kGrain / cols);
  pool().parallel_ranges(
      matrix.rows(), rows_per,
      [bias, cols, data](std::size_t r0, std::size_t r1) {
        const std::size_t ve = simd::main_loop_bound(cols);
        for (std::size_t r = r0; r < r1; ++r) {
          float* row = data + r * cols;
          for (std::size_t c = 0; c < ve; c += kW) {
            (vf::load(row + c) + vf::load(&bias[c])).store(row + c);
          }
          for (std::size_t c = ve; c < cols; ++c) row[c] += bias[c];
        }
      });
}

void column_sums(const Tensor& matrix, std::span<float> out) {
  LTFB_CHECK(matrix.rank() == 2 && out.size() == matrix.cols());
  // Serial over rows on purpose: each column sums its rows in index order,
  // one add per row, which a split of the rows would reassociate. The
  // vector lanes run across columns, so every column keeps that order at
  // every width.
  std::fill(out.begin(), out.end(), 0.0f);
  const std::size_t cols = matrix.cols();
  const std::size_t ve = simd::main_loop_bound(cols);
  float* sums = out.data();
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    const float* row = matrix.raw() + r * cols;
    for (std::size_t c = 0; c < ve; c += kW) {
      (vf::load(sums + c) + vf::load(row + c)).store(sums + c);
    }
    for (std::size_t c = ve; c < cols; ++c) sums[c] += row[c];
  }
}

double sum(std::span<const float> x) {
  const std::size_t n = x.size();
  if (n <= kGrain) {
    double acc = 0.0;
    for (const float v : x) acc += v;
    return acc;
  }
  // Fixed-boundary chunk partials combined in index order: the summation
  // tree depends only on n, so the result is pool-size-invariant.
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  std::vector<double> partial(chunks, 0.0);
  pool().run_tasks(chunks, [x, n, &partial](std::size_t t) {
    const std::size_t b = t * kGrain;
    const std::size_t e = std::min(n, b + kGrain);
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += x[i];
    partial[t] = acc;
  });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc;
}

double squared_norm(std::span<const float> x) {
  const std::size_t n = x.size();
  if (n <= kGrain) {
    double acc = 0.0;
    for (const float v : x) acc += static_cast<double>(v) * v;
    return acc;
  }
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  std::vector<double> partial(chunks, 0.0);
  pool().run_tasks(chunks, [x, n, &partial](std::size_t t) {
    const std::size_t b = t * kGrain;
    const std::size_t e = std::min(n, b + kGrain);
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      acc += static_cast<double>(x[i]) * x[i];
    }
    partial[t] = acc;
  });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc;
}

float max_abs(std::span<const float> x) {
  const std::size_t n = x.size();
  if (n <= kGrain) {
    float m = 0.0f;
    for (const float v : x) m = std::max(m, std::abs(v));
    return m;
  }
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  std::vector<float> partial(chunks, 0.0f);
  pool().run_tasks(chunks, [x, n, &partial](std::size_t t) {
    const std::size_t b = t * kGrain;
    const std::size_t e = std::min(n, b + kGrain);
    float m = 0.0f;
    for (std::size_t i = b; i < e; ++i) m = std::max(m, std::abs(x[i]));
    partial[t] = m;
  });
  float m = 0.0f;
  for (const float p : partial) m = std::max(m, p);
  return m;
}

void clamp(std::span<float> x, float lo, float hi) {
  LTFB_CHECK(lo <= hi);
  pool().parallel_ranges(
      x.size(), kGrain, [x, lo, hi](std::size_t b, std::size_t e) {
        const vf vlo = vf::broadcast(lo);
        const vf vhi = vf::broadcast(hi);
        const std::size_t ve = b + simd::main_loop_bound(e - b);
        for (std::size_t i = b; i < ve; i += kW) {
          vf::clamp(vf::load(&x[i]), vlo, vhi).store(&x[i]);
        }
        for (std::size_t i = ve; i < e; ++i) x[i] = std::clamp(x[i], lo, hi);
      });
}

bool all_finite(std::span<const float> x) {
  const std::size_t n = x.size();
  if (n <= kGrain) {
    for (const float v : x) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  std::vector<unsigned char> finite(chunks, 1);
  pool().run_tasks(chunks, [x, n, &finite](std::size_t t) {
    const std::size_t b = t * kGrain;
    const std::size_t e = std::min(n, b + kGrain);
    for (std::size_t i = b; i < e; ++i) {
      if (!std::isfinite(x[i])) {
        finite[t] = 0;
        return;
      }
    }
  });
  return std::all_of(finite.begin(), finite.end(),
                     [](unsigned char f) { return f != 0; });
}

}  // namespace ltfb::tensor
