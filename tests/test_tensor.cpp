// Unit tests for src/tensor: shapes, blocked GEMM vs the naive reference,
// and elementwise kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/compute_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::tensor;

void fill_random(Tensor& t, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

// ---- tensor basics -----------------------------------------------------------

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 4});
  EXPECT_EQ(t.size(), 12u);
  for (const float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, TwoDAccessors) {
  Tensor t(2, 3);
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.at(1, 2), 7.0f);
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, RowView) {
  Tensor t(2, 3);
  auto row = t.row(1);
  row[0] = 5.0f;
  EXPECT_EQ(t.at(1, 0), 5.0f);
  EXPECT_EQ(row.size(), 3u);
}

TEST(Tensor, ConstructorWithValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, ConstructorValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), InvalidArgument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(Tensor, ReshapeVolumeMismatchThrows) {
  Tensor t(2, 3);
  EXPECT_THROW(t.reshape({4, 2}), InvalidArgument);
}

TEST(Tensor, ResizeZeroesContents) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  t.resize({3, 3});
  EXPECT_EQ(t.size(), 9u);
  for (const float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FullFillsValue) {
  const Tensor t = Tensor::full({2, 2}, 3.5f);
  for (const float v : t.data()) EXPECT_EQ(v, 3.5f);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_volume({2, 3, 4}), 24u);
  EXPECT_EQ(shape_volume({}), 0u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

// ---- gemm ---------------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
  Op op_a, op_b;
  float alpha, beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto& p = GetParam();
  Tensor a(p.op_a == Op::None ? Shape{p.m, p.k} : Shape{p.k, p.m});
  Tensor b(p.op_b == Op::None ? Shape{p.k, p.n} : Shape{p.n, p.k});
  Tensor c(p.m, p.n), c_ref(p.m, p.n);
  fill_random(a, 1);
  fill_random(b, 2);
  fill_random(c, 3);
  std::copy(c.data().begin(), c.data().end(), c_ref.data().begin());

  gemm(p.op_a, p.op_b, p.alpha, a, b, p.beta, c);
  gemm_reference(p.op_a, p.op_b, p.alpha, a, b, p.beta, c_ref);

  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmParamTest,
    ::testing::Values(
        GemmCase{1, 1, 1, Op::None, Op::None, 1.0f, 0.0f},
        GemmCase{4, 5, 3, Op::None, Op::None, 1.0f, 0.0f},
        GemmCase{16, 16, 16, Op::None, Op::None, 1.0f, 0.0f},
        GemmCase{7, 9, 11, Op::Transpose, Op::None, 1.0f, 0.0f},
        GemmCase{7, 9, 11, Op::None, Op::Transpose, 1.0f, 0.0f},
        GemmCase{7, 9, 11, Op::Transpose, Op::Transpose, 1.0f, 0.0f},
        GemmCase{65, 129, 130, Op::None, Op::None, 1.0f, 0.0f},   // > blocks
        GemmCase{128, 64, 200, Op::Transpose, Op::None, 1.0f, 1.0f},
        GemmCase{33, 17, 250, Op::None, Op::Transpose, 0.5f, -1.0f},
        GemmCase{5, 5, 5, Op::None, Op::None, 2.0f, 3.0f},
        GemmCase{5, 5, 5, Op::None, Op::None, 0.0f, 2.0f}));

// Restores the process-wide compute pool to its environment-selected size
// on scope exit, so pool-sweep tests cannot leak a size into later tests.
class ScopedPoolSize {
 public:
  explicit ScopedPoolSize(std::size_t workers) {
    util::ComputePool::instance().resize(workers);
  }
  ~ScopedPoolSize() {
    util::ComputePool::instance().resize(util::ComputePool::env_threads());
  }
};

// Exhaustive conformance sweep: odd shapes (unit, primes, sub-tile,
// straddling the 64x128 macro-block boundary) x all four transpose
// combinations x pool sizes {1, 3, 8}. Every configuration must match the
// naive triple-loop reference — the threaded register-tiled kernel earns
// its speed only if it is indistinguishable from the textbook product.
TEST(GemmPoolSweep, MatchesReferenceAcrossShapesOpsAndPoolSizes) {
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {
      {1, 1, 1},   {1, 17, 3},  {3, 1, 7},    {5, 5, 5},
      {13, 29, 31}, {63, 127, 129}, {65, 129, 131}, {128, 128, 64}};
  // The CycleGAN's skinny layer shapes: batch or bundle rows against narrow
  // hidden/latent widths, where most register tiles are padded edge tiles.
  for (const std::size_t m : {128u, 207u}) {
    for (const std::size_t n : {1u, 5u, 12u, 20u, 24u}) {
      for (const std::size_t k : {5u, 20u, 128u}) shapes.emplace_back(m, n, k);
    }
  }
  const std::pair<Op, Op> ops[] = {{Op::None, Op::None},
                                   {Op::Transpose, Op::None},
                                   {Op::None, Op::Transpose},
                                   {Op::Transpose, Op::Transpose}};
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ScopedPoolSize pool(workers);
    for (const auto& [m, n, k] : shapes) {
      for (const auto& [op_a, op_b] : ops) {
        Tensor a(op_a == Op::None ? Shape{m, k} : Shape{k, m});
        Tensor b(op_b == Op::None ? Shape{k, n} : Shape{n, k});
        Tensor c(m, n), c_ref(m, n);
        fill_random(a, m * 31 + n);
        fill_random(b, n * 37 + k);
        fill_random(c, k * 41 + m);
        std::copy(c.data().begin(), c.data().end(), c_ref.data().begin());
        gemm(op_a, op_b, 0.75f, a, b, 0.5f, c);
        gemm_reference(op_a, op_b, 0.75f, a, b, 0.5f, c_ref);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_NEAR(c[i], c_ref[i], 1e-3f)
              << "workers=" << workers << " m=" << m << " n=" << n
              << " k=" << k << " element " << i;
        }
      }
    }
  }
}

// Determinism contract (DESIGN.md): one task per C macro-block with the
// k-panel loop sequential inside it, so the floating-point summation order
// per element is fixed. Threaded runs must be BIT-identical to the serial
// run and to each other, at any pool size — data-parallel replicas rely on
// this to stay weight-synchronized without re-broadcasts.
TEST(GemmPoolSweep, BitIdenticalAcrossRunsAndPoolSizes) {
  constexpr std::size_t kM = 150, kN = 170, kK = 260;  // several blocks, edges
  Tensor a(kM, kK), b(kK, kN);
  fill_random(a, 11);
  fill_random(b, 12);

  Tensor serial(kM, kN);
  {
    ScopedPoolSize pool(1);
    matmul(a, b, serial);
  }
  for (const std::size_t workers : {3u, 8u}) {
    ScopedPoolSize pool(workers);
    for (int run = 0; run < 3; ++run) {
      Tensor c(kM, kN);
      matmul(a, b, c);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], serial[i])
            << "workers=" << workers << " run=" << run << " element " << i;
      }
    }
  }
}

// The pool-parallel reductions in ops.cpp combine fixed-grain partials in
// index order: sums must also be bit-stable across pool sizes.
TEST(OpsPoolSweep, ReductionsBitIdenticalAcrossPoolSizes) {
  std::vector<float> values(100000);
  util::Rng rng(21);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  ScopedPoolSize serial(1);
  const double sum1 = sum(values);
  const double sq1 = squared_norm(values);
  const float max1 = max_abs(values);
  for (const std::size_t workers : {3u, 8u}) {
    ScopedPoolSize pool(workers);
    EXPECT_EQ(sum(values), sum1) << "workers=" << workers;
    EXPECT_EQ(squared_norm(values), sq1) << "workers=" << workers;
    EXPECT_EQ(max_abs(values), max1) << "workers=" << workers;
  }
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Tensor a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(matmul(a, b, c), InvalidArgument);
}

TEST(Gemm, OutputShapeMismatchThrows) {
  Tensor a(2, 3), b(3, 5), c(2, 4);
  EXPECT_THROW(matmul(a, b, c), InvalidArgument);
}

TEST(Gemm, IdentityMultiplication) {
  Tensor eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  Tensor a(3, 3);
  fill_random(a, 4);
  Tensor c(3, 3);
  matmul(eye, a, c);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

// ---- ops ----------------------------------------------------------------------

TEST(Ops, Axpy) {
  std::vector<float> x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
}

TEST(Ops, AxpySizeMismatchThrows) {
  std::vector<float> x{1}, y{1, 2};
  EXPECT_THROW(axpy(1.0f, x, y), InvalidArgument);
}

TEST(Ops, Scale) {
  std::vector<float> x{2, 4};
  scale(0.5f, x);
  EXPECT_EQ(x, (std::vector<float>{1, 2}));
}

TEST(Ops, AddSubHadamard) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {4, 5, 6});
  Tensor out;
  add(a, b, out);
  EXPECT_EQ(out[0], 5.0f);
  sub(b, a, out);
  EXPECT_EQ(out[2], 3.0f);
  hadamard(a, b, out);
  EXPECT_EQ(out[1], 10.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(1, 3), b(1, 4), out;
  EXPECT_THROW(add(a, b, out), InvalidArgument);
}

TEST(Ops, AddRowBias) {
  Tensor m({2, 3}, {0, 0, 0, 1, 1, 1});
  const std::vector<float> bias{10, 20, 30};
  add_row_bias(bias, m);
  EXPECT_EQ(m.at(0, 1), 20.0f);
  EXPECT_EQ(m.at(1, 2), 31.0f);
}

TEST(Ops, ColumnSums) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<float> sums(3);
  column_sums(m, sums);
  EXPECT_EQ(sums, (std::vector<float>{5, 7, 9}));
}

TEST(Ops, SumAndNorms) {
  const std::vector<float> x{1, -2, 3};
  EXPECT_DOUBLE_EQ(sum(x), 2.0);
  EXPECT_DOUBLE_EQ(squared_norm(x), 14.0);
  EXPECT_FLOAT_EQ(max_abs(x), 3.0f);
}

TEST(Ops, Clamp) {
  std::vector<float> x{-5, 0, 5};
  clamp(x, -1.0f, 1.0f);
  EXPECT_EQ(x, (std::vector<float>{-1, 0, 1}));
}

TEST(Ops, AllFinite) {
  std::vector<float> ok{1, 2, 3};
  EXPECT_TRUE(all_finite(ok));
  std::vector<float> bad{1, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_FALSE(all_finite(bad));
  std::vector<float> inf{1, std::numeric_limits<float>::infinity()};
  EXPECT_FALSE(all_finite(inf));
}

// ---- half precision (bf16 / fp16) -----------------------------------------

float from_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

TEST(Half, Bf16SpecialValuesRoundTrip) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(to_bfloat16(0.0f).bits, 0x0000u);
  EXPECT_EQ(to_bfloat16(-0.0f).bits, 0x8000u);
  EXPECT_EQ(to_bfloat16(inf).bits, 0x7f80u);
  EXPECT_EQ(to_bfloat16(-inf).bits, 0xff80u);
  EXPECT_EQ(from_bfloat16(bfloat16{0x7f80u}), inf);
  EXPECT_EQ(from_bfloat16(bfloat16{0x8000u}), -0.0f);
  EXPECT_TRUE(std::signbit(from_bfloat16(bfloat16{0x8000u})));
  // NaN stays NaN: the mantissa truncation must not collapse it to inf.
  const float nan = from_bits(0x7f800001u);  // signaling: low bits only
  const bfloat16 qnan = to_bfloat16(nan);
  EXPECT_TRUE(std::isnan(from_bfloat16(qnan)));
  // fp32 max overflows bf16's 8-bit mantissa grid to infinity via RNE.
  EXPECT_EQ(to_bfloat16(std::numeric_limits<float>::max()).bits, 0x7f80u);
}

TEST(Half, Bf16RoundToNearestEven) {
  // 0x3f80'8000 sits exactly halfway between bf16 0x3f80 (1.0) and 0x3f81;
  // ties go to the even encoding.
  EXPECT_EQ(to_bfloat16(from_bits(0x3f808000u)).bits, 0x3f80u);
  EXPECT_EQ(to_bfloat16(from_bits(0x3f818000u)).bits, 0x3f82u);
  // One ulp above the tie rounds up regardless of parity.
  EXPECT_EQ(to_bfloat16(from_bits(0x3f808001u)).bits, 0x3f81u);
  // Below the tie truncates.
  EXPECT_EQ(to_bfloat16(from_bits(0x3f807fffu)).bits, 0x3f80u);
}

TEST(Half, Bf16ExhaustiveRoundTrip) {
  // Every bf16 value is exactly representable in fp32, so decode -> encode
  // must reproduce the bits (NaNs additionally get the quiet bit forced).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto b = static_cast<std::uint16_t>(bits);
    const float f = from_bfloat16(bfloat16{b});
    const std::uint16_t back = to_bfloat16(f).bits;
    if (std::isnan(f)) {
      EXPECT_EQ(back, b | 0x0040u) << "bf16 bits " << bits;
    } else {
      EXPECT_EQ(back, b) << "bf16 bits " << bits;
    }
  }
}

TEST(Half, Fp16SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(to_float16(0.0f).bits, 0x0000u);
  EXPECT_EQ(to_float16(-0.0f).bits, 0x8000u);
  EXPECT_EQ(to_float16(inf).bits, 0x7c00u);
  EXPECT_EQ(to_float16(-inf).bits, 0xfc00u);
  EXPECT_EQ(to_float16(1.0f).bits, 0x3c00u);
  EXPECT_EQ(to_float16(65504.0f).bits, 0x7bffu);  // fp16 max
  // 65520 is the tie between max and the unrepresentable 65536: IEEE
  // overflow rounds to infinity.
  EXPECT_EQ(to_float16(65520.0f).bits, 0x7c00u);
  EXPECT_EQ(to_float16(65519.996f).bits, 0x7bffu);
  EXPECT_TRUE(std::isnan(from_float16(to_float16(
      std::numeric_limits<float>::quiet_NaN()))));
  // A NaN whose payload dies in the 13-bit truncation must stay a NaN.
  EXPECT_TRUE(std::isnan(from_float16(to_float16(from_bits(0x7f800001u)))));
}

TEST(Half, Fp16Subnormals) {
  const float smallest = std::ldexp(1.0f, -24);  // smallest fp16 subnormal
  EXPECT_EQ(to_float16(smallest).bits, 0x0001u);
  EXPECT_EQ(from_float16(float16{0x0001u}), smallest);
  // Exactly half the smallest subnormal ties to even -> zero.
  EXPECT_EQ(to_float16(std::ldexp(1.0f, -25)).bits, 0x0000u);
  EXPECT_EQ(to_float16(-std::ldexp(1.0f, -25)).bits, 0x8000u);
  // Just above the tie rounds up to the smallest subnormal.
  EXPECT_EQ(to_float16(std::ldexp(1.0f, -25) * 1.0001f).bits, 0x0001u);
  // Largest subnormal and the subnormal->normal carry boundary.
  const float largest_sub = std::ldexp(1023.0f, -24);
  EXPECT_EQ(to_float16(largest_sub).bits, 0x03ffu);
  EXPECT_EQ(from_float16(float16{0x03ffu}), largest_sub);
  // Halfway between the largest subnormal and the smallest normal: the
  // rounding carry must ripple into the exponent field.
  EXPECT_EQ(to_float16(std::ldexp(2047.0f, -25)).bits, 0x0400u);
}

TEST(Half, Fp16RoundToNearestEvenTies) {
  // 1 + 2^-11 is the tie between 0x3c00 (1.0) and 0x3c01; even wins.
  EXPECT_EQ(to_float16(1.0f + std::ldexp(1.0f, -11)).bits, 0x3c00u);
  EXPECT_EQ(to_float16(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits, 0x3c02u);
  EXPECT_EQ(to_float16(1.0f + std::ldexp(1.0f, -11) +
                       std::ldexp(1.0f, -20)).bits, 0x3c01u);
}

TEST(Half, Fp16ExhaustiveRoundTrip) {
  // decode -> encode is the identity for every one of the 65536 fp16 bit
  // patterns, NaN payloads included: stored-precision images round-trip
  // losslessly.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    EXPECT_EQ(to_float16(from_float16(float16{h})).bits, h)
        << "fp16 bits " << bits;
  }
}

TEST(Half, QuantizeMatchesEncodeDecode) {
  util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform(-100.0, 100.0));
    EXPECT_EQ(quantize(x, HalfKind::Bf16), from_bfloat16(to_bfloat16(x)));
    EXPECT_EQ(quantize(x, HalfKind::Fp16), from_float16(to_float16(x)));
  }
}

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(Half, ByteCodecsMatchScalarBitForBit) {
  // The byte codecs and the ring's fused hop must produce exactly what the
  // scalar converters do, on a byte payload of any alignment.
  const std::vector<std::uint32_t> specials = {
      0x00000000u, 0x80000000u,               // +-0
      0x7f800000u, 0xff800000u,               // +-inf
      0x7fc00000u, 0xffc00000u,               // quiet NaNs
      0x7f800001u, 0xff800001u,               // NaN payload in low bits only
      0x7fa5a5a5u, 0x7f80ffffu,               // NaN payloads, quiet bit off
      0x3f808000u, 0x3f818000u, 0xbf808000u,  // bf16 RNE ties: even, odd up
      0x3f808001u, 0x3f807fffu,               // just above / below a tie
      0x7f7fffffu, 0xff7fffffu,               // bf16 rounds up into +-inf
      0x7f7f7fffu,                            // largest finite bf16 input
      0x477ff000u, 0x477fefffu,               // fp16 overflow boundary
      0x00000001u, 0x80000001u, 0x00008000u,  // subnormals, a subnormal tie
      0x00018000u, 0x007fffffu, 0x807fffffu,  // odd tie, largest subnormal
      0x33000000u, 0x33000001u,               // fp16 half-quantum boundary
  };
  std::vector<float> in;
  for (const std::uint32_t special : specials) in.push_back(from_bits(special));
  util::Rng rng(2027);
  for (int i = 0; i < 4099; ++i) {
    in.push_back(from_bits(static_cast<std::uint32_t>(rng.uniform_index(1ull << 32))));
  }
  // Finite addends: NaN + NaN keeps one of the two payloads, and which one
  // depends on the operand order the compiler picked.
  std::vector<float> own(in.size());
  for (auto& v : own) {
    do {
      v = from_bits(static_cast<std::uint32_t>(rng.uniform_index(1ull << 32)));
    } while (!std::isfinite(v));
  }

  for (const HalfKind kind : {HalfKind::Bf16, HalfKind::Fp16}) {
    SCOPED_TRACE(kind == HalfKind::Bf16 ? "bf16" : "fp16");
    const auto encode = [kind](float v) -> std::uint16_t {
      return kind == HalfKind::Bf16 ? to_bfloat16(v).bits : to_float16(v).bits;
    };
    const auto decode = [kind](std::uint16_t h) {
      return kind == HalfKind::Bf16 ? from_bfloat16(bfloat16{h})
                                    : from_float16(float16{h});
    };
    const auto wire_bits = [](std::span<const std::uint8_t> wire,
                              std::size_t i) {
      std::uint16_t got = 0;
      std::memcpy(&got, &wire[2 * i], sizeof(got));
      return got;
    };

    // A misaligned view: byte codecs must not assume 2-byte alignment.
    std::vector<std::uint8_t> storage(2 * in.size() + 1);
    const std::span<std::uint8_t> wire(storage.data() + 1, 2 * in.size());
    encode_half(in, wire, kind);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(wire_bits(wire, i), encode(in[i]))
          << "encode element " << i << " bits 0x" << std::hex
          << bits_of(in[i]);
    }

    std::vector<float> decoded(in.size());
    decode_half(wire, decoded, kind);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(bits_of(decoded[i]), bits_of(decode(encode(in[i]))))
          << "decode element " << i;
    }

    // The ring's fused hop: wire = encode(decode(wire) + own), with the
    // decoded sum written back.
    std::vector<float> sum(in.size());
    add_into_half(wire, own, sum, kind);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::uint16_t want = encode(decode(encode(in[i])) + own[i]);
      ASSERT_EQ(wire_bits(wire, i), want) << "add element " << i;
      ASSERT_EQ(bits_of(sum[i]), bits_of(decode(want))) << "sum element " << i;
    }
    EXPECT_THROW(add_into_half(wire.first(10), own, sum, kind),
                 InvalidArgument);
  }
}

TEST(Half, SpanCodecsRoundTripAndValidate) {
  std::vector<float> in{0.0f, -1.5f, 3.1415926f, 65504.0f,
                        std::ldexp(1.0f, -24),
                        std::numeric_limits<float>::infinity()};
  std::vector<std::uint16_t> wire(in.size());
  std::vector<float> out(in.size());
  for (const HalfKind kind : {HalfKind::Bf16, HalfKind::Fp16}) {
    encode_half(in, wire, kind);
    decode_half(wire, out, kind);
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], quantize(in[i], kind));
    }
    // Decoded values are exactly at stored precision: a second trip
    // through the codec is the identity.
    std::vector<std::uint16_t> wire2(in.size());
    encode_half(out, wire2, kind);
    EXPECT_EQ(wire2, wire);
  }
  std::vector<std::uint16_t> short_wire(in.size() - 1);
  EXPECT_THROW(encode_half(in, short_wire, HalfKind::Bf16), InvalidArgument);
  EXPECT_THROW(decode_half(short_wire, out, HalfKind::Fp16), InvalidArgument);
}

// ---- fused gemm epilogues --------------------------------------------------

// Applies the epilogue definition directly: C(i,j) = act(C(i,j) + bias[j]).
void reference_epilogue(Tensor& c, const Epilogue& ep) {
  const std::size_t m = c.rows(), n = c.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float x = c.at(i, j);
      if (ep.bias != nullptr) x += ep.bias[j];
      switch (ep.act) {
        case EpilogueAct::None: break;
        case EpilogueAct::Relu: x = x > 0.0f ? x : 0.0f; break;
        case EpilogueAct::LeakyRelu:
          x = x > 0.0f ? x : ep.leaky_slope * x;
          break;
        case EpilogueAct::Sigmoid: x = 1.0f / (1.0f + std::exp(-x)); break;
        case EpilogueAct::Tanh: x = std::tanh(x); break;
      }
      c.at(i, j) = x;
    }
  }
}

// The fused path must be bit-identical to gemm-then-epilogue: the epilogue
// is elementwise on the finished C tile, so fusion changes when it runs,
// never what it computes. Sweeps all four transpose combos, every
// activation, and shapes with ragged micro-kernel tails.
TEST(GemmEpilogue, FusedMatchesUnfusedBitExact) {
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
      shapes{{1, 1, 1}, {4, 16, 8}, {5, 7, 3}, {17, 33, 9}, {32, 19, 21}};
  const std::vector<EpilogueAct> acts{
      EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::LeakyRelu,
      EpilogueAct::Sigmoid, EpilogueAct::Tanh};
  for (const auto& [m, n, k] : shapes) {
    std::vector<float> bias(n);
    for (std::size_t j = 0; j < n; ++j) {
      bias[j] = static_cast<float>(j) * 0.25f - 1.0f;
    }
    for (const Op op_a : {Op::None, Op::Transpose}) {
      for (const Op op_b : {Op::None, Op::Transpose}) {
        Tensor a = op_a == Op::None ? Tensor(m, k) : Tensor(k, m);
        Tensor b = op_b == Op::None ? Tensor(k, n) : Tensor(n, k);
        fill_random(a, 11 + m);
        fill_random(b, 23 + n);
        for (const EpilogueAct act : acts) {
          for (const float beta : {0.0f, 0.5f}) {
            Epilogue ep;
            ep.bias = bias.data();
            ep.act = act;
            Tensor fused(m, n), unfused(m, n);
            fill_random(fused, 31);
            fill_random(unfused, 31);
            gemm(op_a, op_b, 1.0f, a, b, beta, fused, ep);
            gemm(op_a, op_b, 1.0f, a, b, beta, unfused);
            reference_epilogue(unfused, ep);
            for (std::size_t i = 0; i < fused.size(); ++i) {
              ASSERT_EQ(fused[i], unfused[i])
                  << "m=" << m << " n=" << n << " k=" << k << " act="
                  << static_cast<int>(act) << " beta=" << beta << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(GemmEpilogue, BiasOnlyMatchesAddRowBias) {
  Tensor a(6, 5), b(5, 9), fused(6, 9), plain(6, 9);
  fill_random(a, 3);
  fill_random(b, 4);
  std::vector<float> bias(9, 0.75f);
  Epilogue ep;
  ep.bias = bias.data();
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, fused, ep);
  matmul(a, b, plain);
  add_row_bias(bias, plain);
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], plain[i]);
  }
}

TEST(GemmEpilogue, DegenerateGemmStillAppliesEpilogue) {
  // alpha == 0 degenerates the multiply; the contract is still
  // gemm-then-epilogue, i.e. the epilogue transforms the beta-scaled C.
  Tensor a(3, 4), b(4, 5);
  fill_random(a, 7);
  fill_random(b, 8);
  std::vector<float> bias{-2.0f, -1.0f, 0.0f, 1.0f, 2.0f};
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::Relu;
  Tensor c(3, 5);
  fill_random(c, 9);
  Tensor expected = c;
  gemm(Op::None, Op::None, 0.0f, a, b, 0.5f, c, ep);
  scale(0.5f, expected.data());
  reference_epilogue(expected, ep);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], expected[i]);
  }
}

TEST(GemmEpilogue, EmptyEpilogueMatchesPlainGemm) {
  Tensor a(8, 8), b(8, 8), c1(8, 8), c2(8, 8);
  fill_random(a, 1);
  fill_random(b, 2);
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c1, Epilogue{});
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c2);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

// ---- summation order -----------------------------------------------------------

// The GEMM's summation order, spelled out. Each C element starts from C
// scaled by beta, then adds into C one chain per 128-wide k-block. Each
// chain starts at zero and steps acc = (alpha*a)*b + acc through
// simd::vec<1>::mul_add, so it fuses exactly when the kernel's vector
// mul_add does under the same build flags. The epilogue comes last. The
// chains of one row run side by side (j innermost), which leaves every
// element's own order as stated.
void kblocked_reference(Op op_a, Op op_b, float alpha, const Tensor& a,
                        const Tensor& b, float beta, Tensor& c,
                        const Epilogue& ep) {
  using S = simd::vec<1>;
  constexpr std::size_t kBlockK = 128;
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = op_a == Op::None ? a.cols() : a.rows();
  // Element strides of op(A)(i, kk) and op(B)(kk, j) in the stored tensors.
  const std::size_t a_si = op_a == Op::None ? k : 1;
  const std::size_t a_sk = op_a == Op::None ? 1 : m;
  const std::size_t b_sk = op_b == Op::None ? n : 1;
  const std::size_t b_sj = op_b == Op::None ? 1 : k;
  std::vector<float> chain(n);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c.raw() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (beta == 0.0f) {
        row[j] = 0.0f;
      } else if (beta != 1.0f) {
        row[j] *= beta;
      }
    }
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      std::fill(chain.begin(), chain.end(), 0.0f);
      for (std::size_t kk = k0; kk < std::min(k, k0 + kBlockK); ++kk) {
        const S av = S::broadcast(alpha * a.raw()[i * a_si + kk * a_sk]);
        const float* brow = b.raw() + kk * b_sk;
        for (std::size_t j = 0; j < n; ++j) {
          chain[j] = S{chain[j]}.mul_add(av, S::broadcast(brow[j * b_sj])).v;
        }
      }
      for (std::size_t j = 0; j < n; ++j) row[j] += chain[j];
    }
  }
  reference_epilogue(c, ep);
}

// Pins the kernel's summation order bit for bit: the conformance sweeps
// above allow rounding slack, and the driver digests see the order only
// through whole training runs. Covers every transpose pair, full and edge
// register tiles, k around the 128 k-block edge, and team sizes 1 and 4;
// alpha, beta and the epilogue cycle through all 36 combinations across the
// shapes.
TEST(GemmOrder, BitExactAgainstKBlockedReference) {
  const std::pair<Op, Op> ops[] = {{Op::None, Op::None},
                                   {Op::Transpose, Op::None},
                                   {Op::None, Op::Transpose},
                                   {Op::Transpose, Op::Transpose}};
  const std::size_t widths[] = {1, 5, 20, 33, 207};
  const std::size_t depths[] = {1, 127, 128, 129, 300};
  const float alphas[] = {1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, 0.25f};
  // Index 0 is the empty epilogue; the others add a bias.
  const EpilogueAct acts[] = {EpilogueAct::None, EpilogueAct::None,
                              EpilogueAct::Relu, EpilogueAct::LeakyRelu,
                              EpilogueAct::Sigmoid, EpilogueAct::Tanh};
  const ScopedPoolSize restore(util::ComputePool::env_threads());
  std::size_t combo = 0;
  for (const auto& [op_a, op_b] : ops) {
    for (const std::size_t m : widths) {
      for (const std::size_t n : widths) {
        for (const std::size_t k : depths) {
          const float alpha = alphas[combo % 2];
          const float beta = betas[combo % 3];
          const std::size_t e = (combo / 6) % 6;
          ++combo;
          Tensor bias(1, n);
          fill_random(bias, combo);
          Epilogue ep;
          ep.bias = e > 0 ? bias.raw() : nullptr;
          ep.act = acts[e];
          Tensor a(op_a == Op::None ? Shape{m, k} : Shape{k, m});
          Tensor b(op_b == Op::None ? Shape{k, n} : Shape{n, k});
          Tensor c(m, n);
          fill_random(a, m * 31 + k);
          fill_random(b, n * 37 + k);
          fill_random(c, combo * 41);
          Tensor want = c;
          kblocked_reference(op_a, op_b, alpha, a, b, beta, want, ep);
          for (const std::size_t workers : {1u, 4u}) {
            util::ComputePool::instance().resize(workers);
            Tensor got = c;
            gemm(op_a, op_b, alpha, a, b, beta, got, ep);
            ASSERT_EQ(std::memcmp(got.raw(), want.raw(),
                                  got.size() * sizeof(float)),
                      0)
                << "workers=" << workers << " transposes="
                << (op_a == Op::None ? "N" : "T")
                << (op_b == Op::None ? "N" : "T") << " m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha << " beta=" << beta
                << " epilogue=" << e;
          }
        }
      }
    }
  }
}

}  // namespace
