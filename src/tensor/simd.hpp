// Portable fixed-width SIMD vector wrapper — the single ISA dispatch point
// of the tree (lint rule isa-dispatch: no other file may branch on
// LTFB_SIMD_WIDTH or on __AVX2__-style feature macros).
//
// The wrapper is built on the GCC/Clang vector-size extension rather than
// per-ISA intrinsics: one generic `vec<W>` compiles to AVX2 (W=8), NEON
// (W=4) or plain scalar code (W=1) depending on the width the build
// selected (cmake/LtfbSimd.cmake, LTFB_SIMD=auto|avx2|neon|scalar).
//
// Numerics contract (DESIGN.md §15): the width is fixed per build, every
// kernel slices its data identically at every pool size, and all lane
// operations are IEEE correctly-rounded element ops — so results are
// bit-identical across runs and pool sizes *at a fixed width*. Different
// widths are different (equally valid) FP reassociations and may differ in
// the last ulp; the scalar build (W=1) expands to exactly the loops the
// pre-SIMD kernels ran.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#ifndef LTFB_SIMD_WIDTH
#define LTFB_SIMD_WIDTH 1
#endif

namespace ltfb::tensor::simd {

/// IEEE square root of one float: the scalar sqrt instruction on x86,
/// without the errno branch (and sqrtf call) std::sqrt carries under the
/// default -fmath-errno. Correctly rounded either way, so the result is
/// bit-identical to std::sqrt.
inline float sqrt1(float x) {
#if defined(__SSE__)
  using v4 = float __attribute__((vector_size(16)));
  return __builtin_ia32_sqrtss(v4{x, 0.0f, 0.0f, 0.0f})[0];
#else
  return std::sqrt(x);
#endif
}

/// Vector width (in floats) this build was compiled for.
inline constexpr std::size_t kNativeWidth = LTFB_SIMD_WIDTH;

static_assert(kNativeWidth == 1 || kNativeWidth == 4 || kNativeWidth == 8,
              "LTFB_SIMD_WIDTH must be 1 (scalar), 4 (neon) or 8 (avx2)");

/// Maps a width to the GCC/Clang extended-vector type of that many floats.
/// Explicit specializations keep the vector_size argument a literal — GCC
/// silently drops the attribute when its operand is a dependent expression.
template <std::size_t W>
struct native_vector;
template <>
struct native_vector<4> {
  using type = float __attribute__((vector_size(16)));
};
template <>
struct native_vector<8> {
  using type = float __attribute__((vector_size(32)));
};

/// Fixed-width vector of W floats. Loads/stores are unaligned (memcpy
/// compiles to the unaligned vector move); arithmetic maps to the native
/// vector instructions of the target ISA.
template <std::size_t W>
struct vec {
  using native = typename native_vector<W>::type;
  native v;

  static vec load(const float* p) {
    vec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  static vec broadcast(float s) {
    vec r;
    r.v = s - native{};  // splat: scalar op against a zero vector
    return r;
  }
  static vec zero() { return vec{native{}}; }
  /// Unaligned load from raw bytes (a comm payload): the bytes are copied
  /// into the lanes, never read through a float lvalue.
  static vec load_bytes(const std::uint8_t* p) {
    vec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  void store(float* p) const { std::memcpy(p, &v, sizeof(v)); }
  void store_bytes(std::uint8_t* p) const { std::memcpy(p, &v, sizeof(v)); }

  float lane(std::size_t i) const { return v[static_cast<int>(i)]; }

  vec operator+(vec o) const { return vec{v + o.v}; }
  vec operator-(vec o) const { return vec{v - o.v}; }
  vec operator*(vec o) const { return vec{v * o.v}; }
  vec operator/(vec o) const { return vec{v / o.v}; }
  vec& operator+=(vec o) {
    v += o.v;
    return *this;
  }
  vec& operator-=(vec o) {
    v -= o.v;
    return *this;
  }
  vec& operator*=(vec o) {
    v *= o.v;
    return *this;
  }

  /// a*b + this. Written as the plain expression so the compiler contracts
  /// it into an FMA exactly when the build's FP rules allow (-mfma paths);
  /// the scalar build keeps the same mul-then-add the old kernels had.
  vec mul_add(vec a, vec b) const { return vec{a.v * b.v + v}; }

  /// Lanewise x > 0 ? a : b — the exact predicate the scalar activations
  /// use (note: NOT max(), which differs on -0.0f and NaN propagation).
  static vec select_gt_zero(vec x, vec a, vec b) {
    return vec{x.v > native{} ? a.v : b.v};
  }

  /// Lanewise x > y ? a : b — an ordered compare, so a NaN lane picks b.
  static vec select_gt(vec x, vec y, vec a, vec b) {
    return vec{x.v > y.v ? a.v : b.v};
  }

  /// Lanewise min/max via the same comparison-select the scalar
  /// std::clamp expansion performs.
  static vec min(vec a, vec b) { return vec{a.v < b.v ? a.v : b.v}; }
  static vec max(vec a, vec b) { return vec{a.v > b.v ? a.v : b.v}; }

  /// Lanewise std::clamp: x < lo ? lo : hi < x ? hi : x. The exact
  /// comparison chain matters — NaN lanes pass through unchanged, which a
  /// min/max composition would not preserve.
  static vec clamp(vec x, vec lo, vec hi) {
    const native t = x.v < lo.v ? lo.v : x.v;
    return vec{hi.v < t ? hi.v : t};
  }

  /// Lanewise IEEE square root (correctly rounded, so identical to the
  /// scalar std::sqrt per element). A per-lane std::sqrt loop does NOT
  /// vectorize under the default -fmath-errno: GCC spills the vector and
  /// runs one scalar sqrt per lane with an errno branch to sqrtf. So the
  /// AVX build emits the packed instruction directly; other widths take
  /// the lane loop over sqrt1.
  vec sqrt() const {
#if defined(__AVX__)
    if constexpr (W == 8) return vec{__builtin_ia32_sqrtps256(v)};
#endif
    vec r;
    for (std::size_t i = 0; i < W; ++i) {
      r.v[static_cast<int>(i)] = sqrt1(v[static_cast<int>(i)]);
    }
    return r;
  }

  /// Horizontal sum in fixed lane order (lane 0 first) — deterministic,
  /// never the ISA's tree-reduction shuffle.
  float hsum() const {
    float acc = 0.0f;
    for (std::size_t i = 0; i < W; ++i) acc += v[static_cast<int>(i)];
    return acc;
  }
};

/// Scalar fallback: same API, plain float arithmetic. The W=1 build routes
/// every kernel through this, producing instruction-for-instruction the
/// loops the pre-SIMD kernels compiled to.
template <>
struct vec<1> {
  float v;

  static vec load(const float* p) { return vec{*p}; }
  static vec broadcast(float s) { return vec{s}; }
  static vec zero() { return vec{0.0f}; }
  static vec load_bytes(const std::uint8_t* p) {
    vec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  void store(float* p) const { *p = v; }
  void store_bytes(std::uint8_t* p) const { std::memcpy(p, &v, sizeof(v)); }

  float lane(std::size_t /*i*/) const { return v; }

  vec operator+(vec o) const { return vec{v + o.v}; }
  vec operator-(vec o) const { return vec{v - o.v}; }
  vec operator*(vec o) const { return vec{v * o.v}; }
  vec operator/(vec o) const { return vec{v / o.v}; }
  vec& operator+=(vec o) {
    v += o.v;
    return *this;
  }
  vec& operator-=(vec o) {
    v -= o.v;
    return *this;
  }
  vec& operator*=(vec o) {
    v *= o.v;
    return *this;
  }

  vec mul_add(vec a, vec b) const { return vec{a.v * b.v + v}; }

  static vec select_gt_zero(vec x, vec a, vec b) {
    return vec{x.v > 0.0f ? a.v : b.v};
  }
  static vec select_gt(vec x, vec y, vec a, vec b) {
    return vec{x.v > y.v ? a.v : b.v};
  }
  static vec min(vec a, vec b) { return vec{a.v < b.v ? a.v : b.v}; }
  static vec max(vec a, vec b) { return vec{a.v > b.v ? a.v : b.v}; }

  static vec clamp(vec x, vec lo, vec hi) {
    const float t = x.v < lo.v ? lo.v : x.v;
    return vec{hi.v < t ? hi.v : t};
  }

  vec sqrt() const { return vec{sqrt1(v)}; }
  float hsum() const { return v; }
};

/// The build's native vector type — what the kernels actually use.
using vf = vec<kNativeWidth>;

/// Largest multiple of the native width <= n: the bound of a kernel's
/// vector main loop (the remainder runs the scalar tail). Depends only on
/// n and the build width, never on the pool size.
inline constexpr std::size_t main_loop_bound(std::size_t n) {
  return n - n % kNativeWidth;
}

}  // namespace ltfb::tensor::simd
