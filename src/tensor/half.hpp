// Reduced-precision storage formats: bfloat16 and IEEE binary16 (fp16).
//
// These are STORAGE types only — every arithmetic path in the tree stays
// fp32 (or wider). They exist to halve bytes where bytes are the cost:
// gradient all-reduce payloads (nn::GradientBucketer) and checkpoint
// images (nn::checkpoint v2, population checkpoint v4).
//
// Conversion semantics (covered exhaustively in tests/test_tensor.cpp):
//   * float -> half uses IEEE round-to-nearest-even, including the
//     subnormal range and the overflow-to-infinity boundary;
//   * NaNs stay NaNs (payload truncated, never collapsed to infinity),
//     infinities and signed zeros are preserved exactly;
//   * half -> float is exact (every bf16/fp16 value is representable in
//     fp32), so encode(decode(x)) is the identity: checkpoint images
//     round-trip losslessly at their stored precision.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "util/error.hpp"

namespace ltfb::tensor {

/// bfloat16: fp32's top 16 bits (1 sign, 8 exponent, 7 mantissa). Same
/// dynamic range as fp32, ~2-3 significant decimal digits.
struct bfloat16 {
  std::uint16_t bits = 0;
};

/// IEEE binary16: 1 sign, 5 exponent, 10 mantissa. More precision than
/// bf16 but overflows past 65504 — gradients want bf16, weights fit both.
struct float16 {
  std::uint16_t bits = 0;
};

inline bfloat16 to_bfloat16(float value) {
  std::uint32_t f = 0;
  std::memcpy(&f, &value, sizeof(f));
  if ((f & 0x7fffffffu) > 0x7f800000u) {
    // NaN: truncating the mantissa could zero it and turn the NaN into an
    // infinity; keep the top payload bits and force the quiet bit.
    return bfloat16{static_cast<std::uint16_t>((f >> 16) | 0x0040u)};
  }
  // Round to nearest, ties to even, on the discarded low 16 bits.
  f += 0x7fffu + ((f >> 16) & 1u);
  return bfloat16{static_cast<std::uint16_t>(f >> 16)};
}

inline float from_bfloat16(bfloat16 value) {
  const std::uint32_t f = static_cast<std::uint32_t>(value.bits) << 16;
  float out = 0.0f;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

inline float16 to_float16(float value) {
  std::uint32_t f = 0;
  std::memcpy(&f, &value, sizeof(f));
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  f &= 0x7fffffffu;

  if (f >= 0x7f800000u) {  // infinity or NaN
    if (f > 0x7f800000u) {
      const std::uint32_t payload = (f >> 13) & 0x3ffu;
      return float16{static_cast<std::uint16_t>(
          sign | 0x7c00u | payload | (payload == 0 ? 0x200u : 0u))};
    }
    return float16{static_cast<std::uint16_t>(sign | 0x7c00u)};
  }
  if (f >= 0x477ff000u) {  // rounds past 65504 (fp16 max) -> infinity
    return float16{static_cast<std::uint16_t>(sign | 0x7c00u)};
  }
  if (f >= 0x38800000u) {  // normal fp16
    const std::uint32_t mant = f & 0x7fffffu;
    std::uint32_t out = (((f >> 23) - 112u) << 10) | (mant >> 13);
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) {
      ++out;  // carry may ripple into the exponent field — still correct
    }
    return float16{static_cast<std::uint16_t>(sign | out)};
  }
  if (f <= 0x33000000u) {  // at or below half the smallest subnormal
    return float16{sign};  // ties-to-even rounds 2^-25 itself to zero
  }
  // Subnormal fp16: round mantissa (with hidden bit) shifted into the
  // 2^-24 quantum grid. A carry to 1024 lands exactly on the smallest
  // normal encoding.
  const std::uint32_t shift = 126u - (f >> 23);
  const std::uint32_t mant = (f & 0x7fffffu) | 0x800000u;
  std::uint32_t out = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t half = 1u << (shift - 1u);
  if (rem > half || (rem == half && (out & 1u))) ++out;
  return float16{static_cast<std::uint16_t>(sign | out)};
}

inline float from_float16(float16 value) {
  const std::uint16_t h = value.bits;
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x3ffu;
  std::uint32_t f = 0;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {
      // Normalize the subnormal: shift until the hidden bit appears.
      std::uint32_t shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      f = sign | ((113u - shift) << 23) | ((mant & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out = 0.0f;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

/// Wire/storage dtype selector shared by the reduced-precision encoders
/// (gradient buckets, checkpoint payloads). Values are serialized into
/// format headers — never renumber.
enum class HalfKind : std::uint8_t { Bf16 = 0, Fp16 = 1 };

/// Quantize to the given half format and back — the value a consumer on
/// the other side of a wire or checkpoint will reconstruct.
inline float quantize(float value, HalfKind kind) {
  return kind == HalfKind::Bf16 ? from_bfloat16(to_bfloat16(value))
                                : from_float16(to_float16(value));
}

namespace detail {

inline std::uint16_t load_half(const std::uint8_t* p) {
  std::uint16_t bits = 0;
  std::memcpy(&bits, p, sizeof(bits));
  return bits;
}

inline void store_half(std::uint8_t* p, std::uint16_t bits) {
  std::memcpy(p, &bits, sizeof(bits));
}

/// Calls `fn(encode, decode)` with the converters of `kind`, so each loop
/// inside `fn` is compiled once per format and tests the kind once, not
/// per element. The loops index local pointers, not the captured spans: a
/// byte store may alias anything, so a loop over a captured span reloads
/// its data and size on every element (2x slower encodes).
template <typename Fn>
void with_converters(HalfKind kind, Fn&& fn) {
  if (kind == HalfKind::Bf16) {
    fn([](float v) { return to_bfloat16(v).bits; },
       [](std::uint16_t h) { return from_bfloat16(bfloat16{h}); });
  } else {
    fn([](float v) { return to_float16(v).bits; },
       [](std::uint16_t h) { return from_float16(float16{h}); });
  }
}

}  // namespace detail

/// Byte codecs, the form a comm payload carries: value i occupies
/// wire[2i, 2i+2) in host byte order and is read and written through
/// memcpy, so `wire` may be any byte buffer. wire.size() must be twice the
/// float count (checked).
inline void encode_half(std::span<const float> in, std::span<std::uint8_t> wire,
                        HalfKind kind) {
  LTFB_CHECK_MSG(wire.size() == 2 * in.size(),
                 "half encode size mismatch: " << in.size() << " floats vs "
                                               << wire.size() << " bytes");
  detail::with_converters(kind, [&](auto encode, auto /*decode*/) {
    const float* src = in.data();
    std::uint8_t* dst = wire.data();
    for (std::size_t i = 0, n = in.size(); i < n; ++i) {
      detail::store_half(dst + 2 * i, encode(src[i]));
    }
  });
}

inline void decode_half(std::span<const std::uint8_t> wire,
                        std::span<float> out, HalfKind kind) {
  LTFB_CHECK_MSG(wire.size() == 2 * out.size(),
                 "half decode size mismatch: " << wire.size() << " bytes vs "
                                               << out.size() << " floats");
  detail::with_converters(kind, [&](auto /*encode*/, auto decode) {
    const std::uint8_t* src = wire.data();
    float* dst = out.data();
    for (std::size_t i = 0, n = out.size(); i < n; ++i) {
      dst[i] = decode(detail::load_half(src + 2 * i));
    }
  });
}

/// One reduce hop of a half-precision ring, in place on the payload:
/// wire = encode(decode(wire) + own). Each sum is incoming + own, which
/// IEEE addition makes bit for bit own + incoming unless both are NaN (the
/// compiler may order the operands either way, and the result then keeps
/// one of the two payloads). `sum`, when not empty, receives
/// decode(new wire) — the value every receiver of the payload
/// reconstructs; it may alias `own`.
inline void add_into_half(std::span<std::uint8_t> wire,
                          std::span<const float> own, std::span<float> sum,
                          HalfKind kind) {
  LTFB_CHECK_MSG(wire.size() == 2 * own.size(),
                 "half ring size mismatch: " << wire.size() << " bytes vs "
                                             << own.size() << " floats");
  LTFB_CHECK_MSG(sum.empty() || sum.size() == own.size(),
                 "half ring sum size " << sum.size() << " vs " << own.size());
  detail::with_converters(kind, [&](auto encode, auto decode) {
    std::uint8_t* io = wire.data();
    const float* add = own.data();
    float* keep = sum.empty() ? nullptr : sum.data();
    for (std::size_t i = 0, n = own.size(); i < n; ++i) {
      const std::uint16_t bits =
          encode(decode(detail::load_half(io + 2 * i)) + add[i]);
      detail::store_half(io + 2 * i, bits);
      if (keep != nullptr) keep[i] = decode(bits);
    }
  });
}

/// Span codecs over uint16 storage (out.size() must match in.size() —
/// checked): the byte codecs above, viewing the storage as bytes.
inline void encode_half(std::span<const float> in,
                        std::span<std::uint16_t> out, HalfKind kind) {
  LTFB_CHECK_MSG(in.size() == out.size(),
                 "half encode size mismatch: " << in.size() << " vs "
                                               << out.size());
  encode_half(in,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(out.data()), out.size_bytes()),
              kind);
}

inline void decode_half(std::span<const std::uint16_t> in,
                        std::span<float> out, HalfKind kind) {
  LTFB_CHECK_MSG(in.size() == out.size(),
                 "half decode size mismatch: " << in.size() << " vs "
                                               << out.size());
  decode_half(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(in.data()),
                  in.size_bytes()),
              out, kind);
}

}  // namespace ltfb::tensor
