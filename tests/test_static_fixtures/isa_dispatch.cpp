// Analyzer fixture — never compiled. A kernel branching on the target ISA
// itself: the AVX2 build and the scalar build now run different arithmetic,
// outside the vec<W> wrapper that keeps them bit-comparable.
//
// expect-finding: isa-dispatch

#include <cstddef>

namespace fixture {

float sum(const float* v, std::size_t n) {
  float acc = 0.0f;
// BAD: raw ISA conditional outside src/tensor/simd.hpp.
#if defined(__AVX2__)
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
#else
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
#endif
  return acc;
}

}  // namespace fixture
