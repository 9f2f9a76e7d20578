// Analyzer fixture — never compiled. A dense layer multiplying by hand: the
// loop nest bypasses the tiled, pool-threaded tensor::gemm kernel, its
// conformance tests and its telemetry.
//
// expect-finding: matmul-nest

#include <cstddef>
#include <vector>

namespace fixture {

void dense_forward(const std::vector<float>& x, const std::vector<float>& w,
                   std::vector<float>& y, std::size_t m, std::size_t k,
                   std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) {
        // BAD: hand-rolled multiply-accumulate; call tensor::gemm.
        y[i * n + j] += x[i * k + p] * w[p * n + j];
      }
    }
  }
}

}  // namespace fixture
