// Analyzer fixture — never compiled. Tensor::reshape is a manifest entry
// point: it must reject a shape whose volume differs from the data it
// reinterprets. This version trusts its caller.
//
// expect-finding: entry-checks

#include "tensor/tensor.hpp"

namespace ltfb::tensor {

// BAD: no LTFB_CHECK on the new shape's volume.
void Tensor::reshape(Shape shape) { shape_ = std::move(shape); }

}  // namespace ltfb::tensor
