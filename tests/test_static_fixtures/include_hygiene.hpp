// Analyzer fixture — never compiled. A header with no include guard pragma
// that reaches a project header through a parent-relative path: including
// it twice redefines everything, and the path breaks when the file moves.
//
// expect-finding: include-hygiene

// BAD: parent-relative project include.
#include "../util/rng.hpp"

namespace fixture {

inline int twice(int x) { return 2 * x; }

}  // namespace fixture
