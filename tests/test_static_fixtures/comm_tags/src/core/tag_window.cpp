// Analyzer fixture — never compiled. A core/ helper minting tags in the
// internal collective namespace (bit 62): its messages can match a
// collective's internal hops and corrupt the reduction.
//
// expect-finding: comm-tags

#include <cstdint>

namespace fixture {

// BAD: only Communicator::next_internal_tag may set bit 62.
constexpr std::int64_t kPrivateWindow = std::int64_t{1} << 62;

std::int64_t window_tag(int slot) { return kPrivateWindow + slot; }

}  // namespace fixture
