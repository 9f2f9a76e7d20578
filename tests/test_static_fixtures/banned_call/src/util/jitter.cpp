// Analyzer fixture — never compiled. Library code under src/ drawing from
// the process-global C generator: the stream is unseeded and shared by
// every rank thread, so no run can be replayed.
//
// expect-finding: banned-call

#include <cstdlib>

namespace fixture {

int jitter_ms(int spread) {
  // BAD: std::rand instead of a seeded util::Rng.
  return std::rand() % spread;
}

}  // namespace fixture
