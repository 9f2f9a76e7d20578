// Analyzer fixture — never compiled. The raw string below holds a lone
// double quote. A stripper without a raw-string case takes that quote for
// the start of a literal running to the end of the file, which hides the
// banned call after it.
//
// expect-finding: banned-call

#include <cstdlib>
#include <string>

namespace fixture {

const std::string kQuote = R"(")";

int pick(int n) {
  // BAD: std::rand instead of a seeded util::Rng.
  return std::rand() % n;
}

}  // namespace fixture
