// Analyzer fixture — never compiled. A library trainer printing its own
// progress: the line bypasses the logging sinks, so it interleaves with
// other ranks' output and no test can capture or silence it.
//
// expect-finding: stdout

#include <iostream>

namespace fixture {

void report_epoch(int epoch, double loss) {
  // BAD: direct console write from src/; use util/logging.
  std::cout << "epoch " << epoch << " loss " << loss << '\n';
}

}  // namespace fixture
