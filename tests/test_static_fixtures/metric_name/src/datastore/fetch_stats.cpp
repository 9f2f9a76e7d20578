// Analyzer fixture — never compiled. A counter registered under a name that
// breaks the subsystem/verb convention: it becomes a JSON key and a
// Perfetto track label that no dashboard or test looks for.
//
// expect-finding: telemetry

#include "telemetry/telemetry.hpp"

namespace fixture {

void count_fetch() {
  // BAD: mixed case and '.' instead of lowercase segments joined by '/'.
  LTFB_COUNTER_ADD("DataStore.Fetches", 1);
}

}  // namespace fixture
