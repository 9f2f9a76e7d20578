// Analyzer fixture — never compiled. The naked recv() of naked_recv.cpp,
// placed after a hex literal with C++14 digit separators. A stripper that
// takes those separators for char-literal quotes blanks the rest of the
// file and never sees the call.
//
// expect-finding: comm-deadline

#include "comm/communicator.hpp"

namespace fixture {

constexpr int kReqTag = 1 << 13;
constexpr unsigned long long kSalt = 0x5bf0'3635'dee3'9d2dull;

void serve(ltfb::comm::Communicator& comm, int peer) {
  comm.send(peer, kReqTag, ltfb::comm::Buffer{});
  // BAD: blocking receive with no deadline — hangs forever on rank failure.
  const ltfb::comm::Buffer request = comm.recv(peer, kReqTag);
  (void)request;
}

}  // namespace fixture
