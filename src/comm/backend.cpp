#include "comm/backend.hpp"

#include <cstdlib>
#include <string>

#include "comm/inproc_backend.hpp"
#include "comm/socket_backend.hpp"
#include "util/rng.hpp"

namespace ltfb::comm {

const char* backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::InProc: return "inproc";
    case BackendKind::Socket: return "socket";
  }
  return "unknown";
}

BackendKind backend_kind_from_env() {
  const char* env = std::getenv("LTFB_COMM_BACKEND");
  if (env == nullptr || *env == '\0') return BackendKind::InProc;
  const std::string value(env);
  if (value == "inproc") return BackendKind::InProc;
  if (value == "socket") return BackendKind::Socket;
  throw InvalidArgument("LTFB_COMM_BACKEND must be 'inproc' or 'socket', got '" +
                        value + "'");
}

std::shared_ptr<Backend> make_backend(BackendKind kind, int size) {
  LTFB_CHECK_MSG(size > 0, "world size must be positive, got " << size);
  switch (kind) {
    case BackendKind::InProc: return make_inproc_backend(size);
    case BackendKind::Socket: return make_socket_backend_loopback(size);
  }
  throw InvalidArgument("unknown backend kind");
}

std::uint64_t Backend::next_flow_id(std::uint64_t comm_id, std::int64_t tag,
                                    int src, int dst) {
  detail::Mailbox& box = mailbox(src);
  std::uint64_t seq = 0;
  {
    const util::MutexLock lock(box.flow_mutex);
    seq = box.flow_seq[std::tuple(comm_id, tag, dst)]++;
  }
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return util::derive_seed(comm_id ^ static_cast<std::uint64_t>(tag), pair,
                           seq) |
         1ull;
}

std::vector<telemetry::flight::PendingOpInfo> Backend::pending_ops() const {
  return telemetry::flight::pending_ops();
}

}  // namespace ltfb::comm
