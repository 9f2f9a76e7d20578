#include "comm/socket_backend.hpp"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "comm/socket_io_testing.hpp"
#include "comm/wire.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/compute_pool.hpp"
#include "util/spin_wait.hpp"

namespace ltfb::comm {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

std::atomic<testing::SocketSendHook> g_send_hook{nullptr};
std::atomic<testing::SocketRecvHook> g_recv_hook{nullptr};

ssize_t sys_send(int fd, const void* buf, std::size_t len, int flags) {
  if (const auto hook = g_send_hook.load(std::memory_order_acquire)) {
    return hook(fd, buf, len, flags);
  }
  return ::send(fd, buf, len, flags);
}

ssize_t sys_recv(int fd, void* buf, std::size_t len, int flags) {
  if (const auto hook = g_recv_hook.load(std::memory_order_acquire)) {
    return hook(fd, buf, len, flags);
  }
  return ::recv(fd, buf, len, flags);
}

/// A syscall result that is not progress and not a terminal failure.
/// EAGAIN/EWOULDBLOCK can surface on these blocking sockets through
/// SO_SNDTIMEO/SO_RCVTIMEO or injection; treating them as retryable keeps
/// the resumption loops correct under either.
bool retryable_errno() {
  return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
}

/// Writes the whole buffer, resuming short writes and retrying
/// EINTR/EAGAIN. MSG_NOSIGNAL turns a closed peer into an EPIPE return
/// instead of a process signal.
bool write_all(int fd, const std::uint8_t* data, std::size_t count) {
  while (count > 0) {
    const ssize_t n = sys_send(fd, data, count, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      count -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && retryable_errno()) continue;
    return false;
  }
  return true;
}

/// One direction-agnostic connection to a peer rank. The write side is
/// shared by every sending thread (mutex-serialized, which also makes the
/// per-pair sequence numbers contiguous on the wire); the read side belongs
/// exclusively to this link's reader thread.
struct PeerLink {
  int fd = -1;
  util::Mutex write_mutex;
  std::uint64_t send_seq LTFB_GUARDED_BY(write_mutex){0};
  bool write_failed LTFB_GUARDED_BY(write_mutex) = false;
  std::uint64_t recv_seq = 0;  // reader thread only
  std::thread reader;
};

/// What this endpoint currently knows about one peer. Written by the
/// link's reader thread (and by finalize_rank for the self entry), read by
/// everyone, hence the atomics. Monotone: flags only ever flip to true.
struct PeerView {
  std::atomic<bool> dead{false};
  std::atomic<bool> departed{false};
};

/// One shrink rendezvous as seen by one endpoint, keyed by
/// (comm_id, per-comm shrink sequence). Unlike the in-process backend there
/// is one such map PER RANK, kept convergent by the control-frame protocol.
struct ShrinkPoint {
  std::set<int> arrived;  // world ranks whose ShrinkArrive we have seen
  bool sealed = false;
  bool aborted = false;
  std::vector<int> survivors;  // valid once sealed
};

/// Everything one world rank owns: its mailbox, its links and views of all
/// peers, its shrink state, and its deterministic fault/flow counters. In
/// loopback mode one process holds all endpoints; in spawned-process mode
/// it holds exactly one.
struct SocketEndpoint {
  int self = -1;
  detail::Mailbox mailbox;
  std::vector<PeerView> views;                   // indexed by world rank
  std::vector<std::unique_ptr<PeerLink>> links;  // [self] stays null
  util::Mutex shrink_mutex;
  std::condition_variable shrink_cv;
  std::map<std::pair<std::uint64_t, std::uint64_t>, ShrinkPoint> shrink_points
      LTFB_GUARDED_BY(shrink_mutex);
  std::atomic<std::uint64_t> ops{0};   // top-level communication ops
  std::atomic<std::uint64_t> msgs{0};  // user-level messages sent
  std::atomic<bool> finalized{false};
};

class SocketBackend final : public Backend {
 public:
  /// Loopback: all ranks in this process, one socketpair per rank pair.
  explicit SocketBackend(int size) : size_(size) {
    endpoints_.resize(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      endpoints_[static_cast<std::size_t>(r)] = make_endpoint(r);
    }
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        int sv[2] = {-1, -1};
        LTFB_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                       "socketpair failed: " << std::strerror(errno));
        link(i, j).fd = sv[0];
        link(j, i).fd = sv[1];
      }
    }
    for (int r = 0; r < size; ++r) {
      for (int p = 0; p < size; ++p) {
        if (p != r) start_reader(r, p);
      }
    }
  }

  /// Process mode: this process is world rank `self`, pre-wired by the
  /// launcher. Only the self endpoint exists.
  SocketBackend(int size, int self, std::vector<int> peer_fds) : size_(size) {
    LTFB_CHECK_MSG(static_cast<int>(peer_fds.size()) == size,
                   "peer fd table has " << peer_fds.size() << " entries for a "
                                        << size << "-rank world");
    endpoints_.resize(static_cast<std::size_t>(size));
    endpoints_[static_cast<std::size_t>(self)] = make_endpoint(self);
    for (int p = 0; p < size; ++p) {
      if (p == self) continue;
      link(self, p).fd = peer_fds[static_cast<std::size_t>(p)];
      start_reader(self, p);
    }
  }

  /// Shuts down every fd (which both unblocks our own readers and tells
  /// still-listening peers we are gone), then joins readers and closes.
  ~SocketBackend() override {
    for (const auto& ep : endpoints_) {
      if (!ep) continue;
      for (const auto& peer_link : ep->links) {
        if (!peer_link || peer_link->fd < 0) continue;
        {
          const util::MutexLock lock(peer_link->write_mutex);
          peer_link->write_failed = true;
        }
        ::shutdown(peer_link->fd, SHUT_RDWR);
      }
    }
    for (const auto& ep : endpoints_) {
      if (!ep) continue;
      for (const auto& peer_link : ep->links) {
        if (peer_link && peer_link->reader.joinable()) peer_link->reader.join();
      }
    }
    for (const auto& ep : endpoints_) {
      if (!ep) continue;
      for (const auto& peer_link : ep->links) {
        if (peer_link && peer_link->fd >= 0) ::close(peer_link->fd);
      }
    }
  }

  BackendKind kind() const noexcept override { return BackendKind::Socket; }

  int size() const noexcept override { return size_; }

  detail::Mailbox& mailbox(int world_rank) override {
    return endpoint(world_rank).mailbox;
  }

  void deliver(int src_world, int dst_world, detail::Envelope env) override {
    SocketEndpoint& ep = endpoint(src_world);
    if (src_world == dst_world) {
      ep.mailbox.push(std::move(env));
      return;
    }
    wire::Frame frame;
    frame.kind = wire::FrameKind::Message;
    frame.comm_id = env.comm_id;
    frame.tag = env.tag;
    frame.src = src_world;
    frame.dst = dst_world;
    frame.flow_id = env.flow_id;
    frame.payload = std::move(env.payload);
    if (!send_frame(ep, dst_world, frame)) on_write_failure(ep, dst_world);
  }

  bool dead(int observer, int peer) const override {
    return endpoint(observer)
        .views[static_cast<std::size_t>(peer)]
        .dead.load(std::memory_order_acquire);
  }

  bool gone(int observer, int peer) const override {
    const PeerView& view =
        endpoint(observer).views[static_cast<std::size_t>(peer)];
    return view.dead.load(std::memory_order_acquire) ||
           view.departed.load(std::memory_order_acquire);
  }

  /// Clean: tell every peer with a GOODBYE frame (they mark us departed;
  /// the EOF that follows teardown is then normal). Abrupt (exception or
  /// injected kill): half-close every link so peers see a GOODBYE-less EOF
  /// and mark us dead — the same signal a crashed process emits, which is
  /// the whole point. Our readers keep draining either way so peers never
  /// block on a full socket buffer mid-teardown.
  void finalize_rank(int world_rank, bool clean) override {
    SocketEndpoint& ep = endpoint(world_rank);
    if (ep.finalized.exchange(true)) return;
    PeerView& self_view = ep.views[static_cast<std::size_t>(world_rank)];
    (clean ? self_view.departed : self_view.dead)
        .store(true, std::memory_order_release);
    for (int p = 0; p < size_; ++p) {
      if (p == world_rank) continue;
      if (clean) {
        wire::Frame goodbye;
        goodbye.kind = wire::FrameKind::Goodbye;
        goodbye.src = world_rank;
        goodbye.dst = p;
        send_frame(ep, p, goodbye);  // best effort; a dead peer won't read it
      } else {
        PeerLink& peer_link = link(world_rank, p);
        const util::MutexLock lock(peer_link.write_mutex);
        peer_link.write_failed = true;
        ::shutdown(peer_link.fd, SHUT_WR);
      }
    }
    wake(ep);
  }

  const FaultSchedule& faults() const override { return faults_; }
  void set_faults(FaultSchedule schedule) override {
    faults_ = std::move(schedule);
  }

  std::uint64_t next_op(int world_rank) override {
    return endpoint(world_rank).ops.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t next_msg(int world_rank) override {
    return endpoint(world_rank).msgs.fetch_add(1, std::memory_order_relaxed);
  }

  /// Cross-process survivor agreement. Everyone broadcasts ShrinkArrive;
  /// the leader — the lowest group rank this endpoint does not know gone —
  /// seals once every member has arrived or is gone, then broadcasts the
  /// sealed set. Leadership converges because gone() is monotone and fed by
  /// the same EOF/GOODBYE events on every endpoint: if the current leader
  /// dies, its EOF wakes the waiters and the next-lowest rank takes over
  /// (a member that already arrived never becomes leader wrongly, because
  /// arrival precedes any possible death in frame order). A timeout aborts
  /// the rendezvous for the whole group, never just locally.
  std::vector<int> shrink_rendezvous(std::uint64_t comm_id, std::uint64_t seq,
                                     int self_world,
                                     const std::vector<int>& group,
                                     const Deadline& deadline) override {
    SocketEndpoint& ep = endpoint(self_world);
    const std::pair<std::uint64_t, std::uint64_t> key(comm_id, seq);
    const auto expiry = deadline.expires_at();
    {
      const util::MutexLock lock(ep.shrink_mutex);
      ep.shrink_points[key].arrived.insert(self_world);
    }
    Serializer arrive;
    arrive.u64(seq);
    for (const int wr : group) {
      if (wr != self_world) {
        send_control(ep, wr, wire::FrameKind::ShrinkArrive, comm_id,
                     arrive.buffer());
      }
    }
    std::vector<int> survivors;
    bool sealed_here = false;
    bool aborted = false;
    const telemetry::flight::PendingOp pending_op(
        "comm/shrink_rendezvous", static_cast<std::int64_t>(seq), -1);
    {
      util::MutexLock lock(ep.shrink_mutex);
      for (;;) {
        ShrinkPoint& point = ep.shrink_points[key];
        if (point.sealed) {
          survivors = point.survivors;
          break;
        }
        if (point.aborted) {
          aborted = true;
          break;
        }
        int leader = size_;
        bool ready = true;
        for (const int wr : group) {
          if (gone(self_world, wr)) continue;
          leader = std::min(leader, wr);
          if (point.arrived.count(wr) == 0) ready = false;
        }
        if (ready && leader == self_world) {
          // Survivors = arrived minus since-dead (a rank can die between
          // its ShrinkArrive and our seal only under real process crashes,
          // never under injected kills, which fire at op entry).
          for (const int wr : point.arrived) {
            if (wr == self_world || !dead(self_world, wr)) {
              survivors.push_back(wr);
            }
          }
          std::sort(survivors.begin(), survivors.end());
          point.sealed = true;
          point.survivors = survivors;
          sealed_here = true;
          ep.shrink_cv.notify_all();
          break;
        }
        if (ep.shrink_cv.wait_until(lock.native(), expiry) ==
            std::cv_status::timeout) {
          ShrinkPoint& now = ep.shrink_points[key];
          if (now.sealed) {
            survivors = now.survivors;
            break;
          }
          if (!now.aborted) {
            now.aborted = true;
            ep.shrink_cv.notify_all();
          }
          aborted = true;
          break;
        }
      }
    }
    if (aborted) {
      Serializer abort_body;
      abort_body.u64(seq);
      for (const int wr : group) {
        if (wr != self_world) {
          send_control(ep, wr, wire::FrameKind::ShrinkAbort, comm_id,
                       abort_body.buffer());
        }
      }
      LTFB_COUNTER_ADD("comm/timeouts", 1);
      std::ostringstream oss;
      oss << "shrink timed out after " << deadline.budget().count()
          << "ms: a peer is neither arrived nor known gone";
      throw TimeoutError(oss.str());
    }
    if (sealed_here) {
      Serializer seal;
      seal.u64(seq);
      std::vector<std::int64_t> wide(survivors.begin(), survivors.end());
      seal.ints(wide);
      for (const int wr : survivors) {
        if (wr != self_world) {
          send_control(ep, wr, wire::FrameKind::ShrinkSeal, comm_id,
                       seal.buffer());
        }
      }
    }
    return survivors;
  }

 private:
  std::unique_ptr<SocketEndpoint> make_endpoint(int self) {
    auto ep = std::make_unique<SocketEndpoint>();
    ep->self = self;
    // Every rank of the world runs on this host, in this process
    // (loopback) or in forked siblings (process mode).
    ep->mailbox.spin = util::spin_fits(static_cast<std::size_t>(size_));
    ep->views = std::vector<PeerView>(static_cast<std::size_t>(size_));
    ep->links.resize(static_cast<std::size_t>(size_));
    for (int p = 0; p < size_; ++p) {
      if (p != self) {
        ep->links[static_cast<std::size_t>(p)] = std::make_unique<PeerLink>();
      }
    }
    return ep;
  }

  SocketEndpoint& endpoint(int world_rank) const {
    const auto& ep = endpoints_[static_cast<std::size_t>(world_rank)];
    LTFB_CHECK_MSG(ep != nullptr, "world rank " << world_rank
                                                << " is not local to this "
                                                   "process's socket backend");
    return *ep;
  }

  PeerLink& link(int owner, int peer) const {
    return *endpoint(owner).links[static_cast<std::size_t>(peer)];
  }

  void start_reader(int owner, int peer) {
    SocketEndpoint& ep = endpoint(owner);
    PeerLink& peer_link = link(owner, peer);
    peer_link.reader = std::thread([this, &ep, &peer_link, peer] {
      telemetry::set_thread_name("comm/socket_reader");
      read_loop(ep, peer_link, peer);
    });
  }

  /// Drains one connection until EOF or error, dispatching every complete
  /// frame. Runs even after the local rank finalized, so a still-sending
  /// peer can never block on a full socket buffer because of us.
  void read_loop(SocketEndpoint& ep, PeerLink& peer_link, int peer) {
    wire::FrameDecoder decoder;
    std::vector<std::uint8_t> chunk(kReadChunk);
    for (;;) {
      const ssize_t n = sys_recv(peer_link.fd, chunk.data(), chunk.size(), 0);
      if (n < 0 && retryable_errno()) continue;
      if (n <= 0) break;  // EOF or connection error
      try {
        decoder.feed(chunk.data(), static_cast<std::size_t>(n));
        for (auto frame = decoder.next(); frame.has_value();
             frame = decoder.next()) {
          dispatch(ep, peer_link, peer, *std::move(frame));
        }
      } catch (const FormatError&) {
        // A peer speaking garbage is as unusable as a dead one.
        mark_peer_dead(ep, peer);
        return;
      }
    }
    if (!ep.views[static_cast<std::size_t>(peer)].departed.load(
            std::memory_order_acquire)) {
      mark_peer_dead(ep, peer);  // EOF without GOODBYE = crash
    }
  }

  void dispatch(SocketEndpoint& ep, PeerLink& peer_link, int peer,
                wire::Frame frame) {
    if (frame.src != peer || frame.dst != ep.self ||
        frame.seq != peer_link.recv_seq) {
      std::ostringstream oss;
      oss << "frame " << frame.src << "->" << frame.dst << " seq " << frame.seq
          << " on link " << peer << "->" << ep.self << " expecting seq "
          << peer_link.recv_seq;
      throw FormatError(oss.str());
    }
    ++peer_link.recv_seq;
    switch (frame.kind) {
      case wire::FrameKind::Message: {
        detail::Envelope env;
        env.world_src = frame.src;
        env.comm_id = frame.comm_id;
        env.tag = frame.tag;
        env.payload = std::move(frame.payload);
        env.flow_id = frame.flow_id;
        ep.mailbox.push(std::move(env));
        break;
      }
      case wire::FrameKind::Goodbye:
        telemetry::flight::record(telemetry::flight::EventKind::Fault,
                                  "fault/peer_departed",
                                  static_cast<std::uint64_t>(ep.self),
                                  static_cast<std::uint64_t>(peer));
        ep.views[static_cast<std::size_t>(peer)].departed.store(
            true, std::memory_order_release);
        wake(ep);
        break;
      case wire::FrameKind::ShrinkArrive: {
        Deserializer in(frame.payload);
        const std::uint64_t key_seq = in.u64();
        in.expect_end();
        {
          const util::MutexLock lock(ep.shrink_mutex);
          ep.shrink_points[{frame.comm_id, key_seq}].arrived.insert(peer);
        }
        ep.shrink_cv.notify_all();
        break;
      }
      case wire::FrameKind::ShrinkSeal: {
        Deserializer in(frame.payload);
        const std::uint64_t key_seq = in.u64();
        const std::vector<std::int64_t> wide = in.ints();
        in.expect_end();
        {
          const util::MutexLock lock(ep.shrink_mutex);
          ShrinkPoint& point = ep.shrink_points[{frame.comm_id, key_seq}];
          if (!point.sealed) {
            point.sealed = true;
            point.survivors.assign(wide.begin(), wide.end());
          }
        }
        ep.shrink_cv.notify_all();
        break;
      }
      case wire::FrameKind::ShrinkAbort: {
        Deserializer in(frame.payload);
        const std::uint64_t key_seq = in.u64();
        in.expect_end();
        {
          const util::MutexLock lock(ep.shrink_mutex);
          ep.shrink_points[{frame.comm_id, key_seq}].aborted = true;
        }
        ep.shrink_cv.notify_all();
        break;
      }
    }
  }

  void mark_peer_dead(SocketEndpoint& ep, int peer) {
    telemetry::flight::record(telemetry::flight::EventKind::Fault,
                              "fault/peer_dead",
                              static_cast<std::uint64_t>(ep.self),
                              static_cast<std::uint64_t>(peer));
    ep.views[static_cast<std::size_t>(peer)].dead.store(
        true, std::memory_order_release);
    wake(ep);
  }

  /// Wakes every blocked wait on this endpoint so failure-aware predicates
  /// re-evaluate. The empty lock/unlock pairs with waiters that checked the
  /// liveness flag before it was set and are already inside cv.wait.
  void wake(SocketEndpoint& ep) {
    { const util::MutexLock lock(ep.mailbox.mutex); }
    ep.mailbox.cv.notify_all();
    { const util::MutexLock lock(ep.shrink_mutex); }
    ep.shrink_cv.notify_all();
  }

  /// Stamps the per-pair sequence and writes the frame under the link's
  /// write mutex. Returns false once the connection is unusable (and never
  /// advances the sequence past a failure, so a later reader resync is
  /// impossible by construction — failures are terminal).
  bool send_frame(SocketEndpoint& ep, int dst, wire::Frame& frame) {
    PeerLink& peer_link = link(ep.self, dst);
    // A full socket buffer with a non-reading peer blocks right here —
    // register the write so the watchdog can name the wedged link.
    const telemetry::flight::PendingOp pending_op("comm/send_frame",
                                                  frame.tag, dst);
    const util::MutexLock lock(peer_link.write_mutex);
    if (peer_link.write_failed) return false;
    frame.seq = peer_link.send_seq;
    const Buffer bytes = wire::encode_frame(frame);
    if (!write_all(peer_link.fd, bytes.data(), bytes.size())) {
      peer_link.write_failed = true;
      return false;
    }
    ++peer_link.send_seq;
    return true;
  }

  /// Control frames ride the same sequenced stream as messages. Send
  /// failures are swallowed: a peer we cannot reach is discovered as dead
  /// through its reader, and the protocols tolerate missing control frames
  /// from dead ranks.
  void send_control(SocketEndpoint& ep, int dst, wire::FrameKind kind,
                    std::uint64_t comm_id, Buffer payload) {
    wire::Frame frame;
    frame.kind = kind;
    frame.comm_id = comm_id;
    frame.src = ep.self;
    frame.dst = dst;
    frame.payload = std::move(payload);
    if (!send_frame(ep, dst, frame)) on_write_failure(ep, dst, false);
  }

  /// A failed write means the peer's socket is gone. If it departed
  /// cleanly, a late message may simply vanish (real networks lose
  /// messages to exited receivers); otherwise record the death and — for
  /// message delivery — fail the send the way a send to a known-dead peer
  /// fails, so callers see one error model.
  void on_write_failure(SocketEndpoint& ep, int dst, bool fail_send = true) {
    if (ep.views[static_cast<std::size_t>(dst)].departed.load(
            std::memory_order_acquire)) {
      return;
    }
    if (!ep.views[static_cast<std::size_t>(dst)].dead.load(
            std::memory_order_acquire)) {
      mark_peer_dead(ep, dst);
    }
    if (!fail_send) return;
    std::ostringstream oss;
    oss << "send failed: connection to world rank " << dst << " is lost";
    throw RankFailedError(oss.str(), dst);
  }

  int size_ = 0;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints_;
  FaultSchedule faults_;
};

}  // namespace

std::shared_ptr<Backend> make_socket_backend_loopback(int size) {
  return std::make_shared<SocketBackend>(size);
}

std::shared_ptr<Backend> make_socket_backend_process(int size, int self,
                                                     std::vector<int> peer_fds) {
  return std::make_shared<SocketBackend>(size, self, std::move(peer_fds));
}

std::vector<SpawnedRank> spawn_socket_mesh(
    int size,
    const std::function<int(int rank, const std::shared_ptr<Backend>& backend)>&
        child_main) {
  LTFB_CHECK_MSG(size > 0, "world size must be positive, got " << size);
  // mesh[i][j] is rank i's end of the (i, j) socketpair.
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(size),
      std::vector<int>(static_cast<std::size_t>(size), -1));
  for (int i = 0; i < size; ++i) {
    for (int j = i + 1; j < size; ++j) {
      int sv[2] = {-1, -1};
      LTFB_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                     "socketpair failed: " << std::strerror(errno));
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }
  // One READY pipe per child: the child writes a byte after its transport
  // endpoint is fully constructed (readers running = rendezvous complete).
  // The parent reads the pipe after reaping — a child that died first
  // leaves it empty, which is exactly the "died before the handshake"
  // signal that gives early deaths rank attribution.
  std::vector<std::array<int, 2>> ready_pipes(
      static_cast<std::size_t>(size), {-1, -1});
  for (auto& ready_pipe : ready_pipes) {
    int fds[2] = {-1, -1};
    LTFB_CHECK_MSG(::pipe(fds) == 0,
                   "pipe failed: " << std::strerror(errno));
    ready_pipe = {fds[0], fds[1]};
  }
  std::vector<pid_t> pids(static_cast<std::size_t>(size), -1);
  // Fork from a team of one: no compute worker is alive at any fork, so a
  // child inherits a consistent team with nothing to join, and a thread
  // sanitizer sees a single-threaded parent. The parent gets its team size
  // back after the last fork; a failed fork leaves it at 1, which changes
  // no result.
  util::ComputePool& team = util::ComputePool::instance();
  const std::size_t team_size = team.size();
  team.resize(1);
  for (int r = 0; r < size; ++r) {
    const pid_t pid = ::fork();
    LTFB_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: keep only this rank's row of the mesh and its own READY
      // write end.
      for (int i = 0; i < size; ++i) {
        for (int j = 0; j < size; ++j) {
          const int fd = mesh[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(j)];
          if (i != r && fd >= 0) ::close(fd);
        }
      }
      for (int i = 0; i < size; ++i) {
        ::close(ready_pipes[static_cast<std::size_t>(i)][0]);
        if (i != r) ::close(ready_pipes[static_cast<std::size_t>(i)][1]);
      }
      // Arm the flight recorder before the backend exists so even a crash
      // during endpoint construction leaves postmortem_rank<r>.json.
      telemetry::flight::init_from_env();
      telemetry::flight::set_process_rank(r);
      telemetry::set_thread_name("comm/rank_main");
      int code = 1;
      {
        auto backend = make_socket_backend_process(
            size, r, mesh[static_cast<std::size_t>(r)]);
        const char ready_byte = 'R';
        const int ready_fd = ready_pipes[static_cast<std::size_t>(r)][1];
        (void)!::write(ready_fd, &ready_byte, 1);
        ::close(ready_fd);
        code = child_main(r, backend);
      }  // backend teardown: shutdown + join readers + close
      ::_exit(code);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  team.resize(team_size);
  for (const auto& row : mesh) {
    for (const int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (const auto& ready_pipe : ready_pipes) ::close(ready_pipe[1]);
  std::vector<SpawnedRank> results(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    int status = 0;
    const pid_t waited =
        ::waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    SpawnedRank& result = results[static_cast<std::size_t>(r)];
    result.rank = r;
    if (waited < 0) {
      result.exited = true;
      result.exit_code = 1;
    } else if (WIFEXITED(status)) {
      result.exited = true;
      result.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      result.exited = false;
      result.term_signal = WTERMSIG(status);
    }
    // The child is reaped, so this read never blocks: one byte means the
    // endpoint came up, EOF means it died pre-rendezvous.
    char ready_byte = 0;
    const int ready_fd = ready_pipes[static_cast<std::size_t>(r)][0];
    ssize_t n;
    do {
      n = ::read(ready_fd, &ready_byte, 1);
    } while (n < 0 && errno == EINTR);
    result.ready = n == 1;
    ::close(ready_fd);
  }
  return results;
}

namespace testing {

void set_socket_io_hooks(SocketSendHook send_hook, SocketRecvHook recv_hook) {
  g_send_hook.store(send_hook, std::memory_order_release);
  g_recv_hook.store(recv_hook, std::memory_order_release);
}

}  // namespace testing

}  // namespace ltfb::comm
