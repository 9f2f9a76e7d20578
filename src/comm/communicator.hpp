// Message-passing substrate (the Aluminum / MPI substitute).
//
// The paper's framework runs MPI ranks across cluster nodes; here each rank
// owns a mailbox of typed messages, and the transport beneath it is
// pluggable (comm/backend.hpp): the in-process backend runs every rank as a
// thread of this process, the socket backend runs ranks over Unix-domain
// stream sockets — as loopback threads or as one OS process per rank via
// World::spawn_processes. The programming model is deliberately MPI-shaped:
//
//   * blocking send/recv with (source, tag) matching and ANY_SOURCE,
//   * nonblocking isend/irecv returning Request handles,
//   * collectives (barrier, broadcast, all-reduce, all-gather) implemented
//     on top of point-to-point with internally reserved tags,
//   * communicator split (color/key) — this is what groups ranks into
//     LBANN-style trainers,
//
// so src/core (LTFB) and src/datastore are written exactly as they would be
// against MPI and never see the backend types. Collectives must be invoked
// in the same order by every rank of a communicator (the standard MPI
// contract); a per-rank lockstep sequence number isolates concurrent
// collectives from one another.
//
// Every blocking call takes a comm::Deadline (defaulting to never): the
// one options-style form replaces the old timeout overload pairs, with the
// old signatures kept as thin inline shims.
//
// Observability: World::run_ranks binds each rank thread to a telemetry
// rank scope (telemetry::bind_rank), and every message — point-to-point
// and collective hop alike — is stamped with a deterministic flow
// correlation id derived from (comm id, tag, src, dst, per-pair seq).
// The telemetry exporter turns the matched send/recv endpoints into
// Chrome-trace flow arrows (DESIGN.md §11); the socket wire format carries
// the id verbatim so cross-process arrows still match.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "comm/backend.hpp"
#include "util/error.hpp"

namespace ltfb::comm {

/// Matches any source rank in recv/irecv.
inline constexpr int kAnySource = -1;

/// Reduction operators supported by allreduce/reduce.
enum class ReduceOp { Sum, Max, Min };

namespace detail {
struct PendingRecv;

/// Debug-mode detector for the communicator single-thread contract: a
/// handle is stamped with the calling thread's id for the duration of each
/// send/recv/collective. A second thread entering while the stamp is held
/// fails fast with a clear message instead of racing on mailbox matching
/// and the collective sequence number. Sequential hand-off between threads
/// (e.g. DataStore::begin_fetch moving comm work to a helper thread) is
/// allowed: the stamp clears on exit. Copying a handle resets the stamp —
/// each copy is an independent single-threaded handle.
class ThreadUseStamp {
 public:
  ThreadUseStamp() = default;
  ThreadUseStamp(const ThreadUseStamp&) noexcept {}
  ThreadUseStamp& operator=(const ThreadUseStamp&) noexcept { return *this; }

  /// Claims the stamp for the calling thread (reentrant); throws
  /// ltfb::Error naming `what` if another thread currently holds it.
  void enter(const char* what);
  void leave() noexcept;

 private:
  std::atomic<std::thread::id> user_{};
  int depth_ = 0;  // touched only by the thread holding user_
};

/// RAII wrapper around ThreadUseStamp::enter/leave.
class ScopedUse {
 public:
  ScopedUse(ThreadUseStamp& stamp, const char* what) : stamp_(stamp) {
    stamp_.enter(what);
  }
  ~ScopedUse() { stamp_.leave(); }
  ScopedUse(const ScopedUse&) = delete;
  ScopedUse& operator=(const ScopedUse&) = delete;

 private:
  ThreadUseStamp& stamp_;
};
}  // namespace detail

/// Completion handle for nonblocking operations.
///
/// Edge-case contract (tested in tests/test_comm.cpp):
///   * test()/wait() on a default-constructed (invalid) handle throw.
///   * wait() after completion returns immediately; calling it twice is
///     legal and idempotent.
///   * Communicator::take_payload before completion throws; after a
///     successful take, the request stays completed but its payload is
///     gone (a second take returns an empty buffer).
///   * Destroying an incomplete request is safe: the pending receive is
///     simply abandoned and the matching message (if any) stays in the
///     mailbox for a later receive to claim.
class Request {
 public:
  Request() = default;

  /// True once the operation has completed. Never blocks.
  bool test();

  /// Blocks until completion or the deadline. Throws ltfb::RankFailedError
  /// if the awaited peer (or, for ANY_SOURCE, every peer in the group) is
  /// known to have failed or departed without the message ever arriving;
  /// throws ltfb::TimeoutError once a bounded deadline expires. A timed-out
  /// request stays VALID and re-waitable — the receive is not cancelled,
  /// the message can still arrive, and a later wait()/test() can complete
  /// it (tested in tests/test_comm.cpp).
  void wait(const Deadline& deadline = Deadline::never());

  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Communicator;
  explicit Request(std::shared_ptr<detail::PendingRecv> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::PendingRecv> state_;
};

/// A rank's handle onto a (sub-)communicator. Cheap to copy; all copies of
/// the same rank's handle share mailbox state. NOT thread-safe across
/// threads for the same rank (same as an MPI communicator used from one
/// thread). Debug builds (and LTFB_BOUNDS_CHECK builds) enforce this: two
/// threads inside send/recv/collectives of the same handle at the same
/// time fail fast with ltfb::Error instead of racing. Handing the handle
/// from one thread to another between calls remains legal.
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return static_cast<int>(group_.size()); }

  /// Global rank in the world of a rank of this communicator.
  int world_rank_of(int rank) const;

  // -- point to point ------------------------------------------------------

  /// Sends never block (mailboxes are unbounded). The payload is moved
  /// into the message, so an in-process receiver gets the sender's buffer:
  /// pass an rvalue to hand a buffer over without a copy.
  void send(int dst, int tag, Buffer payload);
  void send(int dst, int tag, std::span<const float> values);

  /// Blocking receive; fills `source_out` when non-null. Throws
  /// ltfb::RankFailedError if the awaited peer has failed (and the message
  /// never arrived); with a bounded deadline, throws ltfb::TimeoutError
  /// when no matching message arrives in time (the message is NOT consumed
  /// if it arrives later — a subsequent recv can still claim it).
  Buffer recv(int src, int tag, const Deadline& deadline,
              int* source_out = nullptr);

  /// Shim for the pre-Deadline signature.
  Buffer recv(int src, int tag, int* source_out = nullptr) {
    return recv(src, tag, Deadline::never(), source_out);
  }

  /// Nonblocking receive; the returned request owns the landing buffer,
  /// retrievable with `take_payload` after completion.
  Request irecv(int src, int tag);
  Buffer take_payload(Request& request);

  /// Simultaneous exchange with a partner (deadlock-free). The send always
  /// completes (mailboxes are unbounded); the receive half obeys the
  /// deadline like recv.
  Buffer sendrecv(int partner, int tag, Buffer payload,
                  const Deadline& deadline = Deadline::never());

  // -- collectives (must be called by every rank, in the same order) -------

  void barrier();
  void broadcast(int root, Buffer& payload);
  void broadcast(int root, std::span<float> values);

  /// In-place ring all-reduce over a float span (reduce-scatter followed by
  /// all-gather, the algorithm used by NCCL/Aluminum for large tensors).
  void allreduce(std::span<float> values, ReduceOp op = ReduceOp::Sum);

  /// Gathers equal-size contributions from every rank, in rank order.
  std::vector<float> allgather(std::span<const float> contribution);

  /// Reduction onto `root` only (binomial tree); non-root ranks' buffers
  /// are left untouched.
  void reduce(int root, std::span<float> values, ReduceOp op = ReduceOp::Sum);

  /// Gathers equal-size contributions at `root` (rank order); returns an
  /// empty vector on other ranks.
  std::vector<float> gather(int root, std::span<const float> contribution);

  /// Scatters `root`'s buffer of size ranks*chunk; every rank receives its
  /// `chunk`-sized slice. `send` is ignored on non-root ranks.
  std::vector<float> scatter(int root, std::span<const float> send,
                             std::size_t chunk);

  /// Splits into sub-communicators by color; ranks with the same color end
  /// up in the same sub-communicator, ordered by (key, old rank).
  Communicator split(int color, int key);

  /// ULFM-style survivor agreement (in miniature): every live rank of this
  /// communicator calls shrink; the call blocks until each group member has
  /// either arrived at the same rendezvous or is known gone (failed or
  /// departed), then all arrivals agree on the identical sorted survivor
  /// set and receive a rebuilt sub-communicator over exactly those ranks
  /// (ranks renumbered 0..k-1 in world-rank order, fresh communicator id).
  /// The deadline must be bounded; ltfb::TimeoutError is thrown — on every
  /// blocked arrival — if agreement is not reached in time (e.g. a peer is
  /// alive but wedged), so a stuck shrink never hangs the survivors.
  Communicator shrink(const Deadline& deadline);

 private:
  friend class World;
  Communicator(std::shared_ptr<Backend> world, std::uint64_t id,
               std::vector<int> group, int rank)
      : world_(std::move(world)),
        comm_id_(id),
        group_(std::move(group)),
        rank_(rank) {}

  std::uint64_t next_internal_tag(std::uint64_t kind);

  /// RAII op counter for deterministic fault injection: counts one
  /// top-level communication operation per public entry point (nested
  /// internal calls do not re-count) and fires the rank's scheduled kill,
  /// if any. Always on — fault schedules must work in release builds.
  class FaultScope;
  void fault_tick(const char* what);

  std::shared_ptr<Backend> world_;
  std::uint64_t comm_id_ = 0;
  std::vector<int> group_;  // group_[r] = world rank of communicator rank r
  int rank_ = 0;
  std::uint64_t collective_seq_ = 0;
  std::uint64_t split_seq_ = 0;
  std::uint64_t shrink_seq_ = 0;
  int fault_depth_ = 0;  // >0 while inside a counted operation
  mutable detail::ThreadUseStamp use_stamp_;  // single-thread contract check
};

/// Owns the transport for `size` ranks and creates per-rank handles.
///
/// The constructor auto-installs any schedule found in the
/// LTFB_FAULT_SCHEDULE environment variable (see comm/fault.hpp for the
/// grammar), so fault injection works on unmodified binaries; the backend
/// defaults to the LTFB_COMM_BACKEND environment variable ("inproc" unless
/// overridden), so unmodified binaries can be rerun on the socket
/// transport too.
class World {
 public:
  explicit World(int size);
  World(int size, BackendKind kind);

  int size() const noexcept;
  BackendKind backend_kind() const noexcept;

  /// The world communicator handle for `rank`. Each rank should obtain
  /// exactly one handle and use it from one thread at a time.
  Communicator communicator(int rank);

  /// Installs a deterministic fault schedule (replacing any env-installed
  /// one). Must be called before rank threads start communicating.
  void set_fault_schedule(FaultSchedule schedule);

  /// Spawns one thread per rank, runs `fn` on each with its world
  /// communicator, and joins. A rank that returns normally is marked
  /// departed; a rank that exits by exception is marked FAILED, which
  /// wakes every peer blocked on it with ltfb::RankFailedError. Returns
  /// each rank's exception (null for clean ranks) — the chaos-harness
  /// entry point: injected faults are inspected, not rethrown.
  std::vector<std::exception_ptr> run_ranks(
      const std::function<void(Communicator&)>& fn);

  /// Convenience: spawns `size` threads, runs `fn` on each with its world
  /// communicator, and joins. Exceptions thrown by any rank are rethrown
  /// (the first one) after all threads have been joined.
  static void run(int size, const std::function<void(Communicator&)>& fn);

  // -- multi-process launch (socket transport) -----------------------------

  /// Exit-code taxonomy for spawn_processes children. Anything else means
  /// an unclassified error; a negative ProcessStatus::code is the signal
  /// that killed the child, negated.
  static constexpr int kExitClean = 0;
  static constexpr int kExitError = 1;
  static constexpr int kExitFaultInjected = 42;
  static constexpr int kExitRankFailed = 43;
  static constexpr int kExitTimeout = 44;

  struct ProcessStatus {
    int rank = -1;
    int code = kExitError;
    /// True when the child died before completing its rendezvous handshake
    /// (its transport endpoint never finished construction): early deaths
    /// get rank attribution instead of surfacing only as peer timeouts.
    bool pre_rendezvous = false;
    bool clean() const noexcept { return code == kExitClean; }
  };

  /// Forks one OS process per rank, wires a full socketpair mesh between
  /// them, runs `fn` on each rank's world communicator, and reaps every
  /// child. The per-rank outcome is reported through exit codes (children
  /// cannot throw across the process boundary): a rank that returns
  /// normally exits kExitClean; injected kills, detected peer failures,
  /// and timeouts map to their dedicated codes so the launcher-side
  /// caller can distinguish chaos outcomes exactly like run_ranks callers
  /// inspect exceptions. Fault schedules and telemetry configuration
  /// propagate through the environment (LTFB_FAULT_SCHEDULE, LTFB_TRACE).
  static std::vector<ProcessStatus> spawn_processes(
      int size, const std::function<void(Communicator&)>& fn);

 private:
  explicit World(std::shared_ptr<Backend> backend);

  std::shared_ptr<Backend> backend_;
};

}  // namespace ltfb::comm
