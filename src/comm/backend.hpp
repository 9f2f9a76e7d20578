// Transport-neutral backend interface beneath Communicator/World/Request.
//
// The Communicator keeps everything protocol-shaped — tag matching,
// collectives, deadlines, fault ticks, the single-thread contract — and
// delegates the four transport concerns to a Backend:
//
//   * message delivery into a rank's mailbox (deliver/mailbox),
//   * peer liveness as observed by a rank (dead/gone/finalize_rank),
//   * deterministic fault-injection counters and flow-correlation ids,
//   * the shrink rendezvous (survivor agreement needs transport help:
//     in-process it is a shared map, across processes a control-frame
//     protocol).
//
// Two backends exist: InProcBackend (one mailbox per rank thread, the
// original transport) and SocketBackend (each rank a Unix-domain socket
// endpoint — rank threads in one process in loopback mode, or one OS
// process per rank under World::spawn_processes). src/core, src/datastore,
// and src/nn compile against the Communicator surface only and never see
// this header's types.
//
// Liveness is observer-relative on purpose: dead(observer, peer) is what
// `observer` currently knows. The in-process backend has global knowledge
// (flags flip atomically for everyone); the socket backend learns about a
// peer only when its reader thread sees EOF or a GOODBYE frame on that
// connection. Callers must treat "not (yet) dead" as exactly that.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "comm/deadline.hpp"
#include "comm/fault.hpp"
#include "comm/serializer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/annotations.hpp"

namespace ltfb::comm {

namespace detail {

/// One in-flight message. The flow id (0 = none) is the telemetry
/// flow-correlation id derived from (comm_id, tag, src, dst, per-pair seq);
/// the socket wire format carries it verbatim so cross-process arrows match.
struct Envelope {
  int world_src = 0;
  std::uint64_t comm_id = 0;
  std::int64_t tag = 0;
  Buffer payload;
  std::uint64_t flow_id = 0;
};

/// A rank's landing queue. Backends enqueue through push(); receivers
/// spin on `arrivals` for one window and then park on `cv`. Backends also
/// notify (empty lock/unlock first) whenever peer liveness changes so
/// failure-aware waits re-evaluate.
///
/// Lock order: a thread holding this mutex takes no other lock except the
/// leaf telemetry locks (receive matching records the flow endpoint). A
/// spinning receiver holds no lock at all. See DESIGN.md §12.
struct Mailbox {
  util::Mutex mutex;
  std::condition_variable cv;
  std::deque<Envelope> messages LTFB_GUARDED_BY(mutex);
  /// Bumped under `mutex` by every push. A receiver in its spin window
  /// polls it with the mutex released and retries its match (under the
  /// mutex) whenever it moves.
  std::atomic<std::uint64_t> arrivals{0};
  /// Whether receivers spin before they park (util/spin_wait.hpp). Set once
  /// by the backend before any rank runs: true when the world's ranks fit
  /// the hardware threads.
  bool spin = false;

  /// Queues `env` and wakes its receiver, parked or spinning.
  void push(Envelope env) {
    {
      const util::MutexLock lock(mutex);
      messages.push_back(std::move(env));
      arrivals.fetch_add(1, std::memory_order_relaxed);
    }
    cv.notify_all();
  }
};

}  // namespace detail

enum class BackendKind { InProc, Socket };

const char* backend_name(BackendKind kind) noexcept;

/// Reads LTFB_COMM_BACKEND ("inproc" default, "socket") so unmodified
/// binaries — the chaos suite, the observability smoke — can be rerun on
/// the socket transport by the CI job. Unknown values throw.
BackendKind backend_kind_from_env();

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const noexcept = 0;
  virtual int size() const noexcept = 0;

  /// The landing mailbox of `world_rank`. Only ranks local to this process
  /// may be asked for their mailbox (every rank in loopback/in-process
  /// mode; only `self` in spawned-process mode).
  virtual detail::Mailbox& mailbox(int world_rank) = 0;

  /// Moves `env` toward dst's mailbox: an in-process push, or a wire frame.
  /// Does NOT check liveness (the Communicator fails sends to known-dead
  /// peers before calling); delivery to a peer that dies in flight is
  /// allowed to vanish, exactly like a real network.
  virtual void deliver(int src_world, int dst_world, detail::Envelope env) = 0;

  /// Peer liveness as currently known by `observer`. dead = failed (crash,
  /// injected kill, connection loss); gone = dead or cleanly departed.
  virtual bool dead(int observer, int peer) const = 0;
  virtual bool gone(int observer, int peer) const = 0;

  /// Called exactly once when `world_rank` finishes: clean=true for a
  /// normal return (peers see "departed"), clean=false for an exception or
  /// injected kill (peers see "dead"). Wakes every blocked wait.
  virtual void finalize_rank(int world_rank, bool clean) = 0;

  /// Deterministic fault injection (comm/fault.hpp). The schedule is
  /// per-backend state so each transport injects at the same op/message
  /// indices; counters advance only on the owning rank's thread.
  virtual const FaultSchedule& faults() const = 0;
  virtual void set_faults(FaultSchedule schedule) = 0;
  virtual std::uint64_t next_op(int world_rank) = 0;
  virtual std::uint64_t next_msg(int world_rank) = 0;

  /// Flow-correlation id for the next message on (comm_id, tag, src->dst):
  /// a per-direction sequence hashed with the addressing tuple, |1 so 0
  /// stays the "no flow" sentinel. Only called on telemetry-enabled paths.
  virtual std::uint64_t next_flow_id(std::uint64_t comm_id, std::int64_t tag,
                                     int src, int dst) = 0;

  /// Blocks until every world rank in `group` has either arrived at the
  /// rendezvous keyed by (comm_id, seq) or is known gone, then returns the
  /// identical sorted survivor set on every arrival. Throws
  /// ltfb::TimeoutError on every blocked arrival if agreement is not
  /// reached within the (bounded) deadline.
  virtual std::vector<int> shrink_rendezvous(std::uint64_t comm_id,
                                             std::uint64_t seq, int self_world,
                                             const std::vector<int>& group,
                                             const Deadline& deadline) = 0;

  /// The in-flight request registry: every blocking operation either
  /// backend is currently parked in (mailbox wait, collective receive,
  /// shrink rendezvous, socket frame write), as pending-op rows of
  /// {op, tag, peer, owning rank, age}. The registry itself is
  /// process-wide flight-recorder state — both transports register through
  /// the same telemetry::flight::PendingOp guards — so this accessor is
  /// non-virtual. Empty while the flight recorder is disabled.
  std::vector<telemetry::flight::PendingOpInfo> pending_ops() const;
};

std::shared_ptr<Backend> make_backend(BackendKind kind, int size);

}  // namespace ltfb::comm
