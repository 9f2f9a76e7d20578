#include "comm/communicator.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>

#include "comm/socket_backend.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"
#include "util/spin_wait.hpp"

namespace ltfb::comm {

namespace detail {

/// A receive registered against a rank's mailbox, plus what it needs for
/// failure detection. `backend` supplies observer-relative liveness:
/// everything here is evaluated from `self_world`'s point of view.
struct PendingRecv {
  Mailbox* mailbox = nullptr;
  std::uint64_t comm_id = 0;
  std::vector<int> group;  // for ANY_SOURCE membership checks
  int src_world = kAnySource;
  std::int64_t tag = 0;
  bool done = false;
  Buffer payload;
  int source_world = -1;
  // Failure detection (see hopeless_peer):
  Backend* backend = nullptr;
  int self_world = -1;
  bool collective = false;  // widen the failure check to the whole group
};

void ThreadUseStamp::enter(const char* what) {
  const std::thread::id me = std::this_thread::get_id();
  std::thread::id expected{};
  if (user_.compare_exchange_strong(expected, me,
                                    std::memory_order_acq_rel)) {
    depth_ = 1;
    return;
  }
  if (expected == me) {
    ++depth_;  // reentrant: e.g. recv() -> irecv()/take_payload()
    return;
  }
  std::ostringstream oss;
  oss << "Communicator::" << what << ": handle is already in use by thread "
      << expected << " (called from thread " << me
      << "); a communicator handle is single-threaded — use one handle per "
         "thread, or hand it off between calls, never concurrently";
  throw Error(oss.str());
}

void ThreadUseStamp::leave() noexcept {
  if (--depth_ == 0) {
    user_.store(std::thread::id{}, std::memory_order_release);
  }
}

namespace {

bool matches(const Envelope& env, std::uint64_t comm_id, int src_world,
             std::int64_t tag, const std::vector<int>& group) {
  if (env.comm_id != comm_id || env.tag != tag) return false;
  if (src_world != kAnySource) return env.world_src == src_world;
  return std::find(group.begin(), group.end(), env.world_src) != group.end();
}

/// Tries to complete a pending receive from the mailbox. Caller holds the
/// mailbox mutex (LTFB_REQUIRES).
bool try_complete(PendingRecv& pending)
    LTFB_REQUIRES(pending.mailbox->mutex) {
  auto& queue = pending.mailbox->messages;
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (matches(*it, pending.comm_id, pending.src_world, pending.tag,
                pending.group)) {
      // Receive-side flow endpoint, recorded on the receiving thread so
      // it lands on the receiver's rank track. The thread-local trace
      // buffer mutex is a leaf under the mailbox mutex held here.
      telemetry::Registry::instance().record_flow(
          it->flow_id, telemetry::FlowPhase::End);
      // Same correlation id into the flight ring: postmortem events and
      // Chrome-trace flow arrows cross-check by flow id.
      telemetry::flight::record(telemetry::flight::EventKind::CommRecv,
                                "comm/recv_match",
                                static_cast<std::uint64_t>(it->tag),
                                static_cast<std::uint64_t>(it->world_src),
                                it->flow_id);
      pending.payload = std::move(it->payload);
      pending.source_world = it->world_src;
      queue.erase(it);
      pending.done = true;
      return true;
    }
  }
  return false;
}

/// Returns the world rank of a peer whose failure makes `pending` hopeless,
/// or -1. Must be called AFTER try_complete under the mailbox mutex: the
/// backends preserve per-peer delivery order up to the liveness flip, so
/// once this rank OBSERVES a peer gone, every message that peer ever sent
/// it is already claimable — if the matching message is absent now, it can
/// never arrive. Specific-source receives fail when that source is gone;
/// ANY_SOURCE fails when every peer in the group is gone. Collective
/// receives additionally fail when ANY group member is DEAD (a crash stalls
/// the whole communication pattern, not just the direct sender) — but not
/// when a member merely departed, since a clean exit implies it completed
/// every collective it was part of.
int hopeless_peer(const PendingRecv& pending) {
  const Backend* world = pending.backend;
  if (world == nullptr) return -1;
  const int self = pending.self_world;
  if (pending.collective) {
    for (const int r : pending.group) {
      if (r != self && world->dead(self, r)) return r;
    }
  }
  if (pending.src_world != kAnySource) {
    return world->gone(self, pending.src_world) ? pending.src_world : -1;
  }
  int candidate = -1;
  for (const int r : pending.group) {
    if (r == self) continue;
    if (!world->gone(self, r)) return -1;
    candidate = r;
  }
  return candidate;
}

[[noreturn]] void throw_rank_failed(const PendingRecv& pending, int failed) {
  LTFB_COUNTER_ADD("comm/rank_failures_detected", 1);
  std::ostringstream oss;
  oss << "peer failed: world rank " << failed << " is gone and the awaited "
      << "message (tag " << pending.tag << ") never arrived";
  throw RankFailedError(oss.str(), failed);
}

/// The spin half of a receive's spin-then-park wait (util/spin_wait.hpp).
/// When the mailbox may spin, polls its arrival counter with the mutex
/// released for one window, cut short by `expiry`, and after each arrival
/// tries the match and then the hopeless-peer check (which throws
/// RankFailedError) under the mutex. Returns true once the receive
/// completed; false when the window closed first, and the caller parks on
/// the condvar.
///
/// The mutex is only ever try-locked here. A sender bumps the counter
/// while it still holds the mutex, and blocking on that short critical
/// section would put the receiver to sleep in the kernel: the very wake the
/// spin exists to avoid. A failed try-lock just polls again, within the
/// same window.
bool spin_for_match(PendingRecv& pending,
                    std::chrono::steady_clock::time_point expiry) {
  const Mailbox& box = *pending.mailbox;
  if (!box.spin) return false;
  // Relaxed loads suffice: the counter only says when to look again, and
  // every look at the queue happens under the mutex. The first poll always
  // looks, since no count equals the sentinel.
  std::uint64_t seen = ~std::uint64_t{0};
  const auto arrived = [&box, &seen] {
    return box.arrivals.load(std::memory_order_relaxed) != seen;
  };
  const auto until = std::min(util::spin_window_end(), expiry);
  // The mutex is spelled as try_complete's LTFB_REQUIRES spells it.
  while (util::poll_until(until, arrived)) {
    if (!pending.mailbox->mutex.try_lock()) {
      if (std::chrono::steady_clock::now() > until) break;
      continue;
    }
    const util::MutexLock lock(pending.mailbox->mutex, std::adopt_lock);
    if (pending.done || try_complete(pending)) return true;
    const int failed = hopeless_peer(pending);
    if (failed >= 0) throw_rank_failed(pending, failed);
    seen = pending.mailbox->arrivals.load(std::memory_order_relaxed);
  }
  return false;
}

}  // namespace
}  // namespace detail

// Debug-mode single-thread contract check on every public send/recv/
// collective entry point; compiles to nothing when LTFB_ASSERT is off.
#if LTFB_ASSERT_ENABLED
#define LTFB_COMM_GUARD(what) \
  const detail::ScopedUse comm_use_guard_(use_stamp_, what)
#else
#define LTFB_COMM_GUARD(what) \
  do {                        \
  } while (false)
#endif

// Counts one top-level communication operation and fires this rank's
// scheduled kill, if any. Unlike LTFB_COMM_GUARD this is always compiled in:
// fault schedules must behave identically in release builds, and the
// per-rank op counter is what makes injected failures deterministic.
class Communicator::FaultScope {
 public:
  FaultScope(Communicator& comm, const char* what) : comm_(comm) {
    if (comm_.fault_depth_++ == 0) comm_.fault_tick(what);
  }
  ~FaultScope() { --comm_.fault_depth_; }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  Communicator& comm_;
};

#define LTFB_FAULT_TICK(what) const FaultScope fault_tick_guard_(*this, what)

void Communicator::fault_tick(const char* what) {
  const int me = group_[static_cast<std::size_t>(rank_)];
  const std::uint64_t op = world_->next_op(me);
  // Every top-level comm op is rank progress: this is the heartbeat the
  // hang watchdog compares pending-op ages against.
  telemetry::flight::heartbeat();
  telemetry::flight::record(telemetry::flight::EventKind::CommOp, what, op,
                            static_cast<std::uint64_t>(me));
  if (world_->faults().empty()) return;
  const std::optional<std::uint64_t> kill = world_->faults().kill_op(me);
  if (kill.has_value() && op >= *kill && !world_->dead(me, me)) {
    world_->finalize_rank(me, /*clean=*/false);
    LTFB_COUNTER_ADD("comm/faults_injected", 1);
    telemetry::flight::record(telemetry::flight::EventKind::Fault,
                              "fault/kill_injected", op,
                              static_cast<std::uint64_t>(me));
    std::ostringstream oss;
    oss << "injected kill: world rank " << me << " dies at op " << op
        << " (entering " << what << ", scheduled op " << *kill << ")";
    throw FaultInjected(oss.str());
  }
}

bool Request::test() {
  LTFB_CHECK_MSG(state_, "test() on an invalid request");
  const util::MutexLock lock(state_->mailbox->mutex);
  if (state_->done) return true;
  return detail::try_complete(*state_);
}

void Request::wait(const Deadline& deadline) {
  LTFB_CHECK_MSG(state_, "wait() on an invalid request");
  LTFB_TIMED_SCOPE("comm/recv_wait");
  // In-flight registration for the watchdog and postmortem dumps: a rank
  // wedged here shows up as a pending "comm/recv_wait" with tag + peer.
  const telemetry::flight::PendingOp pending_op("comm/recv_wait", state_->tag,
                                                state_->src_world);
  const bool bounded = deadline.bounded();
  const auto expiry = bounded ? deadline.expires_at()
                              : std::chrono::steady_clock::time_point::max();
  if (detail::spin_for_match(*state_, expiry)) return;
  util::MutexLock lock(state_->mailbox->mutex);
  for (;;) {
    if (state_->done || detail::try_complete(*state_)) return;
    const int failed = detail::hopeless_peer(*state_);
    if (failed >= 0) detail::throw_rank_failed(*state_, failed);
    if (!bounded) {
      state_->mailbox->cv.wait(lock.native());
    } else if (state_->mailbox->cv.wait_until(lock.native(), expiry) ==
               std::cv_status::timeout) {
      // Final completion check under the lock, then give up. The pending
      // receive is left registered-but-unconsumed: the request stays valid
      // and a later wait()/test() can still complete it.
      if (state_->done || detail::try_complete(*state_)) return;
      LTFB_COUNTER_ADD("comm/timeouts", 1);
      std::ostringstream oss;
      oss << "recv timed out after " << deadline.budget().count()
          << "ms (tag " << state_->tag << ", source world rank "
          << state_->src_world << ")";
      throw TimeoutError(oss.str());
    }
  }
}

int Communicator::world_rank_of(int rank) const {
  LTFB_CHECK_MSG(rank >= 0 && rank < size(),
                 "rank " << rank << " out of range for size " << size());
  return group_[static_cast<std::size_t>(rank)];
}

// Entered-op detail (tag + best-effort world peer), recorded BEFORE the
// fault tick on purpose: an injected kill fires at op entry, and the dying
// rank's ring must end with the op it was executing for the postmortem to
// blame it.
#define LTFB_FLIGHT_OP(name, tag, peer)                                     \
  ::ltfb::telemetry::flight::record(                                        \
      ::ltfb::telemetry::flight::EventKind::CommOp, name,                   \
      static_cast<std::uint64_t>(tag),                                      \
      static_cast<std::uint64_t>(static_cast<std::int64_t>(                 \
          ((peer) >= 0 && (peer) < size())                                  \
              ? group_[static_cast<std::size_t>(peer)]                      \
              : (peer))))

void Communicator::send(int dst, int tag, Buffer payload) {
  LTFB_COMM_GUARD("send");
  LTFB_FLIGHT_OP("comm/send", tag, dst);
  LTFB_FAULT_TICK("send");
  LTFB_CHECK(tag >= 0);
  LTFB_COUNTER_ADD("comm/send_messages", 1);
  LTFB_COUNTER_ADD("comm/send_bytes", payload.size());
  const int world_dst = world_rank_of(dst);
  const int me = group_[static_cast<std::size_t>(rank_)];
  if (world_->dead(me, world_dst)) {
    LTFB_COUNTER_ADD("comm/rank_failures_detected", 1);
    std::ostringstream oss;
    oss << "send to failed peer: world rank " << world_dst << " is dead";
    throw RankFailedError(oss.str(), world_dst);
  }
  // Send-side flow endpoint, stamped BEFORE drop injection on purpose: a
  // dropped message exports as an unmatched "s" arrow — exactly the visual
  // a lost message should have.
  std::uint64_t flow_id = 0;
  if (telemetry::enabled()) {
    flow_id = world_->next_flow_id(comm_id_, tag, me, world_dst);
    telemetry::Registry::instance().record_flow(flow_id,
                                                telemetry::FlowPhase::Start);
  }
  telemetry::flight::record(telemetry::flight::EventKind::CommSend,
                            "comm/send", static_cast<std::uint64_t>(tag),
                            static_cast<std::uint64_t>(world_dst), flow_id);
  // Drop/delay injection applies to user-level messages only (collective
  // traffic goes through internal_send and counts ops, not messages).
  const std::uint64_t msg_index = world_->next_msg(me);
  if (!world_->faults().empty()) {
    const FaultAction* action =
        world_->faults().message_action(me, msg_index);
    if (action != nullptr) {
      if (action->kind == FaultAction::Kind::Drop) {
        LTFB_COUNTER_ADD("comm/messages_dropped", 1);
        telemetry::flight::record(telemetry::flight::EventKind::Fault,
                                  "fault/message_dropped",
                                  static_cast<std::uint64_t>(tag),
                                  static_cast<std::uint64_t>(world_dst));
        return;  // silently lost; the receiver sees a timeout
      }
      LTFB_COUNTER_ADD("comm/messages_delayed", 1);
      telemetry::flight::record(telemetry::flight::EventKind::Fault,
                                "fault/message_delayed",
                                static_cast<std::uint64_t>(tag),
                                static_cast<std::uint64_t>(world_dst));
      std::this_thread::sleep_for(std::chrono::milliseconds(action->delay_ms));
    }
  }
  world_->deliver(me, world_dst,
                  detail::Envelope{me, comm_id_, tag, std::move(payload),
                                   flow_id});
}

void Communicator::send(int dst, int tag, std::span<const float> values) {
  send(dst, tag, Serializer::pack_floats(values));
}

Buffer Communicator::recv(int src, int tag, const Deadline& deadline,
                          int* source_out) {
  LTFB_COMM_GUARD("recv");
  LTFB_FLIGHT_OP("comm/recv", tag, src);
  LTFB_FAULT_TICK("recv");
  LTFB_CHECK(tag >= 0);
  Request request = irecv(src, tag);
  request.wait(deadline);
  if (source_out != nullptr) {
    const int world_src = request.state_->source_world;
    const auto it = std::find(group_.begin(), group_.end(), world_src);
    LTFB_ASSERT(it != group_.end());
    *source_out = static_cast<int>(it - group_.begin());
  }
  return take_payload(request);
}

Request Communicator::irecv(int src, int tag) {
  LTFB_COMM_GUARD("irecv");
  LTFB_FAULT_TICK("irecv");
  auto pending = std::make_shared<detail::PendingRecv>();
  const int me = group_[static_cast<std::size_t>(rank_)];
  pending->mailbox = &world_->mailbox(me);
  pending->comm_id = comm_id_;
  pending->group = group_;
  pending->src_world = (src == kAnySource) ? kAnySource : world_rank_of(src);
  pending->tag = tag;
  pending->backend = world_.get();
  pending->self_world = me;
  return Request(std::move(pending));
}

Buffer Communicator::take_payload(Request& request) {
  LTFB_COMM_GUARD("take_payload");
  LTFB_CHECK_MSG(request.state_ && request.state_->done,
                 "take_payload before completion");
  return std::move(request.state_->payload);
}

Buffer Communicator::sendrecv(int partner, int tag, Buffer payload,
                              const Deadline& deadline) {
  LTFB_COMM_GUARD("sendrecv");
  LTFB_FLIGHT_OP("comm/sendrecv", tag, partner);
  LTFB_FAULT_TICK("sendrecv");
  LTFB_CHECK(tag >= 0);
  // Sends never block (mailboxes are unbounded), so send-then-recv is
  // deadlock-free even when both sides target each other.
  send(partner, tag, std::move(payload));
  return recv(partner, tag, deadline);
}

std::uint64_t Communicator::next_internal_tag(std::uint64_t kind) {
  // Internal tags live far above the user tag space and encode the
  // collective kind plus a lockstep sequence number, so back-to-back
  // collectives never cross-match.
  const std::uint64_t seq = collective_seq_++;
  return (1ull << 62) | (kind << 52) | (seq & ((1ull << 40) - 1));
}

namespace {

/// Internal variant of send/recv that permits the reserved tag space.
void internal_send(Backend& world, const std::vector<int>& group, int my_rank,
                   int dst, std::uint64_t comm_id, std::int64_t tag,
                   Buffer payload) {
  LTFB_COUNTER_ADD("comm/collective_messages", 1);
  LTFB_COUNTER_ADD("comm/collective_bytes", payload.size());
  const int world_src = group[static_cast<std::size_t>(my_rank)];
  const int world_dst = group[static_cast<std::size_t>(dst)];
  if (world.dead(world_src, world_dst)) {
    LTFB_COUNTER_ADD("comm/rank_failures_detected", 1);
    std::ostringstream oss;
    oss << "collective peer failed: world rank " << world_dst << " is dead";
    throw RankFailedError(oss.str(), world_dst);
  }
  // Collective hops carry flow ids too: the exporter's arrows are what
  // make join points (who straggled into the allreduce) visible.
  std::uint64_t flow_id = 0;
  if (telemetry::enabled()) {
    flow_id = world.next_flow_id(comm_id, tag, world_src, world_dst);
    telemetry::Registry::instance().record_flow(flow_id,
                                                telemetry::FlowPhase::Start);
  }
  telemetry::flight::record(telemetry::flight::EventKind::CommSend,
                            "comm/collective_send",
                            static_cast<std::uint64_t>(tag),
                            static_cast<std::uint64_t>(world_dst), flow_id);
  world.deliver(world_src, world_dst,
                detail::Envelope{world_src, comm_id, tag, std::move(payload),
                                 flow_id});
}

Buffer internal_recv(Backend& world, const std::vector<int>& group,
                     int my_rank, int src, std::uint64_t comm_id,
                     std::int64_t tag) {
  const int self = group[static_cast<std::size_t>(my_rank)];
  detail::Mailbox& mailbox = world.mailbox(self);
  detail::PendingRecv pending;
  pending.mailbox = &mailbox;
  pending.comm_id = comm_id;
  pending.group = group;
  pending.src_world =
      (src == kAnySource) ? kAnySource : group[static_cast<std::size_t>(src)];
  pending.tag = tag;
  pending.backend = &world;
  pending.self_world = self;
  pending.collective = true;
  const telemetry::flight::PendingOp pending_op("comm/collective_recv", tag,
                                                pending.src_world);
  if (detail::spin_for_match(pending,
                             std::chrono::steady_clock::time_point::max())) {
    return std::move(pending.payload);
  }
  util::MutexLock lock(mailbox.mutex);
  for (;;) {
    if (pending.done || detail::try_complete(pending)) break;
    // A dead rank anywhere in the group stalls the whole pattern (possibly
    // transitively: a peer blocked on the dead rank throws, is marked dead
    // in turn by World::run_ranks, and the check here sees it). Failing the
    // collective eagerly is the ULFM convention.
    const int failed = detail::hopeless_peer(pending);
    if (failed >= 0) detail::throw_rank_failed(pending, failed);
    mailbox.cv.wait(lock.native());
  }
  return std::move(pending.payload);
}

/// Offsets a collective's base tag by a step index. Steps live in bits
/// 40..51 while the lockstep sequence number stays in bits 0..39, so
/// messages from step s of one collective can never match step t of a
/// later collective of the same kind.
constexpr std::int64_t step_tag(std::int64_t base, int step) {
  return base + (static_cast<std::int64_t>(step + 1) << 40);
}

float reduce_elem(float a, float b, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum: return a + b;
    case ReduceOp::Max: return std::max(a, b);
    case ReduceOp::Min: return std::min(a, b);
  }
  return a;
}

}  // namespace

void Communicator::barrier() {
  LTFB_COMM_GUARD("barrier");
  LTFB_FAULT_TICK("barrier");
  LTFB_SPAN("comm/barrier");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(1));
  const int n = size();
  // Dissemination barrier: log2(n) rounds.
  for (int distance = 1; distance < n; distance <<= 1) {
    const int dst = (rank_ + distance) % n;
    const int src = (rank_ - distance % n + n) % n;
    internal_send(*world_, group_, rank_, dst, comm_id_,
                  step_tag(tag, distance), {});
    (void)internal_recv(*world_, group_, rank_, src, comm_id_,
                        step_tag(tag, distance));
  }
}

void Communicator::broadcast(int root, Buffer& payload) {
  LTFB_COMM_GUARD("broadcast");
  LTFB_FAULT_TICK("broadcast");
  LTFB_SPAN("comm/broadcast");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(2));
  const int n = size();
  LTFB_CHECK(root >= 0 && root < n);
  const int vrank = (rank_ - root + n) % n;
  // Binomial tree: receive from the parent, then forward to children.
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % n;
      payload = internal_recv(*world_, group_, rank_, src, comm_id_, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int dst = ((vrank + mask) + root) % n;
      internal_send(*world_, group_, rank_, dst, comm_id_, tag, payload);
    }
    mask >>= 1;
  }
}

void Communicator::broadcast(int root, std::span<float> values) {
  Buffer payload;
  if (rank_ == root) payload = Serializer::pack_floats(values);
  broadcast(root, payload);
  if (rank_ != root) {
    LTFB_CHECK_MSG(payload.size() == values.size() * sizeof(float),
                   "broadcast size mismatch");
    std::memcpy(values.data(), payload.data(), payload.size());
  }
}

void Communicator::allreduce(std::span<float> values, ReduceOp op) {
  LTFB_COMM_GUARD("allreduce");
  LTFB_FAULT_TICK("allreduce");
  LTFB_SPAN("comm/allreduce");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(3));
  const int n = size();
  if (n == 1 || values.empty()) return;

  // Ring all-reduce: reduce-scatter then all-gather, chunked by rank.
  const std::size_t count = values.size();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  {
    const std::size_t base = count / static_cast<std::size_t>(n);
    const std::size_t rem = count % static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      offsets[i + 1] = offsets[i] + base + (i < rem ? 1 : 0);
    }
  }
  auto chunk = [&](int index) {
    const auto i = static_cast<std::size_t>((index % n + n) % n);
    return values.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  };

  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;

  for (int step = 0; step < n - 1; ++step) {
    const auto out = chunk(rank_ - step);
    internal_send(*world_, group_, rank_, right, comm_id_,
                  step_tag(tag, step), Serializer::pack_floats(out));
    const Buffer in = internal_recv(*world_, group_, rank_, left, comm_id_,
                                    step_tag(tag, step));
    auto target = chunk(rank_ - step - 1);
    const auto incoming = Deserializer::unpack_floats(in);
    LTFB_CHECK(incoming.size() == target.size());
    for (std::size_t i = 0; i < target.size(); ++i) {
      target[i] = reduce_elem(target[i], incoming[i], op);
    }
  }
  for (int step = 0; step < n - 1; ++step) {
    const auto out = chunk(rank_ + 1 - step);
    internal_send(*world_, group_, rank_, right, comm_id_,
                  step_tag(tag, n + step), Serializer::pack_floats(out));
    const Buffer in = internal_recv(*world_, group_, rank_, left, comm_id_,
                                    step_tag(tag, n + step));
    auto target = chunk(rank_ - step);
    const auto incoming = Deserializer::unpack_floats(in);
    LTFB_CHECK(incoming.size() == target.size());
    std::copy(incoming.begin(), incoming.end(), target.begin());
  }
}

std::vector<float> Communicator::allgather(std::span<const float> contribution) {
  LTFB_COMM_GUARD("allgather");
  LTFB_FAULT_TICK("allgather");
  LTFB_SPAN("comm/allgather");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(4));
  const int n = size();
  const std::size_t per_rank = contribution.size();
  std::vector<float> result(per_rank * static_cast<std::size_t>(n));
  std::copy(contribution.begin(), contribution.end(),
            result.begin() +
                static_cast<std::ptrdiff_t>(per_rank *
                                            static_cast<std::size_t>(rank_)));
  if (n == 1) return result;

  // Ring all-gather: forward the chunk received in the previous step.
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  std::vector<float> current(contribution.begin(), contribution.end());
  int current_owner = rank_;
  for (int step = 0; step < n - 1; ++step) {
    internal_send(*world_, group_, rank_, right, comm_id_,
                  step_tag(tag, step), Serializer::pack_floats(current));
    const Buffer in = internal_recv(*world_, group_, rank_, left, comm_id_,
                                    step_tag(tag, step));
    current = Deserializer::unpack_floats(in);
    LTFB_CHECK(current.size() == per_rank);
    current_owner = (current_owner - 1 + n) % n;
    std::copy(current.begin(), current.end(),
              result.begin() + static_cast<std::ptrdiff_t>(
                                   per_rank *
                                   static_cast<std::size_t>(current_owner)));
  }
  return result;
}

void Communicator::reduce(int root, std::span<float> values, ReduceOp op) {
  LTFB_COMM_GUARD("reduce");
  LTFB_FAULT_TICK("reduce");
  LTFB_SPAN("comm/reduce");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(5));
  const int n = size();
  LTFB_CHECK(root >= 0 && root < n);
  if (n == 1 || values.empty()) return;
  // Binomial reduction on virtual ranks (root at vrank 0): each rank
  // receives from children, folds, then sends the partial to its parent.
  const int vrank = (rank_ - root + n) % n;
  // Root's contribution must survive; non-roots work on a scratch copy so
  // their caller-visible buffers stay untouched (MPI semantics).
  std::vector<float> scratch;
  std::span<float> acc = values;
  if (vrank != 0) {
    scratch.assign(values.begin(), values.end());
    acc = scratch;
  }
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) == 0) {
      const int child_v = vrank + mask;
      if (child_v < n) {
        const int child = (child_v + root) % n;
        const Buffer in = internal_recv(*world_, group_, rank_, child,
                                        comm_id_, step_tag(tag, mask));
        const std::vector<float> incoming = Deserializer::unpack_floats(in);
        LTFB_CHECK(incoming.size() == acc.size());
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = reduce_elem(acc[i], incoming[i], op);
        }
      }
    } else {
      const int parent = ((vrank - mask) + root) % n;
      internal_send(*world_, group_, rank_, parent, comm_id_,
                    step_tag(tag, mask), Serializer::pack_floats(acc));
      return;  // partial delivered; this rank is done
    }
    mask <<= 1;
  }
}

std::vector<float> Communicator::gather(int root,
                                        std::span<const float> contribution) {
  LTFB_COMM_GUARD("gather");
  LTFB_FAULT_TICK("gather");
  LTFB_SPAN("comm/gather");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(6));
  const int n = size();
  LTFB_CHECK(root >= 0 && root < n);
  if (rank_ != root) {
    internal_send(*world_, group_, rank_, root, comm_id_, tag,
                  Serializer::pack_floats(contribution));
    return {};
  }
  std::vector<float> result(contribution.size() *
                            static_cast<std::size_t>(n));
  std::copy(contribution.begin(), contribution.end(),
            result.begin() + static_cast<std::ptrdiff_t>(
                                 contribution.size() *
                                 static_cast<std::size_t>(root)));
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    const Buffer in =
        internal_recv(*world_, group_, rank_, r, comm_id_, tag);
    const std::vector<float> piece = Deserializer::unpack_floats(in);
    LTFB_CHECK_MSG(piece.size() == contribution.size(),
                   "gather contribution size mismatch from rank " << r);
    std::copy(piece.begin(), piece.end(),
              result.begin() + static_cast<std::ptrdiff_t>(
                                   contribution.size() *
                                   static_cast<std::size_t>(r)));
  }
  return result;
}

std::vector<float> Communicator::scatter(int root,
                                         std::span<const float> send,
                                         std::size_t chunk) {
  LTFB_COMM_GUARD("scatter");
  LTFB_FAULT_TICK("scatter");
  LTFB_SPAN("comm/scatter");
  const auto tag = static_cast<std::int64_t>(next_internal_tag(7));
  const int n = size();
  LTFB_CHECK(root >= 0 && root < n);
  if (rank_ == root) {
    LTFB_CHECK_MSG(send.size() == chunk * static_cast<std::size_t>(n),
                   "scatter buffer size " << send.size() << " != ranks*chunk "
                                          << chunk * static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      internal_send(*world_, group_, rank_, r, comm_id_, tag,
                    Serializer::pack_floats(send.subspan(
                        chunk * static_cast<std::size_t>(r), chunk)));
    }
    const auto mine = send.subspan(chunk * static_cast<std::size_t>(root),
                                   chunk);
    return std::vector<float>(mine.begin(), mine.end());
  }
  const Buffer in =
      internal_recv(*world_, group_, rank_, root, comm_id_, tag);
  std::vector<float> piece = Deserializer::unpack_floats(in);
  LTFB_CHECK(piece.size() == chunk);
  return piece;
}

Communicator Communicator::split(int color, int key) {
  LTFB_COMM_GUARD("split");
  LTFB_FAULT_TICK("split");
  LTFB_SPAN("comm/split");
  // Exchange (color, key, rank) triples; every rank then derives the same
  // membership and ordering. Values are exchanged as floats, which is exact
  // for magnitudes below 2^24 — far beyond any realistic rank count.
  LTFB_CHECK_MSG(std::abs(color) < (1 << 24) && std::abs(key) < (1 << 24),
                 "split color/key out of exactly-representable range");
  const float triple[3] = {static_cast<float>(color), static_cast<float>(key),
                           static_cast<float>(rank_)};
  const std::vector<float> all = allgather(std::span<const float>(triple, 3));

  struct Member {
    int key;
    int old_rank;
  };
  std::vector<Member> members;
  for (int r = 0; r < size(); ++r) {
    const auto base = static_cast<std::size_t>(r) * 3;
    if (static_cast<int>(all[base]) == color) {
      members.push_back(
          {static_cast<int>(all[base + 1]), static_cast<int>(all[base + 2])});
    }
  }
  std::sort(members.begin(), members.end(), [](const Member& a,
                                               const Member& b) {
    return std::tie(a.key, a.old_rank) < std::tie(b.key, b.old_rank);
  });

  std::vector<int> group;
  group.reserve(members.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(group_[static_cast<std::size_t>(members[i].old_rank)]);
    if (members[i].old_rank == rank_) my_new_rank = static_cast<int>(i);
  }
  LTFB_CHECK(my_new_rank >= 0);

  // Deterministic communicator id agreed on by construction: every member
  // shares (comm_id_, split_seq_, color) because splits are collective.
  const std::uint64_t new_id = util::derive_seed(
      comm_id_ ^ 0x5bf0'3635'dee3'9d2dull, split_seq_++,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(color) + (1 << 24)));
  return Communicator(world_, new_id, std::move(group), my_new_rank);
}

Communicator Communicator::shrink(const Deadline& deadline) {
  LTFB_COMM_GUARD("shrink");
  LTFB_FAULT_TICK("shrink");
  LTFB_SPAN("comm/shrink");
  LTFB_CHECK_MSG(deadline.bounded(),
                 "shrink requires a bounded deadline (survivors must never "
                 "hang on a wedged peer)");
  const int me = group_[static_cast<std::size_t>(rank_)];
  // Rendezvous key: all members share (comm_id_, shrink_seq_) because
  // shrink is collective and called in lockstep on each live rank. The
  // agreement protocol itself is transport-specific (a shared map in
  // process, control frames across sockets).
  const std::uint64_t seq = shrink_seq_++;
  std::vector<int> survivors =
      world_->shrink_rendezvous(comm_id_, seq, me, group_, deadline);
  // Every survivor derives the identical communicator id from the agreed
  // set, then renumbers ranks 0..k-1 in world-rank order.
  std::uint64_t new_id = util::derive_seed(
      comm_id_ ^ 0x7a3f'9e2b'44c1'd05bull, seq,
      static_cast<std::uint64_t>(survivors.size()));
  for (const int wr : survivors) {
    new_id = util::derive_seed(new_id, static_cast<std::uint64_t>(wr), 0x51ull);
  }
  const auto my_it = std::find(survivors.begin(), survivors.end(), me);
  LTFB_CHECK_MSG(my_it != survivors.end(),
                 "shrink survivor set lost the calling rank");
  const int my_new_rank = static_cast<int>(my_it - survivors.begin());
  LTFB_COUNTER_ADD("comm/shrinks", 1);
  return Communicator(world_, new_id, std::move(survivors), my_new_rank);
}

World::World(int size) {
  LTFB_CHECK_MSG(size > 0, "world size must be positive, got " << size);
  backend_ = make_backend(backend_kind_from_env(), size);
  if (auto env_schedule = FaultSchedule::from_env()) {
    backend_->set_faults(std::move(*env_schedule));
  }
}

World::World(int size, BackendKind kind) {
  LTFB_CHECK_MSG(size > 0, "world size must be positive, got " << size);
  backend_ = make_backend(kind, size);
  if (auto env_schedule = FaultSchedule::from_env()) {
    backend_->set_faults(std::move(*env_schedule));
  }
}

World::World(std::shared_ptr<Backend> backend) : backend_(std::move(backend)) {
  LTFB_CHECK_MSG(backend_ != nullptr, "world requires a transport backend");
  if (auto env_schedule = FaultSchedule::from_env()) {
    backend_->set_faults(std::move(*env_schedule));
  }
}

void World::set_fault_schedule(FaultSchedule schedule) {
  backend_->set_faults(std::move(schedule));
}

int World::size() const noexcept { return backend_->size(); }

BackendKind World::backend_kind() const noexcept { return backend_->kind(); }

Communicator World::communicator(int rank) {
  LTFB_CHECK_MSG(rank >= 0 && rank < size(),
                 "rank " << rank << " out of range for world size " << size());
  std::vector<int> group(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) group[static_cast<std::size_t>(i)] = i;
  // comm_id 0 is the world communicator by convention.
  return Communicator(backend_, 0, std::move(group), rank);
}

namespace {

/// Postmortem kind string for the exception currently being handled.
/// Callable only from inside a catch block.
const char* unwind_kind() noexcept {
  try {
    throw;
  } catch (const FaultInjected&) {
    return "fault_injected";
  } catch (const TimeoutError&) {
    return "timeout";
  } catch (const RankFailedError&) {
    return "rank_failed";
  } catch (...) {
    return "error";
  }
}

}  // namespace

std::vector<std::exception_ptr> World::run_ranks(
    const std::function<void(Communicator&)>& fn) {
  // Arm the flight recorder / watchdog / crash handler if the environment
  // asks for them — run_ranks is the in-process entry point mirroring what
  // spawned children do in spawn_socket_mesh.
  telemetry::flight::init_from_env();
  const int n = size();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  threads.reserve(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([this, &fn, &errors, rank] {
      try {
        // Rank attribution: everything this thread (and helpers it hands
        // work to) records lands in rank `rank`'s telemetry scope. Worlds
        // larger than the scope table run unattributed rather than fail.
        telemetry::bind_rank(
            rank < telemetry::detail::kMaxRankScopes ? rank : -1);
        Communicator comm = communicator(rank);
        fn(comm);
        // Clean return: obligated messages were all delivered. Peers still
        // blocked on this rank fail fast instead of hanging.
        backend_->finalize_rank(rank, /*clean=*/true);
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
        backend_->finalize_rank(rank, /*clean=*/false);
        // The FaultInjected (and friends) unwind path: the dying rank's
        // rings, span stack, and pending ops go to postmortem_rank<N>.json
        // while they are still live.
        if (telemetry::flight::enabled()) {
          telemetry::flight::write_postmortem(
              unwind_kind(), "World::run_ranks rank unwound", rank);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return errors;
}

void World::run(int size, const std::function<void(Communicator&)>& fn) {
  World world(size);
  const std::vector<std::exception_ptr> errors = world.run_ranks(fn);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

namespace {

/// True when the spawn environment asks for postmortems (the parent must
/// not call flight::init_from_env before forking — a watchdog thread
/// started pre-fork would leave children believing one is already
/// running — so the flag is read directly).
bool spawn_postmortems_enabled() {
  const char* flag = std::getenv("LTFB_POSTMORTEM_DIR");
  if (flag != nullptr && flag[0] != '\0') return true;
  flag = std::getenv("LTFB_FLIGHT_RECORDER");
  return flag != nullptr && flag[0] != '\0' &&
         std::string_view(flag) != "0";
}

std::filesystem::path spawn_postmortem_dir() {
  const char* dir = std::getenv("LTFB_POSTMORTEM_DIR");
  return std::filesystem::path(dir != nullptr && dir[0] != '\0' ? dir : ".");
}

/// Reads a child's postmortem file for verbatim embedding; returns empty
/// when absent or not a JSON object (a torn write loses one rank's detail,
/// never the run report).
std::string read_postmortem_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream body;
  body << in.rdbuf();
  std::string text = body.str();
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || text[first] != '{') return {};
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

/// Merges per-rank postmortem files + wait statuses into the run-level
/// report the supervisor leaves behind: postmortem_run.json names every
/// rank's exit disposition and embeds each dead rank's own dump verbatim.
void write_run_report(const std::filesystem::path& dir, int size,
                      const std::vector<SpawnedRank>& spawned,
                      const std::vector<World::ProcessStatus>& statuses) {
  const std::filesystem::path path = dir / "postmortem_run.json";
  const std::filesystem::path tmp = dir / "postmortem_run.json.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      LTFB_LOG_WARN("comm", "cannot write run postmortem to " << path);
      return;
    }
    out << "{\"schema\": \"ltfb-postmortem-run-v1\",\n"
        << " \"world_size\": " << size << ",\n \"ranks\": [\n";
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      const World::ProcessStatus& status = statuses[i];
      const SpawnedRank& child = spawned[i];
      const std::string body = read_postmortem_file(
          dir / ("postmortem_rank" + std::to_string(status.rank) + ".json"));
      out << (i == 0 ? "" : ",\n") << "  {\"rank\": " << status.rank
          << ", \"exit_code\": " << (child.exited ? child.exit_code : 0)
          << ", \"term_signal\": " << (child.exited ? 0 : child.term_signal)
          << ", \"clean\": " << (status.clean() ? "true" : "false")
          << ", \"pre_rendezvous\": "
          << (status.pre_rendezvous ? "true" : "false")
          << ", \"postmortem\": " << (body.empty() ? "null" : body) << "}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out) {
      LTFB_LOG_WARN("comm", "cannot write run postmortem to " << path);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    LTFB_LOG_WARN("comm", "cannot rename run postmortem into " << path);
  }
}

}  // namespace

std::vector<World::ProcessStatus> World::spawn_processes(
    int size, const std::function<void(Communicator&)>& fn) {
  LTFB_CHECK_MSG(size > 0, "world size must be positive, got " << size);
  const bool postmortems = spawn_postmortems_enabled();
  const std::filesystem::path dir = spawn_postmortem_dir();
  if (postmortems) {
    // Stale files from an earlier run must not masquerade as this run's
    // evidence.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::filesystem::remove(dir / "postmortem_run.json", ec);
    for (int r = 0; r < size; ++r) {
      std::filesystem::remove(
          dir / ("postmortem_rank" + std::to_string(r) + ".json"), ec);
    }
  }
  const std::vector<SpawnedRank> spawned = spawn_socket_mesh(
      size, [&fn](int rank, const std::shared_ptr<Backend>& backend) {
        // Children report through exit codes only: exceptions cannot cross
        // the process boundary, so the fault taxonomy run_ranks callers see
        // as exception types arrives here as kExit* codes. The flight
        // recorder (armed by spawn_socket_mesh before this runs) preserves
        // the detail the exit code cannot carry.
        try {
          World world(backend);
          telemetry::bind_rank(
              rank < telemetry::detail::kMaxRankScopes ? rank : -1);
          Communicator comm = world.communicator(rank);
          fn(comm);
          backend->finalize_rank(rank, /*clean=*/true);
          return kExitClean;
        } catch (...) {
          backend->finalize_rank(rank, /*clean=*/false);
          const char* kind = unwind_kind();
          if (telemetry::flight::enabled()) {
            telemetry::flight::write_postmortem(
                kind, "spawned rank unwound", rank);
          }
          try {
            throw;
          } catch (const FaultInjected&) {
            return kExitFaultInjected;
          } catch (const RankFailedError&) {
            return kExitRankFailed;
          } catch (const TimeoutError&) {
            return kExitTimeout;
          } catch (...) {
            return kExitError;
          }
        }
      });
  std::vector<ProcessStatus> statuses;
  statuses.reserve(spawned.size());
  for (const SpawnedRank& child : spawned) {
    ProcessStatus status;
    status.rank = child.rank;
    status.code = child.exited ? child.exit_code : -child.term_signal;
    status.pre_rendezvous = !child.ready;
    statuses.push_back(status);
  }
  if (postmortems) {
    write_run_report(dir, size, spawned, statuses);
  }
  return statuses;
}

}  // namespace ltfb::comm
