#include "comm/inproc_backend.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/spin_wait.hpp"

namespace ltfb::comm {

namespace {

/// Per-rank liveness and deterministic fault-injection counters. `dead`
/// means fault-killed or exited by exception (a crash survivors must react
/// to); `departed` means the rank's function returned cleanly (all its
/// obligated messages were already delivered). Counters are only ever
/// advanced by the owning rank's thread; flags are written once and read by
/// everyone, hence the atomics.
struct RankStatus {
  std::atomic<bool> dead{false};
  std::atomic<bool> departed{false};
  std::atomic<std::uint64_t> ops{0};   // top-level communication ops
  std::atomic<std::uint64_t> msgs{0};  // user-level messages sent
};

/// One shrink rendezvous, keyed by (comm_id, per-comm shrink sequence).
struct ShrinkPoint {
  std::vector<int> arrived;  // world ranks registered so far
  bool sealed = false;
  bool aborted = false;
  std::vector<int> survivors;  // valid once sealed
};

class InProcBackend final : public Backend {
 public:
  explicit InProcBackend(int size) {
    mailboxes_.reserve(static_cast<std::size_t>(size));
    status_.reserve(static_cast<std::size_t>(size));
    // Every rank is a thread of this process.
    const bool spin = util::spin_fits(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
      mailboxes_.push_back(std::make_unique<detail::Mailbox>());
      mailboxes_.back()->spin = spin;
      status_.push_back(std::make_unique<RankStatus>());
    }
  }

  BackendKind kind() const noexcept override { return BackendKind::InProc; }

  int size() const noexcept override {
    return static_cast<int>(mailboxes_.size());
  }

  detail::Mailbox& mailbox(int world_rank) override {
    return *mailboxes_[static_cast<std::size_t>(world_rank)];
  }

  void deliver(int src_world, int dst_world, detail::Envelope env) override {
    (void)src_world;
    mailboxes_[static_cast<std::size_t>(dst_world)]->push(std::move(env));
  }

  bool dead(int observer, int peer) const override {
    (void)observer;  // in-process liveness is global knowledge
    return status_[static_cast<std::size_t>(peer)]->dead.load(
        std::memory_order_acquire);
  }

  bool gone(int observer, int peer) const override {
    (void)observer;
    const RankStatus& s = *status_[static_cast<std::size_t>(peer)];
    return s.dead.load(std::memory_order_acquire) ||
           s.departed.load(std::memory_order_acquire);
  }

  /// Marks a rank dead (clean=false) or departed (clean=true) and wakes
  /// every blocked receiver and shrink rendezvous so failure-aware waits
  /// re-evaluate their predicates. The empty lock/unlock before each notify
  /// pairs with waiters that checked the flag before it was set and are
  /// already inside cv.wait.
  void finalize_rank(int world_rank, bool clean) override {
    RankStatus& s = *status_[static_cast<std::size_t>(world_rank)];
    telemetry::flight::record(
        telemetry::flight::EventKind::Fault,
        clean ? "fault/rank_departed" : "fault/rank_dead",
        static_cast<std::uint64_t>(world_rank),
        static_cast<std::uint64_t>(clean ? 1 : 0));
    (clean ? s.departed : s.dead).store(true, std::memory_order_release);
    for (const auto& box : mailboxes_) {
      { const util::MutexLock lock(box->mutex); }
      box->cv.notify_all();
    }
    { const util::MutexLock lock(shrink_mutex_); }
    shrink_cv_.notify_all();
  }

  const FaultSchedule& faults() const override { return faults_; }
  void set_faults(FaultSchedule schedule) override {
    faults_ = std::move(schedule);
  }

  std::uint64_t next_op(int world_rank) override {
    return status_[static_cast<std::size_t>(world_rank)]->ops.fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t next_msg(int world_rank) override {
    return status_[static_cast<std::size_t>(world_rank)]->msgs.fetch_add(
        1, std::memory_order_relaxed);
  }

  std::vector<int> shrink_rendezvous(std::uint64_t comm_id, std::uint64_t seq,
                                     int self_world,
                                     const std::vector<int>& group,
                                     const Deadline& deadline) override {
    const std::pair<std::uint64_t, std::uint64_t> key(comm_id, seq);
    const auto expiry = deadline.expires_at();
    const telemetry::flight::PendingOp pending_op(
        "comm/shrink_rendezvous", static_cast<std::int64_t>(seq), -1);
    util::MutexLock lock(shrink_mutex_);
    ShrinkPoint& point = shrink_points_[key];
    point.arrived.push_back(self_world);
    shrink_cv_.notify_all();
    // Agreement predicate: every group member either arrived here or is
    // gone. Arrived ranks cannot die while blocked (kills fire only at op
    // entry, and a rank inside shrink performs no other ops), so once the
    // predicate holds the arrival set is stable — the first rank through
    // seals it as THE survivor set and everyone reads the sealed copy.
    const auto ready = [&] {
      if (point.sealed || point.aborted) return true;
      for (const int wr : group) {
        if (std::find(point.arrived.begin(), point.arrived.end(), wr) !=
            point.arrived.end()) {
          continue;
        }
        if (!gone(self_world, wr)) return false;
      }
      return true;
    };
    while (!ready()) {
      if (shrink_cv_.wait_until(lock.native(), expiry) ==
              std::cv_status::timeout &&
          !ready()) {
        // Abort the rendezvous for everyone: a divergent survivor set
        // (some ranks proceed, some give up) would be worse than a clean
        // collective failure.
        point.aborted = true;
        shrink_cv_.notify_all();
        break;
      }
    }
    if (point.aborted) {
      LTFB_COUNTER_ADD("comm/timeouts", 1);
      std::ostringstream oss;
      oss << "shrink timed out after " << deadline.budget().count()
          << "ms: a peer is neither arrived nor known gone";
      throw TimeoutError(oss.str());
    }
    if (!point.sealed) {
      point.survivors = point.arrived;
      std::sort(point.survivors.begin(), point.survivors.end());
      point.sealed = true;
      shrink_cv_.notify_all();
    }
    return point.survivors;
  }

 private:
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<RankStatus>> status_;
  FaultSchedule faults_;
  util::Mutex shrink_mutex_;
  std::condition_variable shrink_cv_;
  // ShrinkPoint values (arrived/sealed/aborted/survivors) inherit this
  // guard: they are only ever reached through the map under shrink_mutex_.
  std::map<std::pair<std::uint64_t, std::uint64_t>, ShrinkPoint> shrink_points_
      LTFB_GUARDED_BY(shrink_mutex_);
};

}  // namespace

std::shared_ptr<Backend> make_inproc_backend(int size) {
  return std::make_shared<InProcBackend>(size);
}

}  // namespace ltfb::comm
