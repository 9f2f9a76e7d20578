#include "util/compute_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace ltfb::util {

namespace {

// Set on team workers for their lifetime and on a caller for the length of
// its fork-join, so a nested run_tasks() runs inline instead of waiting on
// the team it is part of.
thread_local bool tl_in_team = false;

// Upper bound for LTFB_COMPUTE_THREADS; this is an in-process rank-thread
// world, so a runaway value would oversubscribe every rank at once.
constexpr std::size_t kMaxThreads = 64;

// Default sizing cap: enough to feed the GEMM macro-block fan-out without
// starving the comm rank threads sharing the machine.
constexpr std::size_t kDefaultThreadCap = 16;

// How long a waiter polls a team flag before it parks. The window spans
// the serial stretches between the parallel kernels of one training step
// (p99 ~450 us for the CycleGAN step at batch 128 on a 4-vCPU VM), because
// a parked thread pays a wake-up latency of tens of microseconds there.
constexpr auto kSpinWindow = std::chrono::microseconds(500);
// Polls between clock reads. Past the first kTightPolls (a few
// microseconds) the spinner also yields at each clock read, so a runnable
// thread sharing its core, such as another rank, is not starved.
constexpr std::size_t kPollsPerCheck = 64;
constexpr std::size_t kTightPolls = 1u << 12;

// Waits until `flag` no longer holds `old` and returns the new value:
// spins first when `spin`, then parks on std::atomic::wait.
template <typename T>
T await_change(const std::atomic<T>& flag, T old, bool spin) {
  if (spin) {
    const auto until = std::chrono::steady_clock::now() + kSpinWindow;
    for (std::size_t polls = 1;; ++polls) {
      const T now = flag.load(std::memory_order_acquire);
      if (now != old) return now;
      if (polls % kPollsPerCheck != 0) continue;
      if (std::chrono::steady_clock::now() > until) break;
      if (polls > kTightPolls) std::this_thread::yield();
    }
  }
  for (;;) {
    flag.wait(old, std::memory_order_acquire);
    const T now = flag.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

// Handles of the workers a forked child inherited from its parent. The
// child can neither join nor detach them: those threads do not exist in it,
// and its thread library recycles their stacks for the child's own new
// threads. Parked here and never destroyed.
std::vector<std::thread>& parent_workers() {
  static std::vector<std::thread>* const parked =
      std::make_unique<std::vector<std::thread>>().release();
  return *parked;
}

// Runs tasks [begin, end) in order; returns the exception of the first task
// that throws (the rest of the range is skipped).
std::exception_ptr run_share(const std::function<void(std::size_t)>& fn,
                             std::size_t begin, std::size_t end) {
  try {
    for (std::size_t t = begin; t < end; ++t) fn(t);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

// One worker's mailbox, on its own cache line. The caller fills the share
// fields, then publishes them with a release increment of `posted`; the
// worker acquires `posted`, runs the share, and reports through `error`
// and the pool's `pending_` count.
struct alignas(64) ComputePool::Slot {
  std::atomic<std::uint32_t> posted{0};
  bool stop = false;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  int rank = -1;
  std::exception_ptr error;
};

ComputePool::ComputePool() {
  // Pin the telemetry registry's construction BEFORE the team's: Meyers
  // singletons destruct in reverse construction order, and workers touch
  // telemetry counters until they are joined.
  telemetry::Registry::instance();
  resize(env_threads());
  const int registered = ::pthread_atfork(
      &before_fork, &after_fork_in_parent, &after_fork_in_child);
  LTFB_CHECK_MSG(registered == 0, "pthread_atfork failed: " << registered);
}

void ComputePool::before_fork() { instance().team_mutex_.lock(); }

void ComputePool::after_fork_in_parent() { instance().team_mutex_.unlock(); }

void ComputePool::after_fork_in_child() {
  ComputePool& pool = instance();
  for (std::thread& thread : pool.threads_) {
    parent_workers().push_back(std::move(thread));
  }
  pool.threads_.clear();
  pool.slots_.reset();
  pool.size_.store(1, std::memory_order_relaxed);
  pool.team_mutex_.unlock();
}

ComputePool::~ComputePool() {
  const MutexLock lock(team_mutex_);
  stop_workers();
}

ComputePool& ComputePool::instance() {
  static ComputePool pool;
  return pool;
}

std::size_t ComputePool::size() const {
  return size_.load(std::memory_order_relaxed);
}

void ComputePool::resize(std::size_t threads) {
  LTFB_CHECK_MSG(threads >= 1 && threads <= kMaxThreads,
                 "compute pool size must be in [1, " << kMaxThreads
                                                     << "], got " << threads);
  LTFB_CHECK_MSG(!tl_in_team, "ComputePool::resize called from a task");
  const MutexLock lock(team_mutex_);
  if (threads == threads_.size() + 1) return;
  stop_workers();
  spin_.store(threads <= std::thread::hardware_concurrency(),
              std::memory_order_relaxed);
  start_workers(threads - 1);
  size_.store(threads, std::memory_order_relaxed);
}

void ComputePool::start_workers(std::size_t count) {
  slots_ = std::make_unique<Slot[]>(count);
  threads_.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    Slot* slot = &slots_[w];
    threads_.emplace_back([this, slot] { serve(*slot); });
  }
}

void ComputePool::stop_workers() {
  for (std::size_t w = 0; w < threads_.size(); ++w) {
    Slot& slot = slots_[w];
    slot.stop = true;
    slot.posted.fetch_add(1, std::memory_order_release);
    slot.posted.notify_one();
  }
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  slots_.reset();
}

void ComputePool::serve(Slot& slot) {
  telemetry::set_thread_name("compute/worker");
  tl_in_team = true;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(slot.posted, seen,
                        spin_.load(std::memory_order_relaxed));
    if (slot.stop) return;
    {
      // The share runs on behalf of the caller's rank: its spans, metrics
      // and liveness heartbeat belong to that rank, not to the shared team.
      const telemetry::RankBinding bind(slot.rank);
      telemetry::flight::heartbeat_hot();
      LTFB_SPAN("compute/share");
      slot.error = run_share(*slot.fn, slot.begin, slot.end);
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

std::size_t ComputePool::env_threads() {
  const char* env = std::getenv("LTFB_COMPUTE_THREADS");
  if (env == nullptr || *env == '\0') {
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw, 1, kDefaultThreadCap);
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  LTFB_CHECK_MSG(end != env && *end == '\0' && parsed >= 1 &&
                     parsed <= kMaxThreads,
                 "LTFB_COMPUTE_THREADS must be an integer in [1, "
                     << kMaxThreads << "], got '" << env << "'");
  return static_cast<std::size_t>(parsed);
}

void ComputePool::run_tasks(std::size_t tasks,
                            const std::function<void(std::size_t)>& fn) {
  LTFB_CHECK_MSG(fn != nullptr, "ComputePool::run_tasks requires a callable");
  if (tasks == 0) return;

  // Compute progress counts as liveness: a long GEMM sweep must not read
  // as a hang to the flight-recorder watchdog.
  telemetry::flight::heartbeat();

  if (tasks > 1 && !tl_in_team && size() > 1) {
    if (team_mutex_.try_lock()) {
      const std::exception_ptr error = fork_join(tasks, fn);
      team_mutex_.unlock();
      if (error) std::rethrow_exception(error);
      return;
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

std::exception_ptr ComputePool::fork_join(
    std::size_t tasks, const std::function<void(std::size_t)>& fn) {
  // Contiguous shares, one per team member, cut from the task count alone.
  // Only WHERE a task runs depends on the team size; each index runs
  // exactly as in the serial loop, which keeps results team-size-invariant.
  const std::size_t shares = std::min(tasks, threads_.size() + 1);
  const int caller_rank = telemetry::bound_rank();
  pending_.store(static_cast<std::uint32_t>(shares - 1),
                 std::memory_order_relaxed);
  for (std::size_t s = 1; s < shares; ++s) {
    Slot& slot = slots_[s - 1];
    slot.fn = &fn;
    slot.begin = tasks * s / shares;
    slot.end = tasks * (s + 1) / shares;
    slot.rank = caller_rank;
    slot.posted.fetch_add(1, std::memory_order_release);
    slot.posted.notify_one();
  }

  tl_in_team = true;
  std::exception_ptr first = run_share(fn, 0, tasks / shares);
  tl_in_team = false;

  const bool spin = spin_.load(std::memory_order_relaxed);
  std::uint32_t left = pending_.load(std::memory_order_acquire);
  while (left != 0) left = await_change(pending_, left, spin);

  for (std::size_t s = 1; s < shares; ++s) {
    std::exception_ptr& error = slots_[s - 1].error;
    if (!first) first = error;
    error = nullptr;
  }
  return first;
}

void ComputePool::parallel_ranges(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  LTFB_CHECK_MSG(grain > 0, "ComputePool::parallel_ranges requires grain > 0");
  if (n == 0) return;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) {
    fn(0, n);
    return;
  }
  run_tasks(chunks, [n, grain, &fn](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    fn(begin, std::min(n, begin + grain));
  });
}

}  // namespace ltfb::util
