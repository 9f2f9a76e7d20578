#include "util/compute_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/spin_wait.hpp"

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

// Waits until `flag` no longer holds `old` and returns the new value:
// polls it for one spin window when `spin` (util/spin_wait.hpp), then
// parks on std::atomic::wait.
template <typename T>
T await_change(const std::atomic<T>& flag, T old, bool spin) {
  T now = old;
  const auto changed = [&] {
    now = flag.load(std::memory_order_acquire);
    return now != old;
  };
  if (spin && poll_until(spin_window_end(), changed)) return now;
  for (;;) {
    flag.wait(old, std::memory_order_acquire);
    if (changed()) return now;
  }
}

constexpr std::uint64_t claim_word(std::uint64_t tasks, std::uint64_t next) {
  return tasks << 32 | next;
}

}  // namespace

ComputePool::ComputePool() {
  // Pin the telemetry registry's construction BEFORE the team's: Meyers
  // singletons destruct in reverse construction order, and workers touch
  // telemetry counters until they are joined.
  telemetry::Registry::instance();
  resize(env_threads());
  const int registered =
      ::pthread_atfork(&before_fork, &after_fork, &after_fork);
  LTFB_CHECK_MSG(registered == 0, "pthread_atfork failed: " << registered);
}

void ComputePool::before_fork() { instance().team_mutex_.lock(); }

void ComputePool::after_fork() { instance().team_mutex_.unlock(); }

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
  spin_.store(spin_fits(threads), std::memory_order_relaxed);
  start_workers(threads - 1);
  size_.store(threads, std::memory_order_relaxed);
}

void ComputePool::start_workers(std::size_t count) {
  // A worker treats every post after this one as new work, including one
  // made before the thread first runs.
  const std::uint32_t posted = posted_.load(std::memory_order_relaxed);
  threads_.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    threads_.emplace_back([this, posted] { serve(posted); });
  }
}

void ComputePool::stop_workers() {
  if (threads_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  posted_.fetch_add(1, std::memory_order_release);
  posted_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  stopping_.store(false, std::memory_order_relaxed);
}

void ComputePool::serve(std::uint32_t posted) {
  telemetry::set_thread_name("compute/worker");
  tl_in_team = true;
  for (;;) {
    posted = await_change(posted_, posted,
                          spin_.load(std::memory_order_relaxed));
    if (stopping_.load(std::memory_order_relaxed)) return;
    claim_and_run();
  }
}

void ComputePool::claim_and_run() {
  std::uint64_t word = claim_.load(std::memory_order_relaxed);
  for (;;) {
    if ((word & 0xffffffffu) >= (word >> 32)) return;  // all claimed
    if (claim_.compare_exchange_weak(word, word + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      run_task(word & 0xffffffffu);
      word = claim_.load(std::memory_order_relaxed);
    }
  }
}

void ComputePool::run_task(std::size_t task) noexcept {
  {
    // The task runs on behalf of the caller's rank: its spans, metrics and
    // liveness heartbeat belong to that rank, not to the shared team.
    const telemetry::RankBinding bind(job_rank_);
    telemetry::flight::heartbeat_hot();
    try {
      (*job_)(task);
    } catch (...) {
      const MutexLock lock(error_mutex_);
      if (!error_ || task < error_task_) {
        error_task_ = task;
        error_ = std::current_exception();
      }
    }
  }
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    unfinished_.notify_one();
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
  LTFB_CHECK_MSG(tasks <= std::numeric_limits<std::uint32_t>::max(),
                 "ComputePool::run_tasks: too many tasks (" << tasks << ")");
  if (tasks == 0) return;

  // Compute progress counts as liveness: a long GEMM sweep must not read
  // as a hang to the flight-recorder watchdog.
  telemetry::flight::heartbeat();

  if (tasks > 1 && !tl_in_team && size() > 1) {
    if (team_mutex_.try_lock()) {
      fork_join(tasks, fn);
      std::exception_ptr error;
      {
        const MutexLock lock(error_mutex_);
        error = std::move(error_);
        error_ = nullptr;
      }
      team_mutex_.unlock();
      if (error) std::rethrow_exception(error);
      return;
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

void ComputePool::fork_join(std::size_t tasks,
                            const std::function<void(std::size_t)>& fn) {
  job_ = &fn;
  job_rank_ = telemetry::bound_rank();
  unfinished_.store(static_cast<std::uint32_t>(tasks),
                    std::memory_order_relaxed);
  // Task 0 is the caller's; the rest go to whoever claims them first.
  claim_.store(claim_word(tasks, 1), std::memory_order_release);
  posted_.fetch_add(1, std::memory_order_release);
  posted_.notify_all();

  tl_in_team = true;
  run_task(0);
  claim_and_run();
  tl_in_team = false;

  // Only tasks other threads claimed are left; wait for them to finish.
  const bool spin = spin_.load(std::memory_order_relaxed);
  std::uint32_t left = unfinished_.load(std::memory_order_acquire);
  while (left != 0) left = await_change(unfinished_, left, spin);
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
  // The task captures one pointer, which std::function stores in place.
  const struct {
    std::size_t n, grain;
    const std::function<void(std::size_t, std::size_t)>& fn;
  } ranges{n, grain, fn};
  run_tasks(chunks, [&ranges](std::size_t chunk) {
    const std::size_t begin = chunk * ranges.grain;
    ranges.fn(begin, std::min(ranges.n, begin + ranges.grain));
  });
}

}  // namespace ltfb::util
