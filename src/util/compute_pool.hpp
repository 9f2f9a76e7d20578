// Process-wide compute team for data-parallel kernels.
//
// The tensor kernels (gemm, the large elementwise ops and reductions), the
// nn model passes and the optimizer update loops all share ONE
// lazily-initialized team — the in-node analogue of LBANN spreading a
// trainer's math across cores while the comm substrate spreads it across
// ranks. A team of size N is the calling thread plus N-1 workers;
// run_tasks() is a fork-join in which tasks are claimed, not assigned: the
// caller runs task 0 itself, then it and the workers claim the remaining
// tasks one at a time from one shared counter, and the caller returns when
// every task is done. A worker that is slow to wake, or descheduled by the
// host, therefore never holds up tasks nobody has started. Sizing comes
// from the LTFB_COMPUTE_THREADS environment variable (default: the hardware
// concurrency, capped); size 1 never touches a worker thread.
//
// Determinism contract (load-bearing for LTFB's bit-identical resume and
// the cross-rank weight-sync checks): callers partition their work into
// tasks whose boundaries do NOT depend on which thread runs them, and
// every task writes disjoint state. The team only changes WHERE a task
// runs, never what it computes or how results combine, so a kernel run at
// team size 1, 3, or 8 produces bit-identical output (tested in
// tests/test_tensor.cpp and tests/test_nn.cpp).
//
// Inline rules: a call made from inside a task (nested use, e.g. gemm
// calling tensor::scale), and a call that finds the team already serving
// another thread (in-process rank threads share the team), runs every task
// inline on the calling thread. Neither ever blocks on the team.
//
// Fork rule: the team belongs to the process that started it. The
// process launcher shrinks the team to 1 before it forks and restores it
// afterwards, so a forked child (World::spawn_processes) starts with a team
// of size 1, runs every task inline, and starts a team of its own when it
// resizes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace ltfb::util {

class ComputePool {
 public:
  /// The process-wide team, created on first use with env_threads() threads.
  static ComputePool& instance();

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  /// Team size (>= 1): the caller plus size()-1 workers.
  std::size_t size() const;

  /// Re-sizes the team (tests and benches sweeping team sizes). Waits for
  /// an in-flight run_tasks() on another thread to finish; must not be
  /// called from inside a task.
  void resize(std::size_t threads);

  /// Runs fn(task_index) for every index in [0, tasks). Blocks until every
  /// task has completed; when tasks throw, the exception of the
  /// lowest-index throwing task is rethrown after every task finishes.
  /// fn must write disjoint state per index (see the determinism contract
  /// above). Allocates nothing per call.
  void run_tasks(std::size_t tasks,
                 const std::function<void(std::size_t)>& fn);

  /// Chunked helper for elementwise kernels: splits [0, n) into
  /// `grain`-sized ranges — boundaries depend only on n and grain, never on
  /// the team size — and runs fn(begin, end) for each.
  void parallel_ranges(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// LTFB_COMPUTE_THREADS, or the clamped hardware concurrency when unset.
  static std::size_t env_threads();

 private:
  ComputePool();
  ~ComputePool();

  void start_workers(std::size_t count) LTFB_REQUIRES(team_mutex_);
  void stop_workers() LTFB_REQUIRES(team_mutex_);
  // Posts the job, runs task 0 and claims alongside the workers, then
  // waits for the tasks other threads claimed.
  void fork_join(std::size_t tasks, const std::function<void(std::size_t)>& fn)
      LTFB_REQUIRES(team_mutex_);
  // A worker thread's whole life: wait for a posted job, claim and run its
  // tasks until none is left, wait again.
  void serve(std::uint32_t posted);
  // Claims tasks of the posted job until the counter runs out.
  void claim_and_run();
  // Runs one task of the posted job and counts it finished.
  void run_task(std::size_t task) noexcept;

  // pthread_atfork handlers: the team mutex is held across fork(), so no
  // fork-join or resize is mid-flight in the copy of the pool a child
  // inherits, and the child gets the mutex unlocked.
  static void before_fork() LTFB_NO_THREAD_SAFETY_ANALYSIS;
  static void after_fork() LTFB_NO_THREAD_SAFETY_ANALYSIS;

  // Held for the whole of a fork-join and by resize(). run_tasks() only
  // try-locks it: a caller that finds the team busy runs inline instead.
  Mutex team_mutex_;
  std::vector<std::thread> threads_ LTFB_GUARDED_BY(team_mutex_);
  std::atomic<std::size_t> size_{1};

  // The posted job. Written by the caller before it publishes claim_, and
  // read by another thread only after that thread claimed a task of it.
  const std::function<void(std::size_t)>* job_ = nullptr;
  int job_rank_ = -1;
  // [task count : 32 | next unclaimed task : 32]. A claim is a CAS that
  // bumps the low half while it is below the high half.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  // Tasks of the posted job not yet finished; the caller waits for 0.
  alignas(64) std::atomic<std::uint32_t> unfinished_{0};
  // Bumped once per posted job and once to stop; parked workers wait on it.
  alignas(64) std::atomic<std::uint32_t> posted_{0};
  std::atomic<bool> stopping_{false};
  // Whether waits spin before parking: only when the team fits the
  // hardware threads, so an oversubscribed team never burns a core that a
  // runnable thread needs.
  std::atomic<bool> spin_{false};

  // The lowest-index throwing task of the posted job and its exception.
  Mutex error_mutex_;
  std::size_t error_task_ LTFB_GUARDED_BY(error_mutex_) = 0;
  std::exception_ptr error_ LTFB_GUARDED_BY(error_mutex_);
};

}  // namespace ltfb::util
