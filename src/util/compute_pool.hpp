// Process-wide compute team for data-parallel kernels.
//
// The tensor kernels (gemm, the large elementwise ops and reductions) and
// the optimizer update loops all share ONE lazily-initialized team — the
// in-node analogue of LBANN spreading a trainer's math across cores while
// the comm substrate spreads it across ranks. A team of size N is the
// calling thread plus N-1 parked workers; run_tasks() is a fork-join: the
// caller runs the first contiguous share of the tasks itself, each worker
// runs one share from its own slot, and the caller returns when every share
// is done. Sizing comes from the LTFB_COMPUTE_THREADS environment variable
// (default: the hardware concurrency, capped); size 1 never touches a
// worker thread.
//
// Determinism contract (load-bearing for LTFB's bit-identical resume and
// the cross-rank weight-sync checks): callers partition their work into
// tasks whose boundaries do NOT depend on the team size, and every task
// writes disjoint state. The team only changes WHERE a task runs, never
// what it computes or how results combine, so a kernel run at team size 1,
// 3, or 8 produces bit-identical output (tested in tests/test_tensor.cpp).
//
// Inline rules: a call made from inside a task (nested use, e.g. gemm
// calling tensor::scale), and a call that finds the team already serving
// another thread (in-process rank threads share the team), runs every task
// inline on the calling thread. Neither ever blocks on the team.
//
// Fork rule: the team belongs to the process that started it. A forked
// child (World::spawn_processes) inherits none of the workers, so it starts
// with a team of size 1 and runs every task inline until it resizes, which
// starts a fresh team of its own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
  /// task has completed; when a task throws, the first exception (lowest
  /// share) is rethrown after every share finishes, and the rest of the
  /// throwing share is skipped. fn must write disjoint state per index (see
  /// the determinism contract above). Allocates nothing per call.
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
  struct Slot;

  ComputePool();
  ~ComputePool();

  void start_workers(std::size_t count) LTFB_REQUIRES(team_mutex_);
  void stop_workers() LTFB_REQUIRES(team_mutex_);
  // Runs the tasks across the team; returns the first share's exception.
  std::exception_ptr fork_join(std::size_t tasks,
                               const std::function<void(std::size_t)>& fn)
      LTFB_REQUIRES(team_mutex_);
  // A worker thread's whole life: wait for a share, run it, report.
  void serve(Slot& slot);

  // pthread_atfork handlers. The team mutex is held across fork(), so no
  // fork-join or resize is mid-flight in the copy a child inherits; the
  // child then drops the parent's workers without joining them.
  static void before_fork() LTFB_NO_THREAD_SAFETY_ANALYSIS;
  static void after_fork_in_parent() LTFB_NO_THREAD_SAFETY_ANALYSIS;
  static void after_fork_in_child() LTFB_NO_THREAD_SAFETY_ANALYSIS;

  // Held for the whole of a fork-join and by resize(). run_tasks() only
  // try-locks it: a caller that finds the team busy runs inline instead.
  Mutex team_mutex_;
  std::unique_ptr<Slot[]> slots_ LTFB_GUARDED_BY(team_mutex_);
  std::vector<std::thread> threads_ LTFB_GUARDED_BY(team_mutex_);
  std::atomic<std::size_t> size_{1};
  // Worker shares still running in the current fork-join.
  std::atomic<std::uint32_t> pending_{0};
  // Whether waits spin before parking: only when the team fits the
  // hardware threads, so an oversubscribed team never burns a core that a
  // runnable thread needs.
  std::atomic<bool> spin_{false};
};

}  // namespace ltfb::util
