// The one spin-then-park policy of the tree.
//
// A thread that waits for another thread's store first polls for a short
// window and parks only when the window runs out: on the hosts this was
// tuned on, a park and its wake cost about as much as the window, so a
// wait that the window covers skips both. Two waiters share the policy:
// the compute team's fork-join (util/compute_pool.cpp) and the comm
// mailbox receives (comm/communicator.cpp). Both park at once when the
// threads that wait on each other outnumber the hardware threads.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

namespace ltfb::util {

// How long a waiting thread polls before it parks: about what a park
// costs. On the 4-vCPU VM this was tuned on, a parked team worker starts
// its first task 17-37 us (p10-p90) after the post, while the gaps between
// the ~26 fork-joins of one CycleGAN train_step are 5 us at the median and
// 13-14 us at p90. A 20 us window keeps workers spinning across nearly
// every gap of a step, and a wait that outlasts it would have paid the
// wake anyway. Spinning longer only competes with the work for vCPUs,
// which the host steals 22-35% of whenever all four are busy.
inline constexpr std::chrono::microseconds kSpinWindow{20};

/// Whether `threads` threads that wait on each other may spin: only when
/// they fit the hardware threads, so an oversubscribed process never burns
/// a core that a runnable thread needs.
inline bool spin_fits(std::size_t threads) {
  return threads <= std::thread::hardware_concurrency();
}

/// Polls `ready()` until it returns true (then returns true) or `until`
/// passes (then returns false). A plain load loop that reads the clock
/// once every 64 polls: a PAUSE hint measured no faster here.
template <typename Ready>
bool poll_until(std::chrono::steady_clock::time_point until, Ready&& ready) {
  constexpr std::size_t kPollsPerCheck = 64;
  for (std::size_t polls = 1;; ++polls) {
    if (ready()) return true;
    if (polls % kPollsPerCheck == 0 &&
        std::chrono::steady_clock::now() > until) {
      return false;
    }
  }
}

/// The end of a spin window that starts now.
inline std::chrono::steady_clock::time_point spin_window_end() {
  return std::chrono::steady_clock::now() + kSpinWindow;
}

}  // namespace ltfb::util
