// Clang Thread-Safety Analysis macros + annotated mutex wrappers.
//
// Every locking contract in the tree is written down twice: once for the
// compiler (these attributes, checked by Clang's -Wthread-safety under the
// LTFB_THREAD_SAFETY=ON CMake mode) and once for the stdlib-only protocol
// analyzer (tools/ltfb_static.py, which parses the same annotations to
// build a lock-order graph). Under any non-Clang compiler the macros expand
// to nothing, so GCC builds are byte-for-byte unaffected.
//
// Vocabulary (mirrors the Clang docs / abseil naming):
//
//   LTFB_CAPABILITY("mutex")     — class is a lockable capability
//   LTFB_SCOPED_CAPABILITY       — RAII class that acquires in its ctor
//   LTFB_GUARDED_BY(mu)          — member may only be touched with mu held
//   LTFB_PT_GUARDED_BY(mu)       — pointee may only be touched with mu held
//   LTFB_REQUIRES(mu)            — caller must already hold mu
//   LTFB_ACQUIRE(mu)/RELEASE(mu) — function takes / drops mu
//   LTFB_TRY_ACQUIRE(ok, mu)     — conditional acquisition (returns `ok`)
//   LTFB_EXCLUDES(mu)            — caller must NOT hold mu (deadlock guard)
//   LTFB_ACQUIRED_BEFORE/AFTER   — static lock-order declaration
//   LTFB_NO_THREAD_SAFETY_ANALYSIS — opt a function out (last resort; every
//                                    use needs a comment saying why)
//
// Usage rules (enforced by ltfb_static.py on top of the compiler):
//
//   * Mutex-protected members get LTFB_GUARDED_BY at the declaration.
//   * Private helpers called with a lock already held get LTFB_REQUIRES
//     instead of re-locking.
//   * Condition waits use util::MutexLock + an explicit while loop around
//     cv.wait(lock.native()) — predicate-lambda waits are analyzed as
//     separate functions by TSA and would warn on every guarded access.
#pragma once

#include <mutex>

#if defined(__clang__)
#define LTFB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LTFB_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define LTFB_CAPABILITY(x) LTFB_THREAD_ANNOTATION(capability(x))
#define LTFB_SCOPED_CAPABILITY LTFB_THREAD_ANNOTATION(scoped_lockable)
#define LTFB_GUARDED_BY(x) LTFB_THREAD_ANNOTATION(guarded_by(x))
#define LTFB_PT_GUARDED_BY(x) LTFB_THREAD_ANNOTATION(pt_guarded_by(x))
#define LTFB_REQUIRES(...) \
  LTFB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define LTFB_ACQUIRE(...) \
  LTFB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LTFB_RELEASE(...) \
  LTFB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define LTFB_TRY_ACQUIRE(...) \
  LTFB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define LTFB_EXCLUDES(...) LTFB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define LTFB_ACQUIRED_BEFORE(...) \
  LTFB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define LTFB_ACQUIRED_AFTER(...) \
  LTFB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define LTFB_RETURN_CAPABILITY(x) LTFB_THREAD_ANNOTATION(lock_returned(x))
#define LTFB_NO_THREAD_SAFETY_ANALYSIS \
  LTFB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ltfb::util {

/// std::mutex wearing the capability attribute. Drop-in for std::mutex —
/// same Lockable surface — plus native() for std::condition_variable,
/// which is hard-wired to std::unique_lock<std::mutex>.
class LTFB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LTFB_ACQUIRE() { mu_.lock(); }
  void unlock() LTFB_RELEASE() { mu_.unlock(); }
  bool try_lock() LTFB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The raw std::mutex, for APIs that demand the concrete type. Only
  /// MutexLock uses this; everyone else goes through lock()/unlock().
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over util::Mutex, annotated so TSA tracks the critical
/// section. Holds the capability for its full lexical scope; native()
/// exposes the underlying unique_lock for cv.wait(lock.native()), which
/// releases and re-acquires internally — invisible to TSA, but the
/// capability is held again before wait() returns, so every guarded access
/// in the loop body is sound.
class LTFB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LTFB_ACQUIRE(mu) : lock_(mu.native()) {}
  /// Takes over a mutex the caller already holds (after a successful
  /// try_lock()), releasing it at scope exit.
  MutexLock(Mutex& mu, std::adopt_lock_t) LTFB_REQUIRES(mu)
      : lock_(mu.native(), std::adopt_lock) {}
  ~MutexLock() LTFB_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For std::condition_variable::wait / wait_until only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace ltfb::util
