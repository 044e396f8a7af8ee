#ifndef LFO_UTIL_THREAD_ANNOTATIONS_HPP
#define LFO_UTIL_THREAD_ANNOTATIONS_HPP

#include <condition_variable>
#include <mutex>

/// Clang Thread Safety Analysis annotations + the annotated lock types
/// that make them enforceable, plus the LFO_HOT_PATH marker consumed by
/// tools/lfo_lint.py. See DESIGN.md "Static analysis".
///
/// Every macro expands to a Clang `thread_safety` attribute when the
/// compiler supports the analysis and to nothing otherwise (GCC builds
/// compile the exact same code, unchecked). The `thread-safety` CMake
/// preset turns the analysis into a hard error (-Werror=thread-safety),
/// so a GUARDED_BY field touched without its mutex is rejected by the
/// build instead of hopefully caught by a TSan stress run.
///
/// Discipline (enforced by tools/run_static_checks.sh on clang hosts):
///  - every mutex shared across threads is a util::Mutex, never a bare
///    std::mutex — std::mutex carries no capability attribute under
///    libstdc++, so the analysis cannot see its acquisitions;
///  - every field a mutex protects is declared LFO_GUARDED_BY(mu_);
///  - private helpers that assume the lock is held are declared
///    LFO_REQUIRES(mu_) instead of re-locking or trusting a comment;
///  - condition waits go through util::CondVar::wait(mu) inside an
///    explicit predicate loop — lambda predicates passed into
///    std::condition_variable::wait are invisible to the analysis.

#if defined(__clang__) && (!defined(SWIG))
#define LFO_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define LFO_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on non-Clang
#endif

/// Type annotation: this class is a lockable capability ("mutex").
#define LFO_CAPABILITY(x) LFO_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Type annotation: RAII object that acquires a capability in its
/// constructor and releases it in its destructor.
#define LFO_SCOPED_CAPABILITY \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define LFO_GUARDED_BY(x) LFO_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Field annotation: the pointed-to data requires holding `x`.
#define LFO_PT_GUARDED_BY(x) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection).
#define LFO_ACQUIRED_BEFORE(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define LFO_ACQUIRED_AFTER(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function annotation: caller must hold the capability (exclusively /
/// shared) on entry; it is still held on exit.
#define LFO_REQUIRES(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define LFO_REQUIRES_SHARED(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function annotation: acquires / releases the capability.
#define LFO_ACQUIRE(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define LFO_ACQUIRE_SHARED(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define LFO_RELEASE(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define LFO_RELEASE_SHARED(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function annotation: acquires the capability iff the return value
/// equals `...` (e.g. LFO_TRY_ACQUIRE(true) on try_lock()).
#define LFO_TRY_ACQUIRE(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function annotation: must be called WITHOUT the capability held
/// (catches self-deadlock on non-reentrant mutexes).
#define LFO_EXCLUDES(...) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function annotation: returns a reference to the capability protecting
/// the returned data.
#define LFO_RETURN_CAPABILITY(x) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Runtime assertion that the calling thread holds the capability;
/// informs the analysis on paths it cannot prove.
#define LFO_ASSERT_CAPABILITY(x) \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Escape hatch: disable the analysis for one function. Every use must
/// carry a comment explaining why the function is safe.
#define LFO_NO_THREAD_SAFETY_ANALYSIS \
  LFO_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/// Marker consumed by tools/lfo_lint.py: the tagged function DEFINITION
/// is part of the zero-allocation, lock-free serving hot path. lfo_lint
/// rejects heap allocation (new/malloc/make_unique/growing container
/// calls) and locking inside the body unless the line carries an
/// explicit `// lfo-lint: allow(hotpath): why` justification. Runtime
/// enforcement of the same property is tests/test_hotpath_alloc.cpp;
/// the lint makes it reviewable at the source level. Tag definitions,
/// not declarations — the checker scans the brace-balanced body that
/// follows the marker. Expands to nothing at compile time.
#define LFO_HOT_PATH

namespace lfo::util {

/// std::mutex with the capability attribute the analysis needs. Same
/// size and cost as std::mutex; the wrapper exists only because
/// libstdc++'s std::mutex is unannotated, which would make every
/// GUARDED_BY field a false positive.
class LFO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LFO_ACQUIRE() { mu_.lock(); }
  void unlock() LFO_RELEASE() { mu_.unlock(); }
  bool try_lock() LFO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (the annotated std::lock_guard).
class LFO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LFO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LFO_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over util::Mutex. wait() declares LFO_REQUIRES, so
/// the analysis verifies the caller holds the mutex across the wait and
/// callers must write explicit predicate loops:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);   // ready_ is LFO_GUARDED_BY(mu_)
///
/// (A lambda predicate handed to std::condition_variable::wait would be
/// analyzed as an unlocked function and reject the guarded reads.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// Spurious wakeups happen; always wait in a predicate loop.
  void wait(Mutex& mu) LFO_REQUIRES(mu) {
    // The caller locked `mu` directly (or via MutexLock), so adopt the
    // already-held native mutex for the wait and hand ownership back by
    // releasing the unique_lock without unlocking.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lfo::util

#endif  // LFO_UTIL_THREAD_ANNOTATIONS_HPP
