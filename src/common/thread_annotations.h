// Clang thread-safety capability annotations + the annotated
// synchronization primitives every subsystem must use.
//
// The stack's locking discipline is a *compile-time contract*: shared
// mutable state is declared QS_GUARDED_BY its mutex, lock-held helpers
// are declared QS_REQUIRES it, and a clang build with -Wthread-safety
// -Werror (the `clang-thread-safety` CI job) rejects any access that
// does not provably hold the right lock. GCC compiles the macros away,
// so the annotations cost nothing outside analysis builds.
//
// Raw std::mutex / std::condition_variable are banned in src/ outside
// this header (enforced by tools/lint_invariants.py): code must use
// qs::Mutex / qs::CondVar / qs::MutexLock so every lock in the stack is
// visible to the analysis. The wrappers add no state or behavior -- a
// qs::Mutex *is* a std::mutex as far as TSan and the OS are concerned.
//
// Lock-order registry (runtime contract; the analysis proves discipline
// per-lock, order is documented here and hammered by tests):
//   serve:  ServiceCore::mutex -> JobRecord::mutex   (core -> record:
//           ServiceCore::transition for admission and every edge out
//           of kQueued; finish edges take the record mutex alone.
//           Never the reverse -- JobHandle paths that hold a record
//           mutex must not call back into the service core)
//           JobRecord::mutex -> Journal::mutex_ (record -> journal:
//           transition_locked records the edge's event, a leaf edge)
//           ServiceCore::mutex -> CalibrationStore::mutex_ (core ->
//           calibration store: recalibrate() reads latest_epoch() and
//           publishes under the core lock so epochs serialize, and the
//           dispatch edge of ServiceCore::transition reads
//           latest_epoch() to count stale hits)
//           ServiceCore::mutex -> ManualClock::mutex_ (core -> clock:
//           worker_loop stamps each pop with time_source->now(), and
//           the publish under recalibrate() times its span)
//   obs:    ServiceCore::mutex -> MetricsRegistry::names_mutex_ (lazy
//           tenant-histogram registration in submit);
//           names_mutex_ -> shard mutexes in index order (snapshot()
//           holds them all at once for its consistent cut);
//           <any subsystem lock> -> metrics-shard / tracer-ring /
//           journal leaf (a MetricsTxn commit, span record or
//           service-level journal mark while the caller holds its own
//           lock, e.g. ServiceCore::transition under ServiceCore::mutex)
//   leaves: KeyedArtifactCache::mutex_, ResultStore::mutex_ -- taken
//           alone, nothing acquired under them (producers run OUTSIDE
//           the cache lock, and their metric txns are declared before
//           the MutexLock so they commit after release);
//           CalibrationStore::mutex_ -- taken alone or under
//           ServiceCore::mutex (above), nothing acquired under it;
//           MetricsRegistry shard mutexes, Tracer shard mutexes,
//           Journal::mutex_, ManualClock::mutex_ -- terminal.
#ifndef QS_COMMON_THREAD_ANNOTATIONS_H
#define QS_COMMON_THREAD_ANNOTATIONS_H

#include <condition_variable>  // lint:allow(raw-sync): annotated wrapper home
#include <mutex>               // lint:allow(raw-sync): annotated wrapper home

#if defined(__clang__)
#define QS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define QS_THREAD_ANNOTATION(x)  // GCC/MSVC: no thread-safety analysis
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define QS_CAPABILITY(x) QS_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires at construction, releases at
/// destruction (std::lock_guard shape).
#define QS_SCOPED_CAPABILITY QS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the mutex held.
#define QS_GUARDED_BY(x) QS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the mutex.
#define QS_PT_GUARDED_BY(x) QS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Lock-order edges, checked under -Wthread-safety-beta.
#define QS_ACQUIRED_BEFORE(...) \
  QS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define QS_ACQUIRED_AFTER(...) QS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function requires the capability held on entry (and does not release).
#define QS_REQUIRES(...) QS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define QS_REQUIRES_SHARED(...) \
  QS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability (held on return, not on entry).
#define QS_ACQUIRE(...) QS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on return).
#define QS_RELEASE(...) QS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define QS_TRY_ACQUIRE(...) \
  QS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (anti-deadlock:
/// it acquires the lock itself).
#define QS_EXCLUDES(...) QS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define QS_RETURN_CAPABILITY(x) QS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use needs a comment justifying why the analysis
/// cannot see the invariant that makes the code safe.
#define QS_NO_THREAD_SAFETY_ANALYSIS \
  QS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace qs {

class CondVar;

/// Annotated standard mutex. Prefer qs::MutexLock over manual
/// lock()/unlock() pairs; the analysis accepts both.
class QS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QS_ACQUIRE() { impl_.lock(); }
  void unlock() QS_RELEASE() { impl_.unlock(); }
  bool try_lock() QS_TRY_ACQUIRE(true) { return impl_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex impl_;  // lint:allow(raw-sync): the one wrapped instance
};

/// RAII lock over qs::Mutex (std::lock_guard shape, analysis-aware).
class QS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) QS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() QS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over qs::Mutex. There is deliberately no
/// predicate overload: a lambda predicate is analyzed as a separate
/// function that does not hold the lock, so guarded reads inside it
/// trip -Wthread-safety. Callers write the loop inline instead, where
/// the analysis sees the lock held:
///
///   MutexLock lock(mu);
///   while (!ready) cv.wait(mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; `mu` is re-held on return.
  /// Spurious wakeups happen: always wait in a predicate loop.
  // The adopt/release dance hands the already-held impl_ mutex to a
  // std::unique_lock for the wait without double-locking; the analysis
  // cannot see through it, but the capability state (held on entry,
  // held on return) matches QS_REQUIRES exactly.
  void wait(Mutex& mu) QS_REQUIRES(mu) QS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(  // lint:allow(raw-sync): wrapper impl
        mu.impl_, std::adopt_lock);
    impl_.wait(lock);
    lock.release();
  }

  void notify_one() { impl_.notify_one(); }
  void notify_all() { impl_.notify_all(); }

 private:
  std::condition_variable impl_;  // lint:allow(raw-sync): wrapped instance
};

}  // namespace qs

#endif  // QS_COMMON_THREAD_ANNOTATIONS_H
