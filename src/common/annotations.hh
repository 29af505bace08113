/**
 * @file
 * Clang Thread Safety Analysis vocabulary — the one set of annotation
 * macros used across the tree (docs/ANALYSIS.md, "Thread-safety
 * annotations").
 *
 * The macros expand to clang's thread-safety attributes under clang and
 * to nothing elsewhere, so GCC builds are byte-identical with or without
 * them. A clang build configured with `-DPARGPU_TSA=ON` turns the
 * analysis into hard errors (`-Wthread-safety -Werror=thread-safety`);
 * scripts/check.sh runs that build when clang is available and prints a
 * uniform `SKIP:` line when it is not.
 *
 * Three layers live here:
 *
 *  1. Raw attribute macros (PARGPU_CAPABILITY, PARGPU_GUARDED_BY,
 *     PARGPU_REQUIRES, PARGPU_EXCLUDES, ...) for annotating any class or
 *     function.
 *  2. Mutex / MutexLock / UniqueLock — a std::mutex wrapper that *is* a
 *     capability, plus the two RAII shapes the tree needs (plain scope
 *     lock, and a relockable lock for condition_variable_any waits).
 *     libstdc++'s std::mutex carries no capability attributes, so
 *     annotated modules must hold their state behind this wrapper for
 *     the analysis to see acquisitions.
 *  3. PhaseCapability / PhaseGuard — a zero-cost "fake" capability for
 *     execution-phase disciplines that are enforced by structure rather
 *     than by the lock the capability names (e.g. the MemorySystem
 *     serial phase: before the fragment workers start, or under the
 *     tile stream's commit drain, which one worker holds at a time).
 *     Acquire/release are no-ops; the value is that clang can prove a
 *     code path outside the phase never reaches a shared-state function
 *     that requires it.
 */

#ifndef PARGPU_COMMON_ANNOTATIONS_HH
#define PARGPU_COMMON_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define PARGPU_TSA_ATTR_(x) __attribute__((x))
#else
#define PARGPU_TSA_ATTR_(x)
#endif

/** Marks a class as a capability (lock role) named @p name. */
#define PARGPU_CAPABILITY(name) PARGPU_TSA_ATTR_(capability(name))

/** Marks a RAII class that acquires in its ctor and releases in its dtor. */
#define PARGPU_SCOPED_CAPABILITY PARGPU_TSA_ATTR_(scoped_lockable)

/** Data member readable/writable only while holding capability @p x. */
#define PARGPU_GUARDED_BY(x) PARGPU_TSA_ATTR_(guarded_by(x))

/** Pointer member whose *pointee* is guarded by capability @p x. */
#define PARGPU_PT_GUARDED_BY(x) PARGPU_TSA_ATTR_(pt_guarded_by(x))

/** Function that must be called with the listed capabilities held. */
#define PARGPU_REQUIRES(...) \
    PARGPU_TSA_ATTR_(requires_capability(__VA_ARGS__))

/** Function that must be called with the listed capabilities NOT held. */
#define PARGPU_EXCLUDES(...) PARGPU_TSA_ATTR_(locks_excluded(__VA_ARGS__))

/** Function that acquires the listed capabilities (its own, if empty). */
#define PARGPU_ACQUIRE(...) \
    PARGPU_TSA_ATTR_(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities (its own, if empty). */
#define PARGPU_RELEASE(...) \
    PARGPU_TSA_ATTR_(release_capability(__VA_ARGS__))

/** Function that acquires on the given return value (e.g. true). */
#define PARGPU_TRY_ACQUIRE(...) \
    PARGPU_TSA_ATTR_(try_acquire_capability(__VA_ARGS__))

/** Runtime assertion that capability @p x is held (no acquisition). */
#define PARGPU_ASSERT_CAPABILITY(x) PARGPU_TSA_ATTR_(assert_capability(x))

/** Function returning a reference to capability @p x. */
#define PARGPU_RETURN_CAPABILITY(x) PARGPU_TSA_ATTR_(lock_returned(x))

/** Opts a function out of the analysis (justify at the use site). */
#define PARGPU_NO_TSA PARGPU_TSA_ATTR_(no_thread_safety_analysis)

namespace pargpu
{

/**
 * A std::mutex that clang's thread-safety analysis can track. Drop-in
 * for the modules' internal locks; see MutexLock / UniqueLock for the
 * RAII forms.
 */
class PARGPU_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() PARGPU_ACQUIRE()
    {
        mu_.lock();
    }

    void
    unlock() PARGPU_RELEASE()
    {
        mu_.unlock();
    }

    bool
    try_lock() PARGPU_TRY_ACQUIRE(true)
    {
        return mu_.try_lock();
    }

  private:
    std::mutex mu_;
};

/** std::lock_guard equivalent over Mutex, visible to the analysis. */
class PARGPU_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) PARGPU_ACQUIRE(mu)
        : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() PARGPU_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Relockable scope lock: like MutexLock but with lock()/unlock() so it
 * satisfies BasicLockable — pass it to std::condition_variable_any::wait,
 * which unlocks around the block and returns with the lock re-held (the
 * analysis therefore sees the capability held across the wait, which is
 * the correct model for the waiting code).
 */
class PARGPU_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) PARGPU_ACQUIRE(mu)
        : mu_(mu), held_(true)
    {
        mu_.lock();
    }

    ~UniqueLock() PARGPU_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    void
    lock() PARGPU_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

    void
    unlock() PARGPU_RELEASE()
    {
        held_ = false;
        mu_.unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    Mutex &mu_;
    bool held_;
};

/**
 * A capability with no runtime lock behind it, for phase disciplines
 * enforced by program structure (a region no other thread runs yet, or
 * one a try-lock elsewhere admits one thread at a time into): the
 * holder is whichever code runs in the phase, and PhaseGuard marks the
 * phase's extent. acquire()/release()
 * compile to nothing; under clang TSA, functions annotated
 * PARGPU_REQUIRES(phase) are provably unreachable from code that does
 * not sit inside a PhaseGuard (or assertHeld()) scope.
 */
class PARGPU_CAPABILITY("phase") PhaseCapability
{
  public:
    void acquire() PARGPU_ACQUIRE() {}
    void release() PARGPU_RELEASE() {}

    /**
     * Declare (to the analysis only) that the phase is active here — for
     * code such as per-item callbacks that clang analyzes as separate
     * functions but that only ever run inside the guarded phase.
     */
    void assertHeld() const PARGPU_ASSERT_CAPABILITY(this) {}
};

/**
 * RAII extent of a PhaseCapability. Zero runtime cost: it excludes no
 * other thread, so it may only be scoped where the program admits one
 * thread at a time.
 */
class PARGPU_SCOPED_CAPABILITY PhaseGuard
{
  public:
    explicit PhaseGuard(PhaseCapability &phase) PARGPU_ACQUIRE(phase)
        : phase_(phase)
    {
        phase_.acquire();
    }

    ~PhaseGuard() PARGPU_RELEASE() { phase_.release(); }

    PhaseGuard(const PhaseGuard &) = delete;
    PhaseGuard &operator=(const PhaseGuard &) = delete;

  private:
    PhaseCapability &phase_;
};

} // namespace pargpu

#endif // PARGPU_COMMON_ANNOTATIONS_HH
