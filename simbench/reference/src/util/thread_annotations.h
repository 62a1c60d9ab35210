/**
 * @file
 * Clang thread-safety annotation macros (CS_ prefix).
 *
 * Wrap clang's `-Wthread-safety` attribute set so mutex-protected
 * state is machine-checked at compile time: a member declared
 * CS_GUARDED_BY(mutex_) read or written without holding mutex_ is a
 * compile error under clang (the CI thread-safety lane builds with
 * `-Wthread-safety -Werror`); gcc compiles the macros away.
 *
 * libstdc++'s std::mutex / std::lock_guard carry no annotations, so
 * the analysis cannot see their acquisitions — guarded state must use
 * the annotated coserve::Mutex / MutexLock wrappers (util/mutex.h)
 * instead. The only cross-thread shared structure in the tree today
 * is SharedCpuTier (runtime/memory_tier.h): static-mode replicas run
 * on their own threads but write disjoint result slots, and the
 * online coordinator steps replicas in lockstep on one thread, so
 * nothing else takes a lock. New shared state must be annotated.
 */

#ifndef COSERVE_UTIL_THREAD_ANNOTATIONS_H
#define COSERVE_UTIL_THREAD_ANNOTATIONS_H

#if defined(__clang__)
#define CS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define CS_THREAD_ANNOTATION_ATTRIBUTE(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability (mutexes). */
#define CS_CAPABILITY(x) CS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/** Marks an RAII type that acquires in ctor / releases in dtor. */
#define CS_SCOPED_CAPABILITY                                           \
    CS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define CS_GUARDED_BY(x) CS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define CS_PT_GUARDED_BY(x)                                            \
    CS_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/** Function callable only while holding the listed capabilities. */
#define CS_REQUIRES(...)                                               \
    CS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/** Function that acquires the listed capabilities. */
#define CS_ACQUIRE(...)                                                \
    CS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities. */
#define CS_RELEASE(...)                                                \
    CS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/** Function that acquires on a given return value. */
#define CS_TRY_ACQUIRE(...)                                            \
    CS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/** Function that must NOT be called while holding the capability. */
#define CS_EXCLUDES(...)                                               \
    CS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/** Function returning a reference to the given capability. */
#define CS_RETURN_CAPABILITY(x)                                        \
    CS_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/** Opt a function out of the analysis (justify in a comment). */
#define CS_NO_THREAD_SAFETY_ANALYSIS                                   \
    CS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif // COSERVE_UTIL_THREAD_ANNOTATIONS_H
