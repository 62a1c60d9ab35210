/**
 * @file
 * Annotated mutex wrappers for clang thread-safety analysis.
 *
 * std::mutex / std::lock_guard work fine at runtime but libstdc++
 * ships them without thread-safety attributes, so clang's analysis
 * cannot credit their acquisitions and every CS_GUARDED_BY member
 * would false-positive. Mutex and MutexLock are the thinnest possible
 * annotated shims over std::mutex — same semantics, zero overhead,
 * analysis-visible.
 */

#ifndef COSERVE_UTIL_MUTEX_H
#define COSERVE_UTIL_MUTEX_H

#include <mutex>

#include "util/thread_annotations.h"

namespace coserve {

/** std::mutex with clang capability annotations. */
class CS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() CS_ACQUIRE() { m_.lock(); }
    void unlock() CS_RELEASE() { m_.unlock(); }
    bool try_lock() CS_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/** Scoped lock over Mutex (std::lock_guard, analysis-visible). */
class CS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) CS_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() CS_RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

} // namespace coserve

#endif // COSERVE_UTIL_MUTEX_H
