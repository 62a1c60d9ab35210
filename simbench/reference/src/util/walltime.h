/**
 * @file
 * Host wall-clock access — the ONE file allowed to read real time.
 *
 * Everything simulated runs on the virtual clock (util/time.h);
 * results derived from host time are nondeterministic by definition,
 * so detlint's `wallclock` rule bans steady_clock / system_clock /
 * time() everywhere in src/ except this header. Code that needs host
 * time for *reporting* (wall-seconds of a run, scheduling overhead in
 * host microseconds) uses WallTimer, which keeps the readings clearly
 * quarantined from simulated quantities: a WallTimer can only produce
 * elapsed host durations, never a timestamp that could leak into a
 * decision path or a digest.
 */

#ifndef COSERVE_UTIL_WALLTIME_H
#define COSERVE_UTIL_WALLTIME_H

#include <chrono>

namespace coserve {

/**
 * Monotonic host-time stopwatch for measuring real elapsed time
 * around a block of work (run wall-seconds, per-dispatch scheduling
 * overhead). Starts at construction.
 */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Restart the stopwatch at the current host time. */
    void restart() { start_ = std::chrono::steady_clock::now(); }

    /** @return host seconds elapsed since construction / restart. */
    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** @return host microseconds elapsed since construction / restart. */
    double
    elapsedMicros() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace coserve

#endif // COSERVE_UTIL_WALLTIME_H
