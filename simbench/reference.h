/**
 * @file
 * The reference simulator: a frozen copy of the simulator sources as
 * of the commit that defined this benchmark (simbench/reference/src/),
 * compiled under its own namespace next to the simulator under test.
 *
 * simbench times every repeat of the simulator under test between two
 * repeats of the reference on the same workload. Both are the same
 * kind of code doing the same work, so a shared host slows them down
 * alike, and the ratio of their times stays steady when the host's
 * speed does not. This header names no simulator type, so it can be
 * included next to either copy.
 */

#ifndef SIMBENCH_REFERENCE_H
#define SIMBENCH_REFERENCE_H

#include <cstdint>
#include <memory>

namespace simbench {

class ReferenceSim
{
  public:
    /** Set up @p workload (a name from workloads.h) once. */
    ReferenceSim(const char *workload, std::uint64_t seed, double scale);
    ~ReferenceSim();
    ReferenceSim(const ReferenceSim &) = delete;
    ReferenceSim &operator=(const ReferenceSim &) = delete;

    /**
     * Build a fresh engine or cluster (untimed) and run the trace
     * once; returns host µs of the run call per simulated arrival.
     */
    double usPerRequest();

    /**
     * Set up again, as simbench.cc's setup() does: board build,
     * offline profiling, trace generation and engine/cluster
     * construction. Returns host seconds.
     */
    double setupSeconds();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace simbench

#endif // SIMBENCH_REFERENCE_H
