/**
 * @file
 * Expert performance matrix produced by the offline profiler
 * (paper Section 4.5).
 *
 * Holds, per (architecture, processor): the fitted batch-latency
 * parameters K and B, the maximum executable batch size, the expert
 * load latency, and memory footprints. Experts of the same architecture
 * share one entry ("experts of the same model architecture are profiled
 * only once").
 */

#ifndef COSERVE_CORE_PERF_MATRIX_H
#define COSERVE_CORE_PERF_MATRIX_H

#include <cstddef>
#include <cstdint>

#include "hw/device.h"
#include "model/architecture.h"
#include "util/time.h"

namespace coserve {

/** Profiled performance of one (architecture, processor) pair. */
struct PerfEntry
{
    /** Fitted marginal latency per request (gradient K). */
    Time k = 0;
    /** Fitted batch overhead (intercept B). */
    Time b = 0;
    /** Maximum executable batch size (latency plateau). */
    int maxBatch = 1;
    /** Measured load latency from SSD into this processor's pool. */
    Time loadLatency = 0;
    /** Resident expert bytes. */
    std::int64_t expertBytes = 0;
    /** Intermediate-result bytes per batched image. */
    std::int64_t activationBytesPerImage = 0;
    /** Fit quality of the linear regression. */
    double r2 = 0.0;
};

/** Profiled performance for all architectures on one device. */
class PerfMatrix
{
  public:
    /** Install or replace an entry. */
    void set(ArchId arch, ProcKind proc, const PerfEntry &entry);

    /** @return entry; panics when absent. */
    const PerfEntry &at(ArchId arch, ProcKind proc) const;

    /** @return true when (arch, proc) was profiled. */
    bool has(ArchId arch, ProcKind proc) const;

    /** @return number of profiled pairs. */
    std::size_t size() const { return size_; }

  private:
    /** Entries indexed [arch][proc]; K == 0 marks an unprofiled pair. */
    PerfEntry entries_[kNumArchIds][kNumProcKinds] = {};
    std::size_t size_ = 0;
};

} // namespace coserve

#endif // COSERVE_CORE_PERF_MATRIX_H
