/**
 * @file
 * Ground-truth execution latency model.
 *
 * The paper observes (Section 4.2) that batch latency is linear in the
 * number of requests when all requests in the batch use the same
 * expert:
 *
 *     latency(n) = K * n + B
 *
 * and that beyond the processor's saturation point the benefit of
 * batching diminishes (Figures 5, 12). We model that diminishing return
 * with a quadratic oversaturation penalty so the "maximum executable
 * batch size" found by the offline profiler is a real property of the
 * substrate rather than a hard-coded constant:
 *
 *     latency(n) = K * n + B + P * max(0, n - S)^2
 *
 * The calibrated K/B tables below reproduce the latency ranges of
 * Figures 5 and 12 (RTX 3080 Ti: a few ms per image on GPU, tens of ms
 * on the Xeon; Apple M2 in between).
 *
 * This is the *simulated hardware truth*. The offline profiler
 * (core/profiler.h) measures it through noisy microbenchmarks and fits
 * its own K/B, exactly as the paper profiles real devices.
 */

#ifndef COSERVE_MODEL_LATENCY_MODEL_H
#define COSERVE_MODEL_LATENCY_MODEL_H

#include "hw/device.h"
#include "model/architecture.h"
#include "util/rng.h"
#include "util/time.h"

namespace coserve {

/** Linear-plus-saturation latency parameters for one (arch, proc). */
struct LatencyParams
{
    /** Marginal per-image latency K. */
    Time perImage = 0;
    /** Fixed batch overhead B. */
    Time fixed = 0;
    /** Saturation batch size S (penalty applies beyond it). */
    int saturationBatch = 0;
    /** Quadratic oversaturation penalty P per squared image. */
    Time penaltyPerImageSq = 0;
};

/** Ground-truth execution latency for every (architecture, processor). */
class LatencyModel
{
  public:
    /** Build the calibrated truth table for @p device. */
    static LatencyModel calibrated(const DeviceSpec &device);

    /** Empty model; entries added via setParams (tests, custom HW). */
    LatencyModel() = default;

    /** Install or replace the entry for (arch, proc). */
    void setParams(ArchId arch, ProcKind proc, LatencyParams p);

    /** @return parameters for (arch, proc); panics if absent. */
    const LatencyParams &params(ArchId arch, ProcKind proc) const;

    /** @return true if an entry exists for (arch, proc). */
    bool has(ArchId arch, ProcKind proc) const;

    /** Deterministic batch execution latency for @p batchSize images. */
    Time batchLatency(ArchId arch, ProcKind proc, int batchSize) const;

    /** Average per-image latency = batchLatency / batchSize. */
    Time avgLatency(ArchId arch, ProcKind proc, int batchSize) const;

    /**
     * One noisy "measurement" of batchLatency, emulating run-to-run
     * variance of a real device. Used by the offline profiler.
     *
     * @param noiseFrac relative stddev-ish amplitude (uniform).
     */
    Time measure(ArchId arch, ProcKind proc, int batchSize, Rng &rng,
                 double noiseFrac = 0.03) const;

  private:
    /** Entries indexed [arch][proc]; K == 0 marks a missing pair. */
    LatencyParams table_[kNumArchIds][kNumProcKinds] = {};
};

} // namespace coserve

#endif // COSERVE_MODEL_LATENCY_MODEL_H
