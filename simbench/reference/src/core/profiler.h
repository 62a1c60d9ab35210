/**
 * @file
 * Offline performance profiler (paper Sections 4.4 / 4.5).
 *
 * Runs microbenchmarks against the (simulated) device once per device:
 * for every architecture and processor it sweeps the batch size,
 * takes noisy latency measurements, fits the linear batch-latency model
 * latency = K*n + B by least squares, detects the maximum executable
 * batch size as the point where average per-image latency plateaus,
 * and records load latency and memory footprints. The result is the
 * PerfMatrix consumed by the scheduler, the batch splitter and the
 * memory planner.
 */

#ifndef COSERVE_CORE_PROFILER_H
#define COSERVE_CORE_PROFILER_H

#include <vector>

#include "core/perf_matrix.h"
#include "hw/transfer.h"
#include "model/footprint_model.h"
#include "model/latency_model.h"
#include "util/rng.h"

namespace coserve {

/** Knobs of the offline profiling pass. */
struct ProfilerOptions
{
    /** Largest batch size probed. */
    int batchLimit = 48;
    /** Noisy measurements averaged per batch size. */
    int repeats = 5;
    /** Relative measurement noise amplitude. */
    double noiseFrac = 0.03;
    /**
     * Plateau detection: the maximum executable batch size is the
     * smallest n whose average latency is within this tolerance of the
     * best average latency observed.
     */
    double plateauTolerance = 0.02;
    std::uint64_t seed = 0xBEEF;
};

/** One batch-size sweep measurement (exposed for Figure 5 / 12). */
struct SweepPoint
{
    int batchSize = 0;
    Time batchLatency = 0;
    Time avgLatency = 0;
};

/** Offline microbenchmark profiler for one device. */
class OfflineProfiler
{
  public:
    /**
     * @param device profiled device.
     * @param truth simulated hardware truth the microbenchmarks sample.
     * @param footprint footprint truth (measured exactly, as in the
     *        paper: footprints are recorded during profiling).
     * @param opts profiling knobs.
     */
    OfflineProfiler(const DeviceSpec &device, const LatencyModel &truth,
                    const FootprintModel &footprint,
                    ProfilerOptions opts = {});

    /** Profile every (arch, proc) pair and build the matrix. */
    PerfMatrix profile(const std::vector<ArchId> &archs);

    /** Profile a single pair (unit tests, Figure 5/12 benches). */
    PerfEntry profilePair(ArchId arch, ProcKind proc);

    /** Raw measured sweep for one pair (Figure 5/12 series). */
    std::vector<SweepPoint> sweep(ArchId arch, ProcKind proc);

  private:
    DeviceSpec device_;
    const LatencyModel &truth_;
    const FootprintModel &footprint_;
    TransferModel transfer_;
    ProfilerOptions opts_;
    Rng rng_;
};

} // namespace coserve

#endif // COSERVE_CORE_PROFILER_H
