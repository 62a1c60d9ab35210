#include "core/profiler.h"

#include <algorithm>

#include "util/linear_fit.h"
#include "util/logging.h"

namespace coserve {

OfflineProfiler::OfflineProfiler(const DeviceSpec &device,
                                 const LatencyModel &truth,
                                 const FootprintModel &footprint,
                                 ProfilerOptions opts)
    : device_(device), truth_(truth), footprint_(footprint),
      transfer_(device), opts_(opts), rng_(opts.seed)
{
    COSERVE_CHECK(opts_.batchLimit >= 2, "batchLimit too small");
    COSERVE_CHECK(opts_.repeats >= 1, "need at least one repeat");
}

std::vector<SweepPoint>
OfflineProfiler::sweep(ArchId arch, ProcKind proc)
{
    std::vector<SweepPoint> points;
    points.reserve(static_cast<std::size_t>(opts_.batchLimit));
    for (int n = 1; n <= opts_.batchLimit; ++n) {
        Time sum = 0;
        for (int r = 0; r < opts_.repeats; ++r)
            sum += truth_.measure(arch, proc, n, rng_, opts_.noiseFrac);
        const Time lat = sum / opts_.repeats;
        points.push_back(SweepPoint{n, lat, lat / n});
    }
    return points;
}

PerfEntry
OfflineProfiler::profilePair(ArchId arch, ProcKind proc)
{
    const std::vector<SweepPoint> points = sweep(arch, proc);

    // Maximum executable batch size: smallest n whose average latency
    // is within plateauTolerance of the best average (Section 4.5:
    // "achieved when the average latency plateaus").
    Time bestAvg = kTimeNever;
    for (const SweepPoint &p : points)
        bestAvg = std::min(bestAvg, p.avgLatency);
    int maxBatch = points.back().batchSize;
    for (const SweepPoint &p : points) {
        if (static_cast<double>(p.avgLatency) <=
            static_cast<double>(bestAvg) * (1.0 + opts_.plateauTolerance)) {
            maxBatch = p.batchSize;
            break;
        }
    }

    // Fit K and B over the linear region (batch sizes up to the
    // plateau, where the oversaturation penalty is negligible).
    std::vector<double> xs, ys;
    for (const SweepPoint &p : points) {
        if (p.batchSize > maxBatch)
            break;
        xs.push_back(static_cast<double>(p.batchSize));
        ys.push_back(static_cast<double>(p.batchLatency));
    }
    if (xs.size() < 2) {
        xs.push_back(static_cast<double>(points[1].batchSize));
        ys.push_back(static_cast<double>(points[1].batchLatency));
    }
    const LinearFit fit = fitLine(xs, ys);

    PerfEntry entry;
    entry.k = static_cast<Time>(std::max(1.0, fit.slope));
    entry.b = static_cast<Time>(std::max(0.0, fit.intercept));
    entry.maxBatch = maxBatch;
    entry.r2 = fit.r2;
    entry.expertBytes = footprint_.expertBytes(arch);
    entry.activationBytesPerImage =
        footprint_.activationBytesPerImage(arch, proc);
    entry.loadLatency =
        proc == ProcKind::GPU
            ? transfer_.loadToGpu(entry.expertBytes, LoadSource::Ssd)
            : transfer_.loadToCpu(entry.expertBytes);
    return entry;
}

PerfMatrix
OfflineProfiler::profile(const std::vector<ArchId> &archs)
{
    PerfMatrix matrix;
    for (ArchId arch : archs) {
        for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU}) {
            if (truth_.has(arch, proc))
                matrix.set(arch, proc, profilePair(arch, proc));
        }
    }
    return matrix;
}

} // namespace coserve
