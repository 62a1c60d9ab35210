#include "runtime/config.h"

#include <algorithm>

#include "util/logging.h"

namespace coserve {

int
EngineConfig::countExecutors(ProcKind kind) const
{
    int n = 0;
    for (const ExecutorConfig &e : executors)
        n += e.kind == kind ? 1 : 0;
    return n;
}

int
saturationMaxBatch(const LatencyModel &truth, ArchId arch, ProcKind proc,
                   int limit)
{
    COSERVE_CHECK(limit >= 1, "limit must be >= 1");
    int best = 1;
    Time bestAvg = truth.avgLatency(arch, proc, 1);
    for (int n = 2; n <= limit; ++n) {
        const Time avg = truth.avgLatency(arch, proc, n);
        if (avg < bestAvg) {
            bestAvg = avg;
            best = n;
        }
    }
    return best;
}

void
fillMaxBatchTable(EngineConfig &cfg, const LatencyModel &truth)
{
    static constexpr ArchId kArchs[] = {ArchId::ResNet101, ArchId::YoloV5m,
                                        ArchId::YoloV5l};
    static constexpr ProcKind kProcs[] = {ProcKind::GPU, ProcKind::CPU};
    for (ArchId a : kArchs) {
        for (ProcKind p : kProcs) {
            if (truth.has(a, p))
                cfg.maxBatch[{a, p}] = saturationMaxBatch(truth, a, p);
        }
    }
}

std::vector<ExecutorConfig>
splitMemory(const DeviceSpec &device, int gpuExecutors, int cpuExecutors,
            double gpuExpertFraction, double cpuExpertFraction)
{
    COSERVE_CHECK(gpuExecutors >= 0 && cpuExecutors >= 0,
                  "negative executor count");
    COSERVE_CHECK(gpuExecutors + cpuExecutors > 0, "no executors");
    COSERVE_CHECK(gpuExpertFraction > 0 && gpuExpertFraction < 1 &&
                      cpuExpertFraction > 0 && cpuExpertFraction < 1,
                  "expert fractions must be in (0, 1)");

    std::vector<ExecutorConfig> out;

    if (device.arch == MemArch::NUMA) {
        const std::int64_t gpuAvail =
            device.gpuMemoryBytes - device.reservedBytes;
        const std::int64_t cpuAvail =
            device.cpuMemoryBytes - device.reservedBytes;
        for (int i = 0; i < gpuExecutors; ++i) {
            const std::int64_t share = gpuAvail / gpuExecutors;
            ExecutorConfig e;
            e.kind = ProcKind::GPU;
            e.poolBytes = static_cast<std::int64_t>(
                static_cast<double>(share) * gpuExpertFraction);
            e.batchMemBytes = share - e.poolBytes;
            out.push_back(e);
        }
        for (int i = 0; i < cpuExecutors; ++i) {
            const std::int64_t share = cpuAvail / std::max(1, cpuExecutors);
            ExecutorConfig e;
            e.kind = ProcKind::CPU;
            e.poolBytes = static_cast<std::int64_t>(
                static_cast<double>(share) * cpuExpertFraction);
            e.batchMemBytes = share - e.poolBytes;
            out.push_back(e);
        }
    } else {
        // UMA: one unified pool shared by all executors.
        const int total = gpuExecutors + cpuExecutors;
        const std::int64_t avail =
            device.gpuMemoryBytes - device.reservedBytes;
        const std::int64_t share = avail / total;
        for (int i = 0; i < total; ++i) {
            const bool gpu = i < gpuExecutors;
            const double frac =
                gpu ? gpuExpertFraction : cpuExpertFraction;
            ExecutorConfig e;
            e.kind = gpu ? ProcKind::GPU : ProcKind::CPU;
            e.poolBytes = static_cast<std::int64_t>(
                static_cast<double>(share) * frac);
            e.batchMemBytes = share - e.poolBytes;
            out.push_back(e);
        }
    }
    return out;
}

} // namespace coserve
