/**
 * @file
 * Serving engine configuration.
 *
 * An EngineConfig is the fully-resolved description of one serving
 * system instance: the device, the executor layout (how many GPU/CPU
 * executors, how much pool vs. batch-workspace memory each owns), the
 * cache-tier setting and the batching limits. System presets (Samba-CoE
 * baselines in src/baselines, CoServe in src/core) produce EngineConfigs.
 */

#ifndef COSERVE_RUNTIME_CONFIG_H
#define COSERVE_RUNTIME_CONFIG_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/device.h"
#include "model/footprint_model.h"
#include "model/latency_model.h"
#include "preempt/preempt.h"

namespace coserve {

class TierBelow; // runtime/memory_tier.h

namespace obs {
class ReplicaTracer; // obs/trace.h
} // namespace obs

/** Memory layout of one inference executor. */
struct ExecutorConfig
{
    ProcKind kind = ProcKind::GPU;
    /** Bytes reserved for resident experts. */
    std::int64_t poolBytes = 0;
    /** Bytes reserved for batch intermediate results. */
    std::int64_t batchMemBytes = 0;
};

/** Fully-resolved serving system description. */
struct EngineConfig
{
    std::string label = "unnamed";
    DeviceSpec device;
    std::vector<ExecutorConfig> executors;

    /** Use CPU DRAM as a cache tier for GPU loads (Samba-CoE, NUMA). */
    bool cpuCacheTier = false;
    /** Capacity of the cache tier. */
    std::int64_t cpuCacheBytes = 0;

    /**
     * External CPU DRAM tier to use instead of the engine's private
     * cache tier (a cluster-owned SharedCpuTier; not owned, must
     * outlive the engine). Overrides cpuCacheTier / cpuCacheBytes.
     */
    TierBelow *externalCpuTier = nullptr;

    /**
     * Per-replica span-trace buffer (obs/trace.h; not owned). Null
     * unless the run has telemetry enabled — the null-sink fast path
     * keeps disabled runs byte-identical.
     */
    obs::ReplicaTracer *tracer = nullptr;

    /**
     * Per-class preemption with costed checkpoint/restore
     * (preempt/preempt.h): when enabled, an arrival whose deadline is
     * at risk may pause a running lower-class batch at its next step
     * boundary. Off by default — legacy runs are byte-identical. The
     * migration knobs are cluster-level and ignored by a lone engine.
     */
    PreemptionConfig preemption;

    /** Overlap the next expert's load with the running batch (§4.2). */
    bool prefetch = true;
    /** Preload pools in descending usage order (§4.1) vs. shuffled. */
    bool preloadByUsage = true;
    /** Process same-expert head runs as batches (vs. one by one). */
    bool batching = true;

    /**
     * Profiled maximum executable batch size per (arch, processor)
     * (§4.5). Filled by presets from saturationMaxBatch() or by the
     * offline profiler.
     */
    std::map<std::pair<ArchId, ProcKind>, int> maxBatch;
};

/**
 * Maximum batch size implied by the latency model: the batch size with
 * the lowest average per-image latency (the plateau of Figure 5),
 * scanned up to @p limit.
 */
int saturationMaxBatch(const LatencyModel &truth, ArchId arch,
                       ProcKind proc, int limit = 64);

/** Fill @p cfg.maxBatch for all built-in architectures from @p truth. */
void fillMaxBatchTable(EngineConfig &cfg, const LatencyModel &truth);

/**
 * Split device memory into per-executor pool / batch workspace using a
 * fixed expert-memory fraction (the "casual" allocation of §5.2).
 *
 * @param device target device.
 * @param gpuExecutors number of GPU executors (>= 0).
 * @param cpuExecutors number of CPU executors (>= 0).
 * @param gpuExpertFraction fraction of per-executor GPU memory
 *        dedicated to resident experts (e.g. 0.75).
 * @param cpuExpertFraction same for CPU executors.
 */
std::vector<ExecutorConfig>
splitMemory(const DeviceSpec &device, int gpuExecutors, int cpuExecutors,
            double gpuExpertFraction, double cpuExpertFraction);

} // namespace coserve

#endif // COSERVE_RUNTIME_CONFIG_H
