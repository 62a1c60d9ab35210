/**
 * @file
 * CoServe facade: the offline phase and engine assembly (paper §4.1).
 *
 * CoServeContext bundles everything the offline phase produces for one
 * (device, CoE model) pair: the simulated hardware truth, the profiled
 * performance matrix, and the exact usage profile. From a context one
 * can assemble:
 *  - a *casual* configuration (fixed memory fractions, §5.2), or
 *  - a *best* configuration, where the decay-window memory planner
 *    probes sample workloads to pick the number of resident GPU
 *    experts (§4.4).
 *
 * makeCoServeEngine() wires the dependency-aware scheduler and the
 * two-stage eviction policy into a runnable engine.
 */

#ifndef COSERVE_CORE_COSERVE_H
#define COSERVE_CORE_COSERVE_H

#include <memory>

#include "core/memory_planner.h"
#include "core/perf_matrix.h"
#include "core/profiler.h"
#include "runtime/engine.h"
#include "workload/trace.h"

namespace coserve {

/** Offline-phase products for one (device, model) pair. */
class CoServeContext
{
  public:
    /**
     * Run the offline phase: calibrate the simulated truth, profile the
     * device, compute exact usage probabilities.
     */
    CoServeContext(const DeviceSpec &device, const CoEModel &model,
                   ProfilerOptions profilerOpts = {});

    /**
     * Offline phase against an explicit hardware truth instead of the
     * calibrated table (custom hardware, tests). Pairs absent from
     * @p truth are not profiled, so perf().has() is false for them —
     * a replica built on such a context cannot serve those
     * architectures and capability-aware routers must avoid it.
     */
    CoServeContext(const DeviceSpec &device, const CoEModel &model,
                   LatencyModel truth, ProfilerOptions profilerOpts);

    const DeviceSpec &device() const { return device_; }
    const CoEModel &model() const { return *model_; }
    const LatencyModel &truth() const { return truth_; }
    const FootprintModel &footprint() const { return footprint_; }
    const UsageProfile &usage() const { return usage_; }
    const PerfMatrix &perf() const { return perf_; }

  private:
    DeviceSpec device_;
    const CoEModel *model_;
    LatencyModel truth_;
    FootprintModel footprint_;
    UsageProfile usage_;
    PerfMatrix perf_;
};

/** Result of planning CoServe Best's memory allocation. */
struct MemoryPlan
{
    PlannerResult search;
    /** Number of resident experts chosen for the GPU executors. */
    int gpuExpertCount = 0;
    std::vector<ExecutorConfig> executors;
};

/**
 * Executor memory layout when @p gpuExpertCount experts' worth of GPU
 * memory is dedicated to expert loading; CPU executors follow the
 * "limited computation performance" rule (batch workspace sized for the
 * profiled maximum batch, remainder to experts, §4.4).
 */
std::vector<ExecutorConfig>
coserveExecutorLayout(const CoServeContext &ctx, int gpuExecutors,
                      int cpuExecutors, int gpuExpertCount);

/** Admissible [min, max] GPU-resident expert counts for the layout. */
std::pair<int, int> gpuExpertCountBounds(const CoServeContext &ctx,
                                         int gpuExecutors,
                                         int cpuExecutors);

/**
 * Run the decay-window search (§4.4) for the given executor counts,
 * probing throughput on @p sample.
 */
MemoryPlan planMemory(const CoServeContext &ctx, int gpuExecutors,
                      int cpuExecutors, const Trace &sample,
                      PlannerOptions opts = {});

/**
 * Assemble a full CoServe EngineConfig from a layout: dependency-aware
 * flags on, profiled max-batch table installed.
 */
EngineConfig coserveConfig(const CoServeContext &ctx,
                           std::vector<ExecutorConfig> executors,
                           std::string label);

/** Build a runnable CoServe engine (dep-aware + two-stage). */
std::unique_ptr<ServingEngine>
makeCoServeEngine(const CoServeContext &ctx, EngineConfig cfg);

} // namespace coserve

#endif // COSERVE_CORE_COSERVE_H
