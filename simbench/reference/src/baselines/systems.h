/**
 * @file
 * Evaluation harness: the eight systems of the paper's evaluation
 * (Section 5.1, 5.3), runnable by name on any device/model/trace.
 *
 *  Baselines:
 *   - SambaCoE          FCFS + LRU, one GPU executor, CPU cache tier
 *                       on NUMA (direct SSD loads on UMA)
 *   - SambaFifo         Samba-CoE with FIFO eviction
 *   - SambaParallel     Samba-CoE with CoServe's executor count,
 *                       round-robin distribution
 *  Ablations (Figures 15/16):
 *   - CoServeNone       FIFO everything, even distribution
 *   - CoServeEM         + dependency-aware expert management
 *   - CoServeEMRA       + request arranging
 *  Full systems:
 *   - CoServeCasual     all techniques, casual memory split (75/25)
 *   - CoServeBest       all techniques + decay-window memory planning
 */

#ifndef COSERVE_BASELINES_SYSTEMS_H
#define COSERVE_BASELINES_SYSTEMS_H

#include <memory>
#include <string>

#include "core/coserve.h"
#include "metrics/run_result.h"
#include "workload/generator.h"

namespace coserve {

/** Systems of the paper's evaluation. */
enum class SystemKind
{
    SambaCoE,
    SambaFifo,
    SambaParallel,
    CoServeNone,
    CoServeEM,
    CoServeEMRA,
    CoServeCasual,
    CoServeBest,
};

/** Display name matching the paper's figure legends. */
const char *toString(SystemKind kind);

/** Per-run knob overrides (executor sweeps, memory-window sweeps...). */
struct SystemOverrides
{
    /** -1: preset default. */
    int gpuExecutors = -1;
    /** -1: preset default. */
    int cpuExecutors = -1;
    /** Force the GPU-resident expert count (skips the planner). */
    int gpuExpertCount = -1;
    /** -1: preset default, 0: off, 1: on. */
    int prefetch = -1;
    /** Optional label override for reports. */
    std::string label;
};

/** Reusable evaluation harness for one (device, CoE model) pair. */
class Harness
{
  public:
    /**
     * @param device evaluation device (Table 1 presets or custom).
     * @param model CoE model; must outlive the harness.
     */
    Harness(const DeviceSpec &device, const CoEModel &model);

    /** Run @p kind on @p trace and return the paper metrics. */
    RunResult run(SystemKind kind, const Trace &trace,
                  const SystemOverrides &ov = {});

    /**
     * Pre-scheduled replay (Figure 19): re-run @p kind with the
     * executor assignment recorded in @p recorded, bypassing the online
     * scheduler entirely.
     */
    RunResult runPreScheduled(SystemKind kind, const Trace &trace,
                              const RunResult &recorded,
                              const SystemOverrides &ov = {});

    /** Offline-phase products (profiler output etc.). */
    const CoServeContext &context() const { return ctx_; }

    /** Default GPU executor count for CoServe on this device. */
    int defaultGpuExecutors() const;

    /** Build the resolved config for @p kind (tests, inspection). */
    EngineConfig makeConfig(SystemKind kind, const Trace &trace,
                            const SystemOverrides &ov);

  private:
    std::unique_ptr<ServingEngine>
    makeEngine(SystemKind kind, const Trace &trace,
               const SystemOverrides &ov,
               std::unique_ptr<Scheduler> schedulerOverride);

    CoServeContext ctx_;
    const CoEModel &model_;
};

} // namespace coserve

#endif // COSERVE_BASELINES_SYSTEMS_H
