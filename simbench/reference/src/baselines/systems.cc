#include "baselines/systems.h"

#include <algorithm>

#include "baselines/evictions.h"
#include "baselines/schedulers.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/config.h"
#include "util/logging.h"

namespace coserve {

const char *
toString(SystemKind kind)
{
    switch (kind) {
      case SystemKind::SambaCoE:
        return "Samba-CoE";
      case SystemKind::SambaFifo:
        return "Samba-CoE FIFO";
      case SystemKind::SambaParallel:
        return "Samba-CoE Parallel";
      case SystemKind::CoServeNone:
        return "CoServe None";
      case SystemKind::CoServeEM:
        return "CoServe EM";
      case SystemKind::CoServeEMRA:
        return "CoServe EM+RA";
      case SystemKind::CoServeCasual:
        return "CoServe Casual";
      case SystemKind::CoServeBest:
        return "CoServe Best";
    }
    return "unknown";
}

namespace {

bool
isCoServePolicy(SystemKind kind)
{
    return kind == SystemKind::CoServeCasual ||
           kind == SystemKind::CoServeBest;
}

std::unique_ptr<EvictionPolicy>
makeEviction(SystemKind kind)
{
    switch (kind) {
      case SystemKind::SambaCoE:
      case SystemKind::SambaParallel:
        return std::make_unique<LruEviction>();
      case SystemKind::SambaFifo:
      case SystemKind::CoServeNone:
        return std::make_unique<FifoEviction>();
      default:
        return std::make_unique<TwoStageEviction>();
    }
}

std::unique_ptr<Scheduler>
makeScheduler(SystemKind kind, const PerfMatrix *perf)
{
    switch (kind) {
      case SystemKind::SambaCoE:
      case SystemKind::SambaFifo:
        return std::make_unique<FcfsSingleScheduler>();
      case SystemKind::SambaParallel:
      case SystemKind::CoServeNone:
      case SystemKind::CoServeEM:
        return std::make_unique<RoundRobinScheduler>(false);
      case SystemKind::CoServeEMRA:
        return std::make_unique<RoundRobinScheduler>(true);
      default:
        return std::make_unique<DependencyAwareScheduler>(perf);
    }
}

} // namespace

Harness::Harness(const DeviceSpec &device, const CoEModel &model)
    : ctx_(device, model), model_(model)
{
}

int
Harness::defaultGpuExecutors() const
{
    // Paper §5.2: three GPU executors on the NUMA device, two on UMA.
    return ctx_.device().arch == MemArch::NUMA ? 3 : 2;
}

EngineConfig
Harness::makeConfig(SystemKind kind, const Trace &trace,
                    const SystemOverrides &ov)
{
    const DeviceSpec &dev = ctx_.device();
    const bool numa = dev.arch == MemArch::NUMA;

    const int g = ov.gpuExecutors > 0 ? ov.gpuExecutors
                                      : defaultGpuExecutors();
    const int c = ov.cpuExecutors >= 0 ? ov.cpuExecutors : 1;

    EngineConfig cfg;
    cfg.device = dev;
    cfg.label = ov.label.empty() ? toString(kind) : ov.label;

    switch (kind) {
      case SystemKind::SambaCoE:
      case SystemKind::SambaFifo: {
          // One GPU executor; on NUMA, all CPU DRAM is the cache tier.
          cfg.executors =
              splitMemory(dev, 1, 0, numa ? 0.78 : 0.62, 0.8);
          cfg.cpuCacheTier = numa;
          cfg.cpuCacheBytes =
              numa ? dev.cpuMemoryBytes - dev.reservedBytes : 0;
          cfg.prefetch = false;
          cfg.preloadByUsage = false;
          break;
      }
      case SystemKind::SambaParallel: {
          // Same memory layout as Samba-CoE; the parallel executors
          // are GPU compute queues sharing the one GPU pool (matching
          // CoServe's GPU executor count). A round-robin FCFS CPU
          // executor would head-of-line block on expert loads, so the
          // CPU stays a cache tier as in Samba-CoE (see DESIGN.md).
          cfg.executors = splitMemory(dev, g, 0, numa ? 0.78 : 0.62, 0.8);
          cfg.cpuCacheTier = numa;
          cfg.cpuCacheBytes =
              numa ? dev.cpuMemoryBytes - dev.reservedBytes : 0;
          cfg.prefetch = false;
          cfg.preloadByUsage = false;
          break;
      }
      case SystemKind::CoServeNone: {
          cfg.executors = splitMemory(dev, g, c, 0.75, 0.80);
          cfg.prefetch = false;
          cfg.preloadByUsage = false;
          break;
      }
      case SystemKind::CoServeEM: {
          cfg.executors = splitMemory(dev, g, c, 0.75, 0.80);
          cfg.prefetch = false;
          cfg.preloadByUsage = true; // usage-aware management
          break;
      }
      case SystemKind::CoServeEMRA: {
          cfg.executors = splitMemory(dev, g, c, 0.75, 0.80);
          cfg.prefetch = true; // arranging enables switch overlap
          cfg.preloadByUsage = true;
          break;
      }
      case SystemKind::CoServeCasual: {
          // §5.2: 75% of GPU memory for experts, 25% for inference.
          cfg = coserveConfig(ctx_, splitMemory(dev, g, c, 0.75, 0.80),
                              cfg.label);
          break;
      }
      case SystemKind::CoServeBest: {
          std::vector<ExecutorConfig> layout;
          if (ov.gpuExpertCount > 0) {
              layout = coserveExecutorLayout(ctx_, g, c,
                                             ov.gpuExpertCount);
          } else {
              // Decay-window search on a sample prefix of the task.
              const Trace sample = trace.prefix(
                  std::max<std::size_t>(200, trace.size() / 8));
              layout =
                  planMemory(ctx_, g, c, sample).executors;
          }
          cfg = coserveConfig(ctx_, std::move(layout), cfg.label);
          break;
      }
    }

    if (!isCoServePolicy(kind))
        fillMaxBatchTable(cfg, ctx_.truth());
    if (ov.prefetch >= 0)
        cfg.prefetch = ov.prefetch != 0;
    return cfg;
}

std::unique_ptr<ServingEngine>
Harness::makeEngine(SystemKind kind, const Trace &trace,
                    const SystemOverrides &ov,
                    std::unique_ptr<Scheduler> schedulerOverride)
{
    EngineConfig cfg = makeConfig(kind, trace, ov);
    std::unique_ptr<Scheduler> sched =
        schedulerOverride ? std::move(schedulerOverride)
                          : makeScheduler(kind, &ctx_.perf());
    return std::make_unique<ServingEngine>(
        std::move(cfg), model_, ctx_.truth(), ctx_.footprint(),
        ctx_.usage(), std::move(sched), makeEviction(kind));
}

RunResult
Harness::run(SystemKind kind, const Trace &trace,
             const SystemOverrides &ov)
{
    return makeEngine(kind, trace, ov, nullptr)->run(trace);
}

RunResult
Harness::runPreScheduled(SystemKind kind, const Trace &trace,
                         const RunResult &recorded,
                         const SystemOverrides &ov)
{
    const bool grouped = isCoServePolicy(kind) ||
                         kind == SystemKind::CoServeEMRA;
    auto engine = makeEngine(
        kind, trace, ov,
        std::make_unique<ReplayScheduler>(recorded.assignments, grouped));
    return engine->run(trace);
}

} // namespace coserve
