#include "core/coserve.h"

#include <algorithm>

#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "util/logging.h"

namespace coserve {

namespace {

std::vector<ArchId>
archsOf(const CoEModel &model)
{
    std::vector<ArchId> archs;
    for (const Expert &e : model.experts()) {
        if (std::find(archs.begin(), archs.end(), e.arch) == archs.end())
            archs.push_back(e.arch);
    }
    return archs;
}

/** Average / largest resident expert bytes over the pool. */
std::pair<std::int64_t, std::int64_t>
expertSizes(const CoServeContext &ctx)
{
    std::int64_t total = 0, largest = 0;
    for (const Expert &e : ctx.model().experts()) {
        const std::int64_t b = ctx.footprint().expertBytes(e.arch);
        total += b;
        largest = std::max(largest, b);
    }
    const auto n =
        static_cast<std::int64_t>(ctx.model().numExperts());
    return {total / n, largest};
}

std::int64_t
maxGpuActivation(const CoServeContext &ctx)
{
    std::int64_t m = 0;
    for (ArchId a : archsOf(ctx.model())) {
        m = std::max(m, ctx.footprint().activationBytesPerImage(
                            a, ProcKind::GPU));
    }
    return m;
}

} // namespace

CoServeContext::CoServeContext(const DeviceSpec &device,
                               const CoEModel &model,
                               ProfilerOptions profilerOpts)
    : CoServeContext(device, model, LatencyModel::calibrated(device),
                     profilerOpts)
{}

CoServeContext::CoServeContext(const DeviceSpec &device,
                               const CoEModel &model, LatencyModel truth,
                               ProfilerOptions profilerOpts)
    : device_(device), model_(&model), truth_(std::move(truth)),
      footprint_(FootprintModel::calibrated(device)),
      usage_(UsageProfile::exact(model))
{
    OfflineProfiler profiler(device_, truth_, footprint_, profilerOpts);
    perf_ = profiler.profile(archsOf(model));
}

std::vector<ExecutorConfig>
coserveExecutorLayout(const CoServeContext &ctx, int gpuExecutors,
                      int cpuExecutors, int gpuExpertCount)
{
    COSERVE_CHECK(gpuExecutors >= 1, "need at least one GPU executor");
    COSERVE_CHECK(cpuExecutors >= 0, "negative CPU executor count");
    const auto [avgBytes, largest] = expertSizes(ctx);
    const DeviceSpec &dev = ctx.device();

    // CPU executors: limited compute => size the batch workspace for
    // the profiled maximum batch, give the remainder to experts (§4.4).
    std::int64_t cpuBatch = 0;
    if (cpuExecutors > 0) {
        std::int64_t act = 0;
        int maxBatch = 1;
        for (ArchId a : archsOf(ctx.model())) {
            if (!ctx.perf().has(a, ProcKind::CPU))
                continue;
            const PerfEntry &pe = ctx.perf().at(a, ProcKind::CPU);
            act = std::max(act, pe.activationBytesPerImage);
            maxBatch = std::max(maxBatch, pe.maxBatch);
        }
        cpuBatch = act * maxBatch;
    }

    std::int64_t gpuBudget, cpuBudget;
    if (dev.arch == MemArch::NUMA) {
        gpuBudget = dev.gpuMemoryBytes - dev.reservedBytes;
        cpuBudget =
            cpuExecutors > 0 ? dev.cpuMemoryBytes - dev.reservedBytes : 0;
    } else {
        const std::int64_t unified =
            dev.gpuMemoryBytes - dev.reservedBytes;
        // Unified memory: carve a CPU-executor share, rest to GPU.
        cpuBudget = cpuExecutors > 0
                        ? static_cast<std::int64_t>(0.35 * unified)
                        : 0;
        gpuBudget = unified - cpuBudget;
    }

    const std::int64_t expertTotal = avgBytes * gpuExpertCount;
    COSERVE_CHECK(expertTotal < gpuBudget,
                  "expert budget exceeds GPU memory");

    std::vector<ExecutorConfig> out;
    for (int i = 0; i < gpuExecutors; ++i) {
        ExecutorConfig e;
        e.kind = ProcKind::GPU;
        e.poolBytes = expertTotal / gpuExecutors;
        e.batchMemBytes = (gpuBudget - expertTotal) / gpuExecutors;
        COSERVE_CHECK(e.poolBytes >= 2 * largest,
                      "GPU pool too small for two experts; raise the "
                      "expert count");
        out.push_back(e);
    }
    for (int i = 0; i < cpuExecutors; ++i) {
        ExecutorConfig e;
        e.kind = ProcKind::CPU;
        const std::int64_t share = cpuBudget / cpuExecutors;
        e.batchMemBytes = std::min(cpuBatch, share / 4);
        e.poolBytes = share - e.batchMemBytes;
        COSERVE_CHECK(e.poolBytes >= 2 * largest,
                      "CPU pool too small for two experts");
        out.push_back(e);
    }
    return out;
}

std::pair<int, int>
gpuExpertCountBounds(const CoServeContext &ctx, int gpuExecutors,
                     int cpuExecutors)
{
    const auto [avgBytes, largest] = expertSizes(ctx);
    const DeviceSpec &dev = ctx.device();
    std::int64_t gpuBudget;
    if (dev.arch == MemArch::NUMA) {
        gpuBudget = dev.gpuMemoryBytes - dev.reservedBytes;
    } else {
        const std::int64_t unified =
            dev.gpuMemoryBytes - dev.reservedBytes;
        gpuBudget = unified - (cpuExecutors > 0
                                   ? static_cast<std::int64_t>(
                                         0.35 * unified)
                                   : 0);
    }
    // Every GPU pool must hold >= 2 of the largest expert.
    const int minCount = static_cast<int>(
        (2 * largest * gpuExecutors + avgBytes - 1) / avgBytes);
    // Leave each GPU executor workspace for at least 2 batched images,
    // and never plan for more experts than the model has.
    const std::int64_t minBatchMem = 2 * maxGpuActivation(ctx);
    const int maxCount = std::min(
        static_cast<int>((gpuBudget - minBatchMem * gpuExecutors) /
                         avgBytes),
        static_cast<int>(ctx.model().numExperts()));
    COSERVE_CHECK(maxCount >= minCount,
                  "device cannot host a CoServe layout with ",
                  gpuExecutors, " GPU executors");
    return {minCount, maxCount};
}

MemoryPlan
planMemory(const CoServeContext &ctx, int gpuExecutors, int cpuExecutors,
           const Trace &sample, PlannerOptions opts)
{
    const auto [minCount, maxCount] =
        gpuExpertCountBounds(ctx, gpuExecutors, cpuExecutors);

    MemoryPlanner planner(opts);
    const auto oracle = [&](int expertCount) {
        EngineConfig cfg = coserveConfig(
            ctx,
            coserveExecutorLayout(ctx, gpuExecutors, cpuExecutors,
                                  expertCount),
            "planner-probe");
        auto engine = makeCoServeEngine(ctx, std::move(cfg));
        return engine->run(sample).throughput;
    };

    MemoryPlan plan;
    plan.search = planner.plan(minCount, maxCount, oracle);
    plan.gpuExpertCount = plan.search.selectedCount;
    plan.executors = coserveExecutorLayout(ctx, gpuExecutors,
                                           cpuExecutors,
                                           plan.gpuExpertCount);
    return plan;
}

EngineConfig
coserveConfig(const CoServeContext &ctx,
              std::vector<ExecutorConfig> executors, std::string label)
{
    EngineConfig cfg;
    cfg.label = std::move(label);
    cfg.device = ctx.device();
    cfg.executors = std::move(executors);
    cfg.cpuCacheTier = false;
    cfg.prefetch = true;
    cfg.preloadByUsage = true;
    cfg.batching = true;
    for (ArchId a : archsOf(ctx.model())) {
        for (ProcKind p : {ProcKind::GPU, ProcKind::CPU}) {
            if (ctx.perf().has(a, p))
                cfg.maxBatch[{a, p}] = ctx.perf().at(a, p).maxBatch;
        }
    }
    return cfg;
}

std::unique_ptr<ServingEngine>
makeCoServeEngine(const CoServeContext &ctx, EngineConfig cfg)
{
    return std::make_unique<ServingEngine>(
        std::move(cfg), ctx.model(), ctx.truth(), ctx.footprint(),
        ctx.usage(),
        std::make_unique<DependencyAwareScheduler>(&ctx.perf()),
        std::make_unique<TwoStageEviction>());
}

} // namespace coserve
