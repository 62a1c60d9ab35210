/**
 * @file
 * Differential test of LiveCostModel (cluster/router.h), the one copy
 * of the live Section-4.2 replica estimate that cluster admission and
 * LeastLoaded routing price with. Its table-driven answer,
 * quote().finish + detectAdd(), must equal a direct reading of each
 * replica's perf matrix (the reference below) over live views that
 * cover every branch of the estimate; its quote row, the one pricing
 * an online arrival gets, must hold exactly those quotes for the
 * replicas that accept work and can serve the chain. A LeastLoaded
 * router that borrows the model routes as one that builds its own.
 */

#include <gtest/gtest.h>

#include <random>

#include "cluster/router.h"
#include "coe/board_builder.h"
#include "core/coserve.h"
#include "core/scheduler.h"
#include "workload/generator.h"

namespace coserve {
namespace {

/**
 * Reference: predicted completion of @p a on one replica, read from
 * its context on every call — the earliest-free executor plus the
 * Section-4.2 execution estimate, the switch when the classifier is
 * neither queued nor resident, and the detect child's execution when
 * the component chains one.
 */
Time
referenceCompletion(const ReplicaView &view, const ReplicaLoadView &live,
                    const CoEModel &model, const ImageArrival &a)
{
    const ComponentType &comp = model.component(a.component);
    const ExpertId expert = comp.classifier;
    const ArchId arch = model.expert(expert).arch;
    bool hasGpu = false;
    for (const ExecutorConfig &e : view.cfg->executors)
        hasGpu = hasGpu || e.kind == ProcKind::GPU;
    const ProcKind proc = hasGpu ? ProcKind::GPU : ProcKind::CPU;

    const bool joins = live.queued(expert);
    Time add = DependencyAwareScheduler::execEstimate(
        &view.ctx->perf(), &view.ctx->truth(), arch, proc, joins);
    if (!joins && !live.resident(expert) &&
        view.ctx->perf().has(arch, proc)) {
        const Time load = view.ctx->perf().at(arch, proc).loadLatency;
        add += proc == ProcKind::GPU
                   ? static_cast<Time>(static_cast<double>(load) *
                                       live.gpuPressure)
                   : load;
        add += std::max<Time>(0, live.storageFreeAt -
                                     std::max(live.now, a.time));
    }
    if (comp.detector != kNoExpert) {
        add += DependencyAwareScheduler::execEstimate(
            &view.ctx->perf(), &view.ctx->truth(),
            model.expert(comp.detector).arch, proc, false);
    }

    Time soonest = a.time;
    if (!live.executors.empty()) {
        soonest = kTimeNever;
        for (const ReplicaLoadView::ExecutorLoad &ex : live.executors) {
            soonest = std::min(soonest,
                               std::max(a.time, ex.busyUntil) +
                                   ex.pendingWork);
        }
    }
    return std::max(a.time, soonest) + add;
}

/** A truth covering only @p archs: contexts on it are partially profiled. */
LatencyModel
partialLatencyModel(const DeviceSpec &device,
                    std::initializer_list<ArchId> archs)
{
    const LatencyModel full = LatencyModel::calibrated(device);
    LatencyModel partial;
    for (ArchId arch : archs) {
        for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    return partial;
}

TEST(LiveCostModelTest, MatchesPerArrivalPerfMatrixReading)
{
    const DeviceSpec device = tinyTestDevice();
    const CoEModel model = buildBoard(tinyBoard());
    const CoServeContext ctx(device, model);
    // No YoloV5l entry: chain-incapable for YoloV5l-detector components.
    const CoServeContext partialCtx(
        device, model,
        partialLatencyModel(device, {ArchId::ResNet101, ArchId::YoloV5m}),
        {});

    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 1, 0);
    const EngineConfig gpu = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 0, (minCount + maxCount) / 2),
        "gpu");
    EngineConfig cpuOnly = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 1, minCount), "cpu-only");
    cpuOnly.executors.erase(cpuOnly.executors.begin());
    const EngineConfig mixed = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 1, minCount), "mixed");

    const std::vector<ReplicaView> views = {
        {&ctx, &gpu}, {&ctx, &cpuOnly}, {&partialCtx, &gpu}, {&ctx, &mixed}};
    const std::size_t n = views.size();
    const LiveCostModel costs(model, views);
    ASSERT_EQ(costs.replicas(), n);

    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (std::size_t i = 0; i < n; ++i) {
        engines.push_back(makeCoServeEngine(*views[i].ctx, *views[i].cfg));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(n));
    }

    TaskSpec task;
    task.name = "tiny-live-cost";
    task.numImages = 300;
    task.seed = 5;
    const Trace trace = generateTrace(model, task);

    // Branch coverage, each asserted non-zero at the end.
    int joined = 0, resident = 0, switched = 0;
    int storageAhead = 0, storageBehind = 0;
    int noExecutors = 0, gpuLess = 0, detectors = 0, incapable = 0;

    std::mt19937_64 rng(0xC05E);
    const auto jitter = [&rng](Time span) {
        return std::uniform_int_distribution<Time>(-span, span)(rng);
    };
    ReplicaLoadView live;
    // quoteRow's inputs: every replica's view, some of them gated off.
    std::mt19937_64 gate(0x5EED);
    std::vector<ReplicaLoadView> rowViews(n);
    std::vector<LiveCostModel::Quote> row;
    int rowPriced = 0, rowGated = 0;
    // LeastLoaded pricing with its own model and with this one picks
    // alike from the same views.
    const auto ownRouter =
        makeRouter(RoutingPolicy::LeastLoaded, model, views);
    const auto borrowingRouter =
        makeRouter(RoutingPolicy::LeastLoaded, model, views, &costs);
    int routed = 0;
    for (std::size_t idx = 0; idx < trace.size(); ++idx) {
        const ImageArrival &a = trace.arrivals[idx];
        for (const auto &engine : engines)
            engine->stepUntil(a.time);
        const ComponentType &comp = model.component(a.component);
        const ExpertId expert = comp.classifier;
        for (std::size_t i = 0; i < n; ++i) {
            if (!costs.caps().chainOk(i, a.component)) {
                incapable += 1;
                continue;
            }
            for (int probe = 0; probe < 6; ++probe) {
                engines[i]->fillLoadView(live);
                // Perturb what the view reports beyond queue/pool
                // state, which stays the engine's own.
                live.now += jitter(milliseconds(5));
                const Time start = std::max(live.now, a.time);
                live.storageFreeAt = start + jitter(milliseconds(40));
                live.gpuPressure =
                    std::uniform_real_distribution<double>(1.0,
                                                           2.6)(rng);
                if (probe == 1) {
                    live.executors.clear();
                } else if (probe >= 2) {
                    for (ReplicaLoadView::ExecutorLoad &ex :
                         live.executors) {
                        ex.busyUntil = a.time + jitter(milliseconds(30));
                        ex.pendingWork =
                            std::max<Time>(0, jitter(milliseconds(50)));
                    }
                }

                const LiveCostModel::Quote q = costs.quote(i, a, live);
                ASSERT_EQ(q.finish + costs.detectAdd(i, a.component),
                          referenceCompletion(views[i], live, model, a))
                    << "image " << idx << " replica " << i << " probe "
                    << probe;

                const bool joins = live.queued(expert);
                joined += joins;
                resident += !joins && live.resident(expert);
                switched += !joins && !live.resident(expert);
                storageAhead += live.storageFreeAt > start;
                storageBehind += live.storageFreeAt <= start;
                noExecutors += live.executors.empty();
                gpuLess += views[i].cfg == &cpuOnly;
                detectors += comp.detector != kNoExpert;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            engines[i]->fillLoadView(rowViews[i]);
            rowViews[i].acceptingWork = gate() % 4 != 0;
        }
        costs.quoteRow(a, rowViews, row);
        ASSERT_EQ(row.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            if (rowViews[i].acceptingWork &&
                costs.caps().chainOk(i, a.component)) {
                const LiveCostModel::Quote q =
                    costs.quote(i, a, rowViews[i]);
                EXPECT_EQ(row[i].finish, q.finish) << "image " << idx;
                EXPECT_EQ(row[i].add, q.add) << "image " << idx;
                rowPriced += 1;
            } else {
                EXPECT_EQ(row[i].finish, kTimeNever) << "image " << idx;
                EXPECT_EQ(row[i].add, kTimeNever) << "image " << idx;
                rowGated += rowViews[i].acceptingWork ? 0 : 1;
            }
        }
        bool anyOpen = false;
        for (std::size_t i = 0; i < n; ++i)
            anyOpen = anyOpen || row[i].finish != kTimeNever;
        if (anyOpen) {
            EXPECT_EQ(borrowingRouter->routeLive(a, rowViews),
                      ownRouter->routeLive(a, rowViews))
                << "image " << idx;
            routed += 1;
        }
        const std::size_t r =
            costs.caps().firstChainCapable(a.component, idx % n);
        engines[r]->admitArrival(a);
        engines[r]->stepUntil(a.time);
    }

    EXPECT_GT(joined, 0);
    EXPECT_GT(resident, 0);
    EXPECT_GT(switched, 0);
    EXPECT_GT(storageAhead, 0);
    EXPECT_GT(storageBehind, 0);
    EXPECT_GT(noExecutors, 0);
    EXPECT_GT(gpuLess, 0);
    EXPECT_GT(detectors, 0);
    EXPECT_GT(incapable, 0);
    EXPECT_GT(rowPriced, 0);
    EXPECT_GT(rowGated, 0);
    EXPECT_GT(routed, 0);
}

} // namespace
} // namespace coserve
