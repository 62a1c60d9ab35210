/**
 * @file
 * Unit tests for the dependency-aware scheduler's latency prediction
 * (paper Section 4.2) and the replay scheduler.
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/schedulers.h"
#include "coe/board_builder.h"
#include "core/coserve.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/engine.h"
#include "workload/generator.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          truth_(LatencyModel::calibrated(device_)),
          footprint_(FootprintModel::calibrated(device_)),
          usage_(UsageProfile::exact(model_))
    {
    }

    EngineConfig
    config(int gpuExecs, std::int64_t poolMB) const
    {
        EngineConfig cfg;
        cfg.label = "sched-test";
        cfg.device = device_;
        for (int i = 0; i < gpuExecs; ++i) {
            ExecutorConfig e;
            e.kind = ProcKind::GPU;
            e.poolBytes = poolMB * kMB / gpuExecs;
            e.batchMemBytes = 800 * kMB / gpuExecs;
            cfg.executors.push_back(e);
        }
        fillMaxBatchTable(cfg, truth_);
        return cfg;
    }

    Request
    requestFor(ComponentId c) const
    {
        Request r;
        r.id = 0;
        r.imageId = 0;
        r.component = c;
        r.expert = model_.component(c).classifier;
        r.stage = Stage::Classify;
        return r;
    }

    DeviceSpec device_;
    CoEModel model_;
    LatencyModel truth_;
    FootprintModel footprint_;
    UsageProfile usage_;
};

TEST_F(SchedulerTest, AdditionalLatencyForResidentExpert)
{
    // Big pool: after one run everything is resident and queues are
    // empty; additional latency = K + B exactly (new group, no switch).
    ServingEngine engine(config(1, 4000), model_, truth_, footprint_,
                         usage_,
                         std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    TaskSpec task;
    task.numImages = 20;
    engine.run(generateTrace(model_, task));

    DependencyAwareScheduler sched;
    const Request req = requestFor(0);
    const LatencyParams &p =
        truth_.params(model_.expert(req.expert).arch, ProcKind::GPU);
    EXPECT_EQ(sched.additionalLatency(engine, 0, req),
              p.perImage + p.fixed);
}

TEST_F(SchedulerTest, AdditionalLatencyIncludesSwitch)
{
    // Tiny pool: most experts are absent, so the prediction includes
    // the load latency.
    ServingEngine engine(config(1, 800), model_, truth_, footprint_,
                         usage_,
                         std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    TaskSpec task;
    task.numImages = 20;
    engine.run(generateTrace(model_, task));

    DependencyAwareScheduler sched;
    // Find one resident and one absent classifier.
    ExpertId resident = kNoExpert, absent = kNoExpert;
    for (const ComponentType &c : model_.components()) {
        if (engine.executorAt(0).pool().contains(c.classifier))
            resident = c.classifier;
        else
            absent = c.classifier;
    }
    ASSERT_NE(resident, kNoExpert);
    ASSERT_NE(absent, kNoExpert);

    Request r1 = requestFor(0);
    r1.expert = resident;
    Request r2 = requestFor(0);
    r2.expert = absent;
    const Time t1 = sched.additionalLatency(engine, 0, r1);
    const Time t2 = sched.additionalLatency(engine, 0, r2);
    EXPECT_EQ(t2 - t1, engine.predictLoadTime(0, absent));
    EXPECT_GT(t2, t1);
}

TEST_F(SchedulerTest, PerfMatrixOverridesTruth)
{
    ServingEngine engine(config(1, 4000), model_, truth_, footprint_,
                         usage_,
                         std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    TaskSpec task;
    task.numImages = 10;
    engine.run(generateTrace(model_, task));

    PerfMatrix perf;
    PerfEntry entry;
    entry.k = milliseconds(100);
    entry.b = milliseconds(7);
    entry.maxBatch = 4;
    perf.set(ArchId::ResNet101, ProcKind::GPU, entry);
    DependencyAwareScheduler sched(&perf);
    const Request req = requestFor(0);
    EXPECT_EQ(sched.additionalLatency(engine, 0, req),
              milliseconds(107));
}

TEST_F(SchedulerTest, OneSchedulerPricesEachEngineFromItsModel)
{
    // One scheduler, two engines whose truth models differ: every
    // estimate must come from the engine at hand, back and forth.
    LatencyModel slower;
    for (ArchId arch : {ArchId::ResNet101, ArchId::YoloV5m,
                        ArchId::YoloV5l}) {
        LatencyParams p = truth_.params(arch, ProcKind::GPU);
        p.perImage *= 3;
        p.fixed += milliseconds(5);
        slower.setParams(arch, ProcKind::GPU, p);
    }
    ServingEngine fast(config(1, 800), model_, truth_, footprint_, usage_,
                       std::make_unique<DependencyAwareScheduler>(),
                       std::make_unique<TwoStageEviction>());
    ServingEngine slow(config(1, 800), model_, slower, footprint_, usage_,
                       std::make_unique<DependencyAwareScheduler>(),
                       std::make_unique<TwoStageEviction>());

    DependencyAwareScheduler sched;
    const Request req = requestFor(0);
    const ArchId arch = model_.expert(req.expert).arch;
    const auto want = [&](const ServingEngine &engine,
                          const LatencyModel &truth) {
        const LatencyParams &p = truth.params(arch, ProcKind::GPU);
        return p.perImage + p.fixed + engine.predictLoadTime(0, req.expert);
    };
    const Time wantFast = want(fast, truth_);
    const Time wantSlow = want(slow, slower);
    ASSERT_NE(wantFast, wantSlow);
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(sched.additionalLatency(fast, 0, req), wantFast);
        EXPECT_EQ(sched.additionalLatency(slow, 0, req), wantSlow);
    }

    // dispatch() enqueues with the same estimate: nothing is resident
    // in a fresh engine, so the request stays queued with it.
    sched.dispatch(slow, req);
    sched.dispatch(fast, req);
    EXPECT_EQ(slow.executorAt(0).queue().pendingWork(), wantSlow);
    EXPECT_EQ(fast.executorAt(0).queue().pendingWork(), wantFast);
}

TEST_F(SchedulerTest, UnpricedPairDiesWithModelMessage)
{
    // The truth model covers ResNet101 on the GPU only: pricing any
    // other architecture dies with the latency model's own message.
    LatencyModel partial;
    partial.setParams(ArchId::ResNet101, ProcKind::GPU,
                      truth_.params(ArchId::ResNet101, ProcKind::GPU));
    ServingEngine engine(config(1, 800), model_, partial, footprint_,
                         usage_,
                         std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    Request req = requestFor(0);
    for (const Expert &e : model_.experts()) {
        if (e.arch != ArchId::ResNet101)
            req.expert = e.id;
    }
    ASSERT_NE(model_.expert(req.expert).arch, ArchId::ResNet101);

    DependencyAwareScheduler sched;
    EXPECT_DEATH(sched.additionalLatency(engine, 0, req),
                 "no latency params for arch");
    EXPECT_DEATH(sched.dispatch(engine, req), "no latency params for arch");
}

/**
 * Scheduler wrapper that recomputes every dispatch by brute force —
 * execEstimate() + predictLoadTime() for every executor, the makespan
 * pick with ties to the smaller add, then the lower index — and checks
 * that the wrapped dependency-aware scheduler made the same choice.
 */
class BruteForceCheck : public Scheduler
{
  public:
    explicit BruteForceCheck(const PerfMatrix *perf)
        : perf_(perf), inner_(perf)
    {
    }

    const char *name() const override { return inner_.name(); }

    void
    dispatch(ServingEngine &engine, const Request &req) override
    {
        const std::size_t n = engine.numExecutors();
        const ArchId arch = engine.model().expert(req.expert).arch;
        std::vector<Time> finish(n), add(n);
        Time maxFinish = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Executor &exec = engine.executorAt(i);
            finish[i] = std::max(engine.now(), exec.busyUntil()) +
                        exec.queue().pendingWork();
            maxFinish = std::max(maxFinish, finish[i]);
            add[i] = DependencyAwareScheduler::execEstimate(
                         perf_, &engine.truth(), arch, exec.kind(),
                         exec.queue().containsExpert(req.expert)) +
                     engine.predictLoadTime(i, req.expert);
        }
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
            const Time total = std::max(maxFinish, finish[i] + add[i]);
            const Time bestTotal =
                std::max(maxFinish, finish[best] + add[best]);
            if (total == bestTotal)
                ++ties;
            if (total < bestTotal ||
                (total == bestTotal && add[i] < add[best]))
                best = i;
        }

        struct Snapshot
        {
            std::size_t size;
            Time pending;
            bool idle;
        };
        std::vector<Snapshot> before;
        for (std::size_t i = 0; i < n; ++i) {
            const Executor &exec = engine.executorAt(i);
            before.push_back({exec.queue().size(),
                              exec.queue().pendingWork(), exec.idle()});
        }
        inner_.dispatch(engine, req);
        ++dispatches;

        // Only the chosen executor may change. When its queue grew by
        // one, no batch started, so the request sits queued with its
        // add; a busy executor cannot start one.
        for (std::size_t i = 0; i < n; ++i) {
            const Executor &exec = engine.executorAt(i);
            if (i != best) {
                EXPECT_EQ(exec.queue().size(), before[i].size);
                EXPECT_EQ(exec.queue().pendingWork(), before[i].pending);
                EXPECT_EQ(exec.idle(), before[i].idle);
                continue;
            }
            if (!before[i].idle) {
                EXPECT_EQ(exec.queue().size(), before[i].size + 1);
            }
            if (exec.queue().size() == before[i].size + 1) {
                EXPECT_EQ(exec.queue().pendingWork(),
                          before[i].pending + add[best]);
                ++addsChecked;
            }
        }
        if (best != 0)
            ++notFirst;
        if (engine.executorAt(best).kind() == ProcKind::CPU)
            ++toCpu;
    }

    std::int64_t dispatches = 0, addsChecked = 0, ties = 0;
    std::int64_t notFirst = 0, toCpu = 0;

  private:
    const PerfMatrix *perf_;
    DependencyAwareScheduler inner_;
};

TEST(DependencyAwareDispatchTest, MatchesBruteForceOnBoardA)
{
    // Board A on the NUMA device, two GPU executors and one CPU
    // executor, fed a Task A2 trace that outpaces the engine, so the
    // queues deepen and every dispatch weighs busy executors.
    const DeviceSpec device = numaRtx3080Ti();
    const CoEModel model = buildBoard(boardA());
    const CoServeContext ctx(device, model);
    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 2, 1);
    EngineConfig cfg = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 2, 1, (minCount + maxCount) / 2),
        "brute-force");
    auto check = std::make_unique<BruteForceCheck>(&ctx.perf());
    BruteForceCheck &seen = *check;
    ServingEngine engine(std::move(cfg), model, ctx.truth(),
                         ctx.footprint(), ctx.usage(), std::move(check),
                         std::make_unique<TwoStageEviction>());
    TaskSpec task = taskA2();
    task.numImages = 1500;
    const RunResult result = engine.run(generateTrace(model, task));

    EXPECT_EQ(result.images, 1500);
    EXPECT_GT(seen.dispatches, 1500);
    EXPECT_GT(seen.addsChecked, seen.dispatches / 2);
    EXPECT_GT(seen.ties, 0);
    EXPECT_GT(seen.notFirst, 0);
    EXPECT_GT(seen.toCpu, 0);
}

TEST_F(SchedulerTest, ReplayRejectsUnknownRequests)
{
    ServingEngine engine(config(1, 4000), model_, truth_, footprint_,
                         usage_,
                         std::make_unique<ReplayScheduler>(
                             std::vector<int>{}, true),
                         std::make_unique<TwoStageEviction>());
    TaskSpec task;
    task.numImages = 5;
    const Trace t = generateTrace(model_, task);
    EXPECT_DEATH(engine.run(t), "recorded");
}

TEST_F(SchedulerTest, SchedulerNames)
{
    EXPECT_STREQ(DependencyAwareScheduler().name(), "dependency-aware");
    EXPECT_STREQ(FcfsSingleScheduler().name(), "fcfs");
    EXPECT_STREQ(RoundRobinScheduler(false).name(), "round-robin");
    EXPECT_STREQ(RoundRobinScheduler(true).name(),
                 "round-robin+arrange");
    EXPECT_STREQ(ReplayScheduler({}, false).name(), "replay");
}

} // namespace
} // namespace coserve
