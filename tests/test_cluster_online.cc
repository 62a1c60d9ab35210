/**
 * @file
 * Tests for online cluster scheduling (RunMode::Online): static
 * routeTrace()/run() consistency, online-mode determinism across
 * repeat runs, work-stealing counter reconciliation,
 * the least-loaded router's round-up parallelism division, the
 * expert-affinity router's capability fallback on heterogeneous
 * clusters, load-view parity with the engine's pools and queues, and
 * pinned decision digests for the live-view routing and coordinator
 * admission paths, and crash loss when no capable replica survives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "core/coserve.h"
#include "metrics/cluster_result.h"
#include "replay/decision_log.h"
#include "workload/generator.h"

namespace coserve {
namespace {

/**
 * A hardware truth covering only @p archs of the calibrated table:
 * contexts built on it are partially profiled, so capability-aware
 * routing/stealing must keep the other architectures away.
 */
LatencyModel
partialLatencyModel(const DeviceSpec &device,
                    std::initializer_list<ArchId> archs,
                    std::initializer_list<ProcKind> procs = {
                        ProcKind::GPU, ProcKind::CPU})
{
    const LatencyModel full = LatencyModel::calibrated(device);
    LatencyModel partial;
    for (ArchId arch : archs) {
        for (ProcKind proc : procs)
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    return partial;
}

/** Tiny board + tiny device cluster fixture (cf. test_cluster.cc). */
class OnlineClusterFixture : public ::testing::Test
{
  protected:
    OnlineClusterFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-online";
        task.numImages = 400;
        task.seed = 11;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    ClusterConfig
    onlineConfig(int replicas, bool stealing) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, replicas, RoutingPolicy::LeastLoaded, "online");
        cc.workStealing.enabled = stealing;
        return cc;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// ------------------------------------------------ static-mode contract

TEST_F(OnlineClusterFixture, StaticRunMatchesRouteTraceAssignment)
{
    // Static mode routes with a fresh (deterministic) router both in
    // routeTrace() and inside run(): per-replica image counts must
    // equal the shard sizes the public assignment implies.
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine router(homogeneousCluster(ctx_, cfg_, 3, policy));
        const std::vector<std::size_t> assignment =
            router.routeTrace(trace_);
        std::vector<std::int64_t> expected(3, 0);
        for (std::size_t r : assignment)
            expected[r] += 1;

        ClusterEngine cluster(homogeneousCluster(ctx_, cfg_, 3, policy));
        const ClusterResult result = cluster.run(trace_, {});
        ASSERT_EQ(result.imagesPerReplica.size(), 3u);
        EXPECT_EQ(result.imagesPerReplica, expected)
            << "policy " << toString(policy);
        EXPECT_EQ(result.stolenRequests, 0);
    }
}

// -------------------------------------------------- online-mode basics

TEST_F(OnlineClusterFixture, OnlineModeServesEveryImage)
{
    ClusterEngine cluster(onlineConfig(4, /*stealing=*/false));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, 400);
    EXPECT_GT(r.makespan, 0);
    EXPECT_EQ(r.stolenRequests, 0);
    ASSERT_EQ(r.replicas.size(), 4u);
    std::int64_t total = 0;
    for (std::int64_t n : r.imagesPerReplica)
        total += n;
    EXPECT_EQ(total, 400);
    // The saturating trace must not collapse onto one replica.
    std::int64_t used = 0;
    for (std::int64_t n : r.imagesPerReplica)
        used += n > 0 ? 1 : 0;
    EXPECT_GT(used, 1);
}

TEST_F(OnlineClusterFixture, OnlineModeDeterministicAcrossRuns)
{
    // Online coordination is lockstep on the shared virtual clock: the
    // same config run twice must not change a single metric — stealing
    // and a cluster-shared CPU tier (whose access order the
    // coordinator serializes) included.
    for (bool stealing : {false, true}) {
        for (bool sharedTier : {false, true}) {
            ClusterConfig cc = onlineConfig(3, stealing);
            if (sharedTier) {
                cc.sharedCpu.enabled = true;
                cc.sharedCpu.bytes = 512ll * 1024 * 1024;
            }
            ClusterEngine a(cc);
            ClusterEngine b(std::move(cc));
            const ClusterResult ra =
                a.run(trace_, runWithMode(RunMode::Online));
            const ClusterResult rb =
                b.run(trace_, runWithMode(RunMode::Online));

            // Equal decision digests subsume every aggregate check
            // below — kept anyway as the diagnostic breakdown.
            EXPECT_EQ(ra.decisionDigest, rb.decisionDigest);
            EXPECT_EQ(ra.decisionCount, rb.decisionCount);
            EXPECT_EQ(ra.images, rb.images);
            EXPECT_EQ(ra.makespan, rb.makespan);
            EXPECT_EQ(ra.inferences, rb.inferences);
            EXPECT_EQ(ra.eventsExecuted, rb.eventsExecuted);
            EXPECT_EQ(ra.switches.total(), rb.switches.total());
            EXPECT_EQ(ra.switches.bytesLoaded, rb.switches.bytesLoaded);
            EXPECT_EQ(ra.imagesPerReplica, rb.imagesPerReplica);
            EXPECT_EQ(ra.stolenRequests, rb.stolenRequests);
            EXPECT_EQ(ra.stolenFromReplica, rb.stolenFromReplica);
            EXPECT_EQ(ra.stolenToReplica, rb.stolenToReplica);
            EXPECT_DOUBLE_EQ(ra.throughput, rb.throughput);
            ASSERT_EQ(ra.replicas.size(), rb.replicas.size());
            for (std::size_t i = 0; i < ra.replicas.size(); ++i) {
                EXPECT_EQ(ra.replicas[i].makespan,
                          rb.replicas[i].makespan);
                EXPECT_EQ(ra.replicas[i].eventsExecuted,
                          rb.replicas[i].eventsExecuted);
            }
        }
    }
}

// ----------------------------------------------------- work stealing

/** A slower clone of the tiny device (same memory, 4x slower procs). */
DeviceSpec
tinySlowDevice()
{
    DeviceSpec d = tinyTestDevice();
    d.name = "tiny-slow";
    d.gpu.computeScale = 0.25;
    d.cpu.computeScale = 0.25;
    d.ssdBps /= 4;
    return d;
}

TEST_F(OnlineClusterFixture, StealCountersReconcile)
{
    // Fast + slow replica pair: the least-loaded router still
    // backlogs the slow replica under a saturating trace, and the
    // fast one steals once idle. Aggressive knobs force steals on the
    // small test trace.
    CoServeContext slowCtx(tinySlowDevice(), model_);
    const auto [minCount, maxCount] = gpuExpertCountBounds(slowCtx, 1, 0);
    const EngineConfig slowCfg = coserveConfig(
        slowCtx,
        coserveExecutorLayout(slowCtx, 1, 0, (minCount + maxCount) / 2),
        "slow");

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&slowCtx, slowCfg}}, RoutingPolicy::LeastLoaded,
        "steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));

    EXPECT_EQ(r.images, 400);
    ASSERT_EQ(r.stolenFromReplica.size(), 2u);
    ASSERT_EQ(r.stolenToReplica.size(), 2u);
    std::int64_t from = 0, to = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        from += r.stolenFromReplica[i];
        to += r.stolenToReplica[i];
    }
    EXPECT_EQ(from, r.stolenRequests);
    EXPECT_EQ(to, r.stolenRequests);
    EXPECT_GT(r.stolenRequests, 0);
}

TEST_F(OnlineClusterFixture, StealingRespectsReplicaCapability)
{
    // Replica 1 was never profiled for ResNet101 (every classifier's
    // arch): routing keeps classify work away from it, so it idles
    // and steals. Pre-fix it stole classify requests too and the
    // dispatch aborted in the scheduler's latency estimate; now the
    // steal filter only hands it work it can serve, and the run must
    // complete.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::YoloV5m, ArchId::YoloV5l}),
        {});

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}}, RoutingPolicy::LeastLoaded,
        "partial-steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);
    ClusterEngine cluster(std::move(cc));

    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, 400);
    // Whatever it stole must have been servable — completing without
    // a COSERVE_CHECK abort is the regression assertion; the counters
    // must still reconcile.
    ASSERT_EQ(r.stolenToReplica.size(), 2u);
    EXPECT_EQ(r.stolenFromReplica[0] + r.stolenFromReplica[1],
              r.stolenRequests);
    EXPECT_EQ(r.stolenToReplica[0] + r.stolenToReplica[1],
              r.stolenRequests);
}

// --------------------------------------- least-loaded rounding bugfix

TEST(ReplicaAdditionalLatencyTest, RoundsParallelismDivisionUp)
{
    // Regression: integer Time division truncated sub-parallelism
    // estimates to zero, so every replica predicted zero added cost
    // and the finish/add tie-break degenerated.
    EXPECT_EQ(replicaAdditionalLatency(3, 0, 8), 1);
    EXPECT_EQ(replicaAdditionalLatency(1, 1, 64), 1);
    EXPECT_EQ(replicaAdditionalLatency(7, 5, 4), 3);
    EXPECT_EQ(replicaAdditionalLatency(8, 0, 4), 2);
    // Exact divisions and the degenerate parallelism are unchanged.
    EXPECT_EQ(replicaAdditionalLatency(8, 4, 4), 3);
    EXPECT_EQ(replicaAdditionalLatency(5, 0, 1), 5);
    EXPECT_EQ(replicaAdditionalLatency(0, 0, 4), 0);
    // Zero parallelism is clamped rather than dividing by zero.
    EXPECT_EQ(replicaAdditionalLatency(5, 0, 0), 5);
}

// ------------------------------------- affinity capability fallback

TEST_F(OnlineClusterFixture, AffinityRouterAvoidsIncapableReplica)
{
    // Replica 1's context was never profiled for ResNet101 — the arch
    // of every classifier — so perf().has() is false there and the
    // affinity hash must fall through to a capable replica instead of
    // pinning components onto a replica that cannot serve them.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::YoloV5m, ArchId::YoloV5l}),
        {});
    EXPECT_FALSE(
        partialCtx.perf().has(ArchId::ResNet101, ProcKind::GPU));

    // Every routing policy must honor the capability rule.
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(heterogeneousCluster(
            {{&ctx_, cfg_}, {&partialCtx, cfg_}, {&ctx_, cfg_}},
            policy, "partial"));
        const std::vector<std::size_t> assignment =
            cluster.routeTrace(trace_);
        ASSERT_EQ(assignment.size(), trace_.size());
        std::set<std::size_t> used;
        for (std::size_t r : assignment) {
            EXPECT_NE(r, 1u)
                << toString(policy)
                << " routed an arrival to the incapable replica";
            used.insert(r);
        }
        // The fallback must not collapse everything onto one replica.
        EXPECT_EQ(used.size(), 2u) << toString(policy);
    }
}

TEST_F(OnlineClusterFixture, CapabilityChecksEveryExecutorKind)
{
    // Asymmetric profiling: every arch known on GPU, none on CPU. A
    // replica that *also* runs a CPU executor estimates dispatch cost
    // on it, so it must count as incapable even though its GPU could
    // serve the request (pre-fix the primary-processor-only check let
    // arrivals through and the CPU-executor estimate aborted).
    CoServeContext asymCtx(
        device_, model_,
        partialLatencyModel(device_,
                            {ArchId::ResNet101, ArchId::YoloV5m,
                             ArchId::YoloV5l},
                            {ProcKind::GPU}),
        {});
    ASSERT_TRUE(asymCtx.perf().has(ArchId::ResNet101, ProcKind::GPU));
    ASSERT_FALSE(asymCtx.perf().has(ArchId::ResNet101, ProcKind::CPU));

    EngineConfig mixed = cfg_;
    ExecutorConfig cpu;
    cpu.kind = ProcKind::CPU;
    cpu.poolBytes = cfg_.executors.front().poolBytes;
    cpu.batchMemBytes = cfg_.executors.front().batchMemBytes;
    mixed.executors.push_back(cpu);

    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(heterogeneousCluster(
            {{&ctx_, cfg_}, {&asymCtx, mixed}}, policy, "asym"));
        for (std::size_t r : cluster.routeTrace(trace_)) {
            ASSERT_EQ(r, 0u)
                << toString(policy)
                << " routed to a replica with an unprofiled "
                   "executor kind";
        }
    }
}

TEST_F(OnlineClusterFixture, CapabilityCoversTheDetectionChain)
{
    // The inverse gap: a context profiled for ResNet101 (every
    // classifier) but for no detector arch. Chains stay
    // replica-local, so routing a component *with* a detector there
    // would abort when the detect child dispatches — chain
    // capability must keep those components away while detector-less
    // components may still land there.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::ResNet101}), {});

    ClusterEngine router(heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}},
        RoutingPolicy::ExpertAffinity, "chain"));
    const std::vector<std::size_t> assignment =
        router.routeTrace(trace_);
    bool sawDetectorless = false;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
        const ComponentType &comp =
            model_.component(trace_.arrivals[i].component);
        if (comp.detector != kNoExpert)
            EXPECT_NE(assignment[i], 1u)
                << "detector-bearing component on chain-incapable "
                   "replica";
        else if (assignment[i] == 1u)
            sawDetectorless = true;
    }
    EXPECT_TRUE(sawDetectorless)
        << "no detector-less component used the partial replica";

    // End to end (online + stealing): the steal filter applies the
    // same chain rule, so the run completes without an abort.
    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}},
        RoutingPolicy::LeastLoaded, "chain-steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, 400);
}

TEST_F(OnlineClusterFixture, AffinityHeteroNumaUmaClusterServes)
{
    // Mixed NUMA/UMA cluster with full capability: the affinity
    // router's capability scan must keep the original hash behavior
    // and the cluster must serve every image end to end.
    DeviceSpec uma = tinyTestDevice();
    uma.name = "tiny-uma";
    uma.arch = MemArch::UMA;
    uma.cpuMemoryBytes = 0;
    uma.pciBps = 0;
    CoServeContext umaCtx(uma, model_);
    const auto [minCount, maxCount] = gpuExpertCountBounds(umaCtx, 1, 0);
    const EngineConfig umaCfg = coserveConfig(
        umaCtx,
        coserveExecutorLayout(umaCtx, 1, 0, (minCount + maxCount) / 2),
        "uma");

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&umaCtx, umaCfg}},
        RoutingPolicy::ExpertAffinity, "numa-uma");
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace_, {});
    EXPECT_EQ(r.images, 400);
    std::int64_t total = 0;
    for (std::int64_t n : r.imagesPerReplica)
        total += n;
    EXPECT_EQ(total, 400);
}

// ------------------------------------------------ live load-view parity

TEST_F(OnlineClusterFixture, LoadViewMatchesPoolsAndQueues)
{
    // Drive three replicas through the online API the coordinator
    // uses and, at every arrival, compare each view's resident() and
    // queued() with the engine's pools and queues read directly:
    // resident means some pool entry for the expert finished loading,
    // queued means some executor queue holds a request for it.
    constexpr std::size_t kReplicas = 3;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (std::size_t i = 0; i < kReplicas; ++i) {
        engines.push_back(makeCoServeEngine(ctx_, cfg_));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(kReplicas));
    }
    std::vector<ReplicaLoadView> live(kReplicas);
    int midLoad = 0;
    const auto checkView = [&](std::size_t i) {
        const ServingEngine &engine = *engines[i];
        engine.fillLoadView(live[i]);
        for (std::size_t x = 0; x < model_.numExperts(); ++x) {
            const auto e = static_cast<ExpertId>(x);
            bool resident = false, loading = false, queued = false;
            for (std::size_t k = 0; k < engine.numExecutors(); ++k) {
                const Executor &exec = engine.executorAt(k);
                if (const TierEntry *entry = exec.pool().find(e)) {
                    resident = resident || !entry->loading;
                    loading = loading || entry->loading;
                }
                queued = queued || exec.queue().countForExpert(e) > 0;
            }
            ASSERT_EQ(live[i].resident(e), resident)
                << "replica " << i << " expert " << e;
            ASSERT_EQ(live[i].queued(e), queued)
                << "replica " << i << " expert " << e;
            if (loading && !resident)
                midLoad += 1;
        }
    };

    // Steal one expert's last queued request off the deepest replica:
    // after the refill its view must stop reporting that demand.
    int lastSteals = 0;
    std::vector<Request> loot;
    const auto stealLast = [&]() {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < kReplicas; ++i) {
            if (live[i].queueDepth > live[victim].queueDepth)
                victim = i;
        }
        ServingEngine &engine = *engines[victim];
        for (std::size_t x = 0; x < model_.numExperts(); ++x) {
            const auto e = static_cast<ExpertId>(x);
            int count = 0;
            for (std::size_t k = 0; k < engine.numExecutors(); ++k)
                count += engine.executorAt(k).queue().countForExpert(e);
            loot.clear();
            // A queue's head is never stolen, so a lone head request
            // yields nothing and the next expert is tried.
            if (count != 1 ||
                engine.stealRequests(1, loot, [e](const Request &req) {
                    return req.expert == e;
                }) != 1)
                continue;
            checkView(victim);
            EXPECT_FALSE(live[victim].queued(e));
            lastSteals += 1;
            const std::size_t thief = (victim + 1) % kReplicas;
            engines[thief]->injectRequest(loot.front());
            checkView(thief);
            return;
        }
    };

    for (std::size_t idx = 0; idx < trace_.size(); ++idx) {
        const ImageArrival &a = trace_.arrivals[idx];
        for (std::size_t i = 0; i < kReplicas; ++i) {
            engines[i]->stepUntil(a.time);
            checkView(i);
        }
        if (idx % 20 == 19)
            stealLast();
        const std::size_t r = idx % kReplicas;
        engines[r]->admitArrival(a);
        engines[r]->stepUntil(a.time);
        checkView(r);
    }
    for (;;) {
        Time t = kTimeNever;
        for (const auto &engine : engines)
            t = std::min(t, engine->nextEventTime());
        if (t == kTimeNever)
            break;
        for (const auto &engine : engines)
            engine->stepUntil(t);
    }
    std::int64_t images = 0;
    for (const auto &engine : engines)
        images += engine->finishOnline().images;
    EXPECT_EQ(images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_GT(midLoad, 0) << "no view saw an expert mid-load";
    EXPECT_GT(lastSteals, 0) << "no steal removed an expert's last request";
}

TEST_F(OnlineClusterFixture, DirtyTrackedViewsMatchFreshFills)
{
    // The layer probe's loop: step every replica to the arrival,
    // refill only the views of replicas whose step ran events, route
    // on the cached views, admit, and step the target to the arrival.
    // An admission is an executed event that the next step reports,
    // so every cached view must hold what a fresh fill would. Its own
    // clock may trail (nothing ran since), which quotes allow for: a
    // channel's busyUntil() reads max(now, busy until).
    constexpr std::size_t kReplicas = 3;
    const ClusterConfig cc = onlineConfig(kReplicas, false);
    std::vector<ReplicaView> views;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (std::size_t i = 0; i < kReplicas; ++i) {
        views.push_back({cc.replicas[i].ctx, &cc.replicas[i].cfg});
        engines.push_back(makeCoServeEngine(*cc.replicas[i].ctx,
                                            cc.replicas[i].cfg));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(kReplicas));
    }
    const LiveCostModel costs(model_, views);
    const auto router = makeRouter(RoutingPolicy::LeastLoaded, model_, views);
    std::vector<ReplicaLoadView> live(kReplicas), fresh(kReplicas);
    std::vector<char> dirty(kReplicas, 1);
    std::vector<LiveCostModel::Quote> cachedRow, freshRow;
    int kept = 0;
    const auto step = [&](std::size_t i, Time t) {
        if (engines[i]->stepUntil(t) > 0)
            dirty[i] = 1;
    };
    for (std::size_t idx = 0; idx < trace_.size(); ++idx) {
        const ImageArrival &a = trace_.arrivals[idx];
        for (std::size_t i = 0; i < kReplicas; ++i)
            step(i, a.time);
        for (std::size_t i = 0; i < kReplicas; ++i) {
            if (dirty[i]) {
                engines[i]->fillLoadView(live[i]);
                dirty[i] = 0;
            } else {
                kept += 1;
            }
            engines[i]->fillLoadView(fresh[i]);
            const ReplicaLoadView &c = live[i];
            const ReplicaLoadView &f = fresh[i];
            ASSERT_EQ(c.queueDepth, f.queueDepth)
                << "image " << idx << " replica " << i;
            ASSERT_EQ(c.backlog, f.backlog) << "image " << idx;
            ASSERT_EQ(c.idle, f.idle) << "image " << idx;
            ASSERT_EQ(c.gpuPressure, f.gpuPressure) << "image " << idx;
            ASSERT_EQ(std::max(c.storageFreeAt, f.now), f.storageFreeAt)
                << "image " << idx;
            ASSERT_EQ(c.executors.size(), f.executors.size());
            for (std::size_t k = 0; k < c.executors.size(); ++k) {
                ASSERT_EQ(c.executors[k].busyUntil, f.executors[k].busyUntil)
                    << "image " << idx << " executor " << k;
                ASSERT_EQ(c.executors[k].pendingWork,
                          f.executors[k].pendingWork)
                    << "image " << idx << " executor " << k;
            }
        }
        costs.quoteRow(a, live, cachedRow);
        costs.quoteRow(a, fresh, freshRow);
        for (std::size_t i = 0; i < kReplicas; ++i) {
            ASSERT_EQ(cachedRow[i].finish, freshRow[i].finish)
                << "image " << idx << " replica " << i;
            ASSERT_EQ(cachedRow[i].add, freshRow[i].add)
                << "image " << idx << " replica " << i;
        }
        const std::size_t r = router->routeLive(a, live);
        ASSERT_LT(r, kReplicas);
        engines[r]->admitArrival(a);
        step(r, a.time);
    }
    for (;;) {
        Time t = kTimeNever;
        for (const auto &engine : engines)
            t = std::min(t, engine->nextEventTime());
        if (t == kTimeNever)
            break;
        for (std::size_t i = 0; i < kReplicas; ++i)
            step(i, t);
    }
    std::int64_t images = 0;
    for (const auto &engine : engines)
        images += engine->finishOnline().images;
    EXPECT_EQ(images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_GT(kept, 0) << "no view was kept across a step";
}

// -------------------------------------------- pinned live-view digests
//
// Decision digests of the online paths that read the live views'
// resident()/queued() and that no other pin covers: least-loaded
// routing behind coordinator admission on an SLO trace, homogeneous
// and heterogeneous. Any change to what the
// views answer, or to how LiveCostModel prices them, moves them.

TEST_F(OnlineClusterFixture, AdmissionSloOnlineDigestIsPinned)
{
    TenantSpec interactive;
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 40.0;
    interactive.latencyBudget = milliseconds(250);
    TenantSpec batch;
    batch.cls = RequestClass::Batch;
    batch.ratePerSec = 30.0;
    batch.latencyBudget = seconds(2);
    TenantSpec bestEffort;
    bestEffort.cls = RequestClass::BestEffort;
    bestEffort.ratePerSec = 10.0;
    bestEffort.arrivals = ArrivalProcess::MMPP;
    const Trace slo = generateSloTrace(
        model_, {interactive, batch, bestEffort}, seconds(10), 0x5E);

    ClusterConfig cc = onlineConfig(3, /*stealing=*/true);
    cc.admission.enabled = true;
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(slo, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images + r.slo.rejected(),
              static_cast<std::int64_t>(slo.size()));
    // The coordinator's admission verdicts are part of the digest.
    EXPECT_GT(r.slo.rejected() + r.slo.downgraded(), 0);
    EXPECT_EQ(r.decisionDigest, 0x8ceb2665c226c79full)
        << std::hex << "0x" << r.decisionDigest;
    EXPECT_EQ(r.decisionCount, 1266);
}

TEST_F(OnlineClusterFixture, AdmissionHeterogeneousDigestIsPinned)
{
    // Coordinator admission in front of least-loaded routing on a
    // cluster that exercises every input of the live estimate: a GPU
    // replica under GPU memory pressure (gpuPressure > 1 scales its
    // switch), a CPU-only replica (CPU costs, no pressure), a replica
    // whose context lacks YoloV5l (chain-incapable for components with
    // a YoloV5l detector) and detector-bearing components (the detect
    // child's cost). Budgets are tight enough that admission both
    // admits and misses; the two runs turn misses into downgrades and
    // into rejects.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::ResNet101, ArchId::YoloV5m}),
        {});
    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx_, 1, 0);
    EngineConfig pressured = coserveConfig(
        ctx_, coserveExecutorLayout(ctx_, 1, 0, maxCount), "pressured");
    pressured.executors.front().batchMemBytes /= 4;
    EngineConfig cpuOnly =
        coserveConfig(ctx_, coserveExecutorLayout(ctx_, 1, 1, minCount),
                      "cpu-only");
    cpuOnly.executors.erase(cpuOnly.executors.begin());
    ASSERT_EQ(cpuOnly.executors.size(), 1u);
    ASSERT_EQ(cpuOnly.executors.front().kind, ProcKind::CPU);
    const auto engine = makeCoServeEngine(ctx_, pressured);
    engine->beginOnline(0, 1);
    ReplicaLoadView view;
    engine->fillLoadView(view);
    ASSERT_GT(view.gpuPressure, 1.0);

    TenantSpec interactive;
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 40.0;
    interactive.latencyBudget = milliseconds(120);
    TenantSpec batch;
    batch.cls = RequestClass::Batch;
    batch.ratePerSec = 30.0;
    batch.latencyBudget = milliseconds(600);
    TenantSpec bestEffort;
    bestEffort.cls = RequestClass::BestEffort;
    bestEffort.ratePerSec = 10.0;
    bestEffort.arrivals = ArrivalProcess::MMPP;
    const Trace slo = generateSloTrace(
        model_, {interactive, batch, bestEffort}, seconds(10), 0x4E7);

    // Arrivals admission judges: deadline-carrying, tracked, not
    // best-effort (see AdmissionController::assess).
    std::int64_t assessed = 0;
    for (const ImageArrival &a : slo.arrivals) {
        assessed += a.deadline != kTimeNever && sloTracked(a.cls) &&
                    a.cls != RequestClass::BestEffort;
    }

    struct Pin
    {
        bool downgrade;
        std::int64_t misses;
        std::uint64_t digest;
        std::int64_t decisions;
    };
    for (const Pin &pin : {Pin{true, 280, 0x84e58cdc3c2461dcull, 1143},
                           Pin{false, 99, 0xfae60006eb1b076cull, 863}}) {
        ClusterConfig cc = heterogeneousCluster(
            {{&ctx_, pressured}, {&ctx_, cpuOnly}, {&partialCtx, cfg_},
             {&ctx_, cfg_}},
            RoutingPolicy::LeastLoaded, "admission-hetero");
        cc.admission.enabled = true;
        cc.admission.downgrade = pin.downgrade;
        cc.workStealing.enabled = true;
        ClusterEngine cluster(std::move(cc));
        const ClusterResult r =
            cluster.run(slo, runWithMode(RunMode::Online));
        SCOPED_TRACE(pin.downgrade ? "downgrade" : "reject");
        EXPECT_EQ(r.images + r.slo.rejected(),
                  static_cast<std::int64_t>(slo.size()));
        EXPECT_EQ(pin.downgrade ? r.slo.downgraded() : r.slo.rejected(),
                  pin.misses);
        EXPECT_EQ(pin.downgrade ? r.slo.rejected() : r.slo.downgraded(),
                  0);
        EXPECT_GT(assessed - pin.misses, 0) << "nothing admitted";
        // Every replica, the CPU-only and the partial one included,
        // took part.
        for (std::int64_t images : r.imagesPerReplica)
            EXPECT_GT(images, 0);
        EXPECT_EQ(r.decisionDigest, pin.digest)
            << std::hex << "0x" << r.decisionDigest;
        EXPECT_EQ(r.decisionCount, pin.decisions);
    }
}

// ------------------------------------------ crash with no capable survivor

TEST_F(OnlineClusterFixture, CrashWithNoCapableSurvivorLosesImages)
{
    // Replica 0 lacks YoloV5l; replica 1, the only one that can serve
    // chains needing it, crashes mid-trace. Its drained work and every
    // later arrival needing YoloV5l have nowhere to go: they are lost
    // and accounted, and each lost arrival leaves a Route record with
    // the out-of-range sentinel replica. Online, routing skips the live
    // router for such arrivals (it would abort: no active replica can
    // serve them) and falls back as the pinned static route does.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::ResNet101, ArchId::YoloV5m}),
        {});
    struct Pin
    {
        RunMode mode;
        std::int64_t lost;
        std::uint64_t digest;
        std::int64_t decisions;
    };
    for (const Pin &pin :
         {Pin{RunMode::Static, 52, 0x0cfad8c91a3eed87ull, 402},
          Pin{RunMode::Online, 52, 0x299a5bc5f4508c83ull, 402}}) {
        SCOPED_TRACE(pin.mode == RunMode::Online ? "online" : "static");
        const std::string log = ::testing::TempDir() + "no_survivor.bin";
        RunOptions opts = runWithMode(pin.mode);
        opts.faults.crashes.push_back({1, trace_.arrivals[150].time});
        opts.recordPath = log;
        ClusterEngine cluster(heterogeneousCluster(
            {{&partialCtx, cfg_}, {&ctx_, cfg_}},
            RoutingPolicy::LeastLoaded, "no-survivor"));
        const ClusterResult r = cluster.run(trace_, opts);
        EXPECT_GT(r.crashLost, 0);
        EXPECT_EQ(r.crashLost, pin.lost);
        EXPECT_EQ(r.images + r.slo.rejected() + r.crashLost,
                  static_cast<std::int64_t>(trace_.size()));
        const DecisionLog recorded = DecisionLog::load(log);
        std::remove(log.c_str());
        EXPECT_NE(std::find_if(recorded.records().begin(),
                               recorded.records().end(),
                               [](const DecisionRecord &d) {
                                   return d.kind == DecisionKind::Route &&
                                          d.b == 2;
                               }),
                  recorded.records().end());
        EXPECT_EQ(r.decisionDigest, pin.digest)
            << std::hex << "0x" << r.decisionDigest;
        EXPECT_EQ(r.decisionCount, pin.decisions);
    }
}

} // namespace
} // namespace coserve
