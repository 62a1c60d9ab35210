/**
 * @file
 * Tests for the cluster serving layer: trace sharding, routing-policy
 * behavior, single-replica and per-shard equivalence with
 * ServingEngine, and ClusterResult aggregation math.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "core/scheduler.h"
#include "metrics/cluster_result.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace coserve {
namespace {

/** Tiny board + tiny device cluster fixture. */
class ClusterFixture : public ::testing::Test
{
  protected:
    ClusterFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-cluster";
        task.numImages = 400;
        task.seed = 7;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(ClusterFixture, ShardingDispatchesEveryRequestExactlyOnce)
{
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(
            homogeneousCluster(ctx_, cfg_, 4, policy));
        const std::vector<std::size_t> assignment =
            cluster.routeTrace(trace_);
        ASSERT_EQ(assignment.size(), trace_.size());
        for (std::size_t replica : assignment)
            EXPECT_LT(replica, 4u);

        const std::vector<std::vector<std::size_t>> buckets =
            shardIndices(assignment, 4);
        ASSERT_EQ(buckets.size(), 4u);

        // Every arrival lands in exactly one shard, its assigned one,
        // in arrival order.
        std::vector<int> hits(trace_.size(), 0);
        for (std::size_t s = 0; s < buckets.size(); ++s) {
            EXPECT_TRUE(
                std::is_sorted(buckets[s].begin(), buckets[s].end()));
            for (const std::size_t i : buckets[s]) {
                EXPECT_EQ(assignment[i], s);
                hits[i] += 1;
            }
            const Trace shard = trace_.select(buckets[s]);
            ASSERT_EQ(shard.size(), buckets[s].size());
            for (std::size_t k = 0; k < shard.size(); ++k) {
                EXPECT_EQ(shard.arrivals[k].time,
                          trace_.arrivals[buckets[s][k]].time);
            }
        }
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
                  static_cast<std::ptrdiff_t>(trace_.size()));
    }
}

TEST_F(ClusterFixture, RoundRobinCyclesThroughReplicas)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);
    for (std::size_t i = 0; i < assignment.size(); ++i)
        EXPECT_EQ(assignment[i], i % 3);
}

TEST_F(ClusterFixture, ExpertAffinityIsStickyPerComponent)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::ExpertAffinity));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);

    std::map<ComponentId, std::size_t> home;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
        const ComponentId c = trace_.arrivals[i].component;
        const auto [it, inserted] = home.insert({c, assignment[i]});
        EXPECT_EQ(it->second, assignment[i])
            << "component " << c << " moved between replicas";
    }
    // The tiny board has several components; they should not all
    // collapse onto a single replica.
    std::set<std::size_t> used(assignment.begin(), assignment.end());
    EXPECT_GT(used.size(), 1u);
}

TEST_F(ClusterFixture, LeastLoadedUsesAllReplicasUnderLoad)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);
    std::set<std::size_t> used(assignment.begin(), assignment.end());
    EXPECT_EQ(used.size(), 4u);
}

TEST_F(ClusterFixture, RoutingPolicyNames)
{
    EXPECT_STREQ(toString(RoutingPolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(RoutingPolicy::LeastLoaded), "least-loaded");
    EXPECT_STREQ(toString(RoutingPolicy::ExpertAffinity),
                 "expert-affinity");
}

TEST_F(ClusterFixture, SingleReplicaReproducesServingEngine)
{
    RunResult direct;
    {
        EngineConfig cfg = cfg_;
        auto engine = makeCoServeEngine(ctx_, std::move(cfg));
        direct = engine->run(trace_);
    }

    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(
            homogeneousCluster(ctx_, cfg_, 1, policy));
        const ClusterResult r = cluster.run(trace_, {});

        EXPECT_EQ(r.images, direct.images);
        EXPECT_EQ(r.inferences, direct.inferences);
        EXPECT_EQ(r.makespan, direct.makespan);
        EXPECT_DOUBLE_EQ(r.throughput, direct.throughput);
        EXPECT_EQ(r.switches.total(), direct.switches.total());
        ASSERT_EQ(r.replicas.size(), 1u);
        EXPECT_EQ(r.replicas[0].images, direct.images);
    }
}

TEST_F(ClusterFixture, ThreadedReplicasMatchStandaloneShardRuns)
{
    // Private-tier replicas run one per thread and share no mutable
    // state: each must equal a standalone engine serving its shard.
    // A fault plan that never fires (a straggler window after the
    // last event) must change nothing, request numbering included.
    const std::vector<std::vector<std::size_t>> buckets = shardIndices(
        ClusterEngine(homogeneousCluster(ctx_, cfg_, 3,
                                         RoutingPolicy::LeastLoaded))
            .routeTrace(trace_),
        3);
    std::vector<RunResult> solos;
    for (std::size_t i = 0; i < 3; ++i) {
        solos.push_back(
            makeCoServeEngine(ctx_, cfg_)->run(trace_.select(buckets[i])));
    }
    Time end = 0;
    for (const RunResult &solo : solos)
        end = std::max(end, solo.makespan);

    RunOptions late;
    late.faults.stragglers.push_back(
        {1, end + seconds(1), end + seconds(2), 3.0});
    for (const RunOptions &opts : {RunOptions{}, late}) {
        SCOPED_TRACE(opts.faults.any() ? "late straggler" : "clean");
        ClusterEngine cluster(homogeneousCluster(
            ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
        const ClusterResult r = cluster.run(trace_, opts);
        EXPECT_EQ(r.decisionCount,
                  static_cast<std::int64_t>(trace_.size()));
        EXPECT_EQ(r.stragglersInjected, 0);
        ASSERT_EQ(r.replicas.size(), 3u);

        for (std::size_t i = 0; i < 3; ++i) {
            const RunResult &solo = solos[i];
            const RunResult &rep = r.replicas[i];
            EXPECT_GT(solo.images, 0) << "replica " << i;
            EXPECT_EQ(rep.images, solo.images) << "replica " << i;
            EXPECT_EQ(rep.inferences, solo.inferences);
            EXPECT_EQ(rep.makespan, solo.makespan);
            EXPECT_EQ(rep.eventsExecuted, solo.eventsExecuted);
            EXPECT_EQ(rep.switches.total(), solo.switches.total());
            EXPECT_EQ(rep.switches.bytesLoaded, solo.switches.bytesLoaded);
            EXPECT_DOUBLE_EQ(rep.throughput, solo.throughput);
            EXPECT_EQ(rep.assignments, solo.assignments)
                << "replica " << i;
        }
    }
}

TEST(ClusterResultTest, AggregationMath)
{
    RunResult a;
    a.images = 100;
    a.inferences = 130;
    a.makespan = seconds(2);
    a.switches.loadsFromSsd = 5;
    a.requestLatencyMs.add(1.0);
    a.requestLatencyMs.add(3.0);

    RunResult b;
    b.images = 50;
    b.inferences = 70;
    b.makespan = seconds(4);
    b.switches.loadsFromSsd = 2;
    b.switches.loadsFromCache = 3;
    b.requestLatencyMs.add(2.0);

    const ClusterResult r = aggregateClusterResult(
        "agg-test", "round-robin", {a, b});

    EXPECT_EQ(r.label, "agg-test");
    EXPECT_EQ(r.routing, "round-robin");
    EXPECT_EQ(r.images, 150);
    EXPECT_EQ(r.inferences, 200);
    EXPECT_EQ(r.makespan, seconds(4));
    EXPECT_DOUBLE_EQ(r.throughput, 150.0 / 4.0);
    EXPECT_EQ(r.switches.total(), 10);
    EXPECT_EQ(r.requestLatencyMs.count(), 3u);
    ASSERT_EQ(r.imagesPerReplica.size(), 2u);
    EXPECT_EQ(r.imagesPerReplica[0], 100);
    EXPECT_EQ(r.imagesPerReplica[1], 50);
    // Imbalance: max(100, 50) / (150 / 2) = 100 / 75.
    EXPECT_DOUBLE_EQ(r.imbalance(), 100.0 / 75.0);
    ASSERT_EQ(r.replicas.size(), 2u);
}

TEST(ClusterResultTest, EmptyClusterIsWellDefined)
{
    const ClusterResult r =
        aggregateClusterResult("empty", "round-robin", {});
    EXPECT_EQ(r.images, 0);
    EXPECT_EQ(r.makespan, 0);
    EXPECT_DOUBLE_EQ(r.throughput, 0.0);
    EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);
}

TEST_F(ClusterFixture, EmptyShardReplicasProduceEmptyResults)
{
    // Two components hash-colliding onto few replicas can leave one
    // replica without work; force the situation with a one-component
    // trace on a 4-replica affinity cluster.
    Trace narrow;
    for (int i = 0; i < 32; ++i)
        narrow.arrivals.push_back(
            {milliseconds(4 * i), /*component=*/0, false});

    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::ExpertAffinity));
    const ClusterResult r = cluster.run(narrow, {});

    EXPECT_EQ(r.images, 32);
    std::int64_t nonEmpty = 0;
    for (std::int64_t n : r.imagesPerReplica)
        nonEmpty += n > 0 ? 1 : 0;
    EXPECT_EQ(nonEmpty, 1);
}

// ------------------------------- least-loaded table/LRU differential

/**
 * The LeastLoaded offline model as it stood before the router cached
 * per-replica tables: capability and costs read from the perf matrix
 * on every arrival, and residency kept as an MRU vector (front =
 * newest) with a linear find, erase, insert-at-front and truncate.
 * The table-driven router must reproduce its choices exactly.
 */
class MruVectorLeastLoaded
{
  public:
    MruVectorLeastLoaded(const CoEModel &model,
                         std::vector<ReplicaView> replicas)
        : model_(model), replicas_(std::move(replicas))
    {
        for (const ReplicaView &view : replicas_) {
            std::int64_t totalBytes = 0;
            for (const Expert &e : model_.experts())
                totalBytes += view.ctx->footprint().expertBytes(e.arch);
            const std::int64_t avgBytes =
                totalBytes /
                static_cast<std::int64_t>(model_.numExperts());
            State st;
            std::int64_t poolBytes = 0;
            for (const ExecutorConfig &e : view.cfg->executors) {
                poolBytes += e.poolBytes;
                st.hasGpu = st.hasGpu || e.kind == ProcKind::GPU;
            }
            st.parallelism =
                std::max<std::size_t>(1, view.cfg->executors.size());
            st.capacity = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       poolBytes / std::max<std::int64_t>(1, avgBytes)));
            states_.push_back(std::move(st));
        }
    }

    std::size_t capacity(std::size_t i) const
    {
        return states_[i].capacity;
    }

    std::size_t
    route(const ImageArrival &arrival)
    {
        const ExpertId expert =
            model_.component(arrival.component).classifier;
        const ArchId arch = model_.expert(expert).arch;
        std::size_t best = replicas_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            if (!chainCapable(replicas_[i], model_, arrival.component))
                continue;
            const ReplicaView &view = replicas_[i];
            const State &st = states_[i];
            const ProcKind proc =
                st.hasGpu ? ProcKind::GPU : ProcKind::CPU;
            const bool resident =
                std::find(st.resident.begin(), st.resident.end(),
                          expert) != st.resident.end();
            const Time execPart = DependencyAwareScheduler::execEstimate(
                &view.ctx->perf(), &view.ctx->truth(), arch, proc,
                resident);
            Time switchPart = 0;
            if (!resident && view.ctx->perf().has(arch, proc))
                switchPart = view.ctx->perf().at(arch, proc).loadLatency;
            const Time add = replicaAdditionalLatency(
                execPart, switchPart, st.parallelism);
            const Time finish = std::max(arrival.time, st.finish) + add;
            if (finish < bestFinish ||
                (finish == bestFinish && add < bestAdd)) {
                best = i;
                bestFinish = finish;
                bestAdd = add;
            }
        }
        State &st = states_.at(best);
        st.finish = bestFinish;
        auto it = std::find(st.resident.begin(), st.resident.end(),
                            expert);
        if (it != st.resident.end())
            st.resident.erase(it);
        st.resident.insert(st.resident.begin(), expert);
        if (st.resident.size() > st.capacity)
            st.resident.resize(st.capacity);
        return best;
    }

  private:
    struct State
    {
        Time finish = 0;
        std::vector<ExpertId> resident;
        std::size_t capacity = 1;
        std::size_t parallelism = 1;
        bool hasGpu = false;
    };

    const CoEModel &model_;
    std::vector<ReplicaView> replicas_;
    std::vector<State> states_;
};

/** Replica views over a cluster config's specs. */
std::vector<ReplicaView>
viewsOf(const ClusterConfig &cc)
{
    std::vector<ReplicaView> views;
    for (const ReplicaSpec &r : cc.replicas)
        views.push_back({r.ctx, &r.cfg});
    return views;
}

/**
 * Seeded random traces: arrival process, cadence and length drawn per
 * seed, so the routers see both idle gaps and deep backlogs.
 */
std::vector<Trace>
randomTraces(const CoEModel &model, std::uint64_t firstSeed, int count)
{
    const ArrivalProcess processes[] = {
        ArrivalProcess::Fixed, ArrivalProcess::Poisson,
        ArrivalProcess::Bursty, ArrivalProcess::MMPP};
    std::vector<Trace> traces;
    for (int k = 0; k < count; ++k) {
        Rng rng(firstSeed + static_cast<std::uint64_t>(k));
        TaskSpec task;
        task.name = "differential";
        task.seed = rng.next();
        task.numImages = 500 + rng.uniformInt(2500);
        task.interarrival = microseconds(rng.uniform(200.0, 20000.0));
        task.arrivals = processes[rng.uniformInt(4)];
        traces.push_back(generateTrace(model, task));
    }
    return traces;
}

/** Both LeastLoaded models route @p traces identically over @p views. */
void
expectSameAssignments(const CoEModel &model,
                      const std::vector<ReplicaView> &views,
                      const std::vector<Trace> &traces)
{
    for (std::size_t t = 0; t < traces.size(); ++t) {
        MruVectorLeastLoaded reference(model, views);
        auto router =
            makeRouter(RoutingPolicy::LeastLoaded, model, views);
        std::vector<std::size_t> want, got;
        for (const ImageArrival &a : traces[t].arrivals) {
            want.push_back(reference.route(a));
            got.push_back(router->route(a));
        }
        ASSERT_EQ(got, want) << "trace " << t;
    }
}

TEST(LeastLoadedDifferentialTest, HomogeneousBoardACluster)
{
    const DeviceSpec device = numaRtx3080Ti();
    const CoEModel model = buildBoard(boardA());
    const CoServeContext ctx(device, model);
    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 1, 0);
    const EngineConfig cfg = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 0, (minCount + maxCount) / 2),
        "board-a");
    const ClusterConfig cc = homogeneousCluster(
        ctx, cfg, 4, RoutingPolicy::LeastLoaded, "diff-a");
    expectSameAssignments(model, viewsOf(cc), randomTraces(model, 100, 6));
}

TEST_F(ClusterFixture, LeastLoadedDifferentialHeterogeneous)
{
    // Replica 1 is profiled for ResNet101 only — every classifier, no
    // detector — so it is chain-incapable for every component with a
    // detect stage; replica 2 adds a CPU executor (parallelism 2).
    const LatencyModel full = LatencyModel::calibrated(device_);
    LatencyModel partial;
    for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
        partial.setParams(ArchId::ResNet101, proc,
                          full.params(ArchId::ResNet101, proc));
    const CoServeContext partialCtx(device_, model_, partial, {});

    EngineConfig mixed = cfg_;
    ExecutorConfig cpu;
    cpu.kind = ProcKind::CPU;
    cpu.poolBytes = cfg_.executors.front().poolBytes;
    cpu.batchMemBytes = cfg_.executors.front().batchMemBytes;
    mixed.executors.push_back(cpu);

    const ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}, {&ctx_, mixed}},
        RoutingPolicy::LeastLoaded, "diff-hetero");
    const std::vector<ReplicaView> views = viewsOf(cc);
    bool incapable = false;
    for (std::size_t c = 0; c < model_.numComponents(); ++c)
        incapable = incapable ||
                    !chainCapable(views[1], model_,
                                  static_cast<ComponentId>(c));
    ASSERT_TRUE(incapable);
    expectSameAssignments(model_, views, randomTraces(model_, 200, 8));
}

TEST(LeastLoadedDifferentialTest, TinyPoolsEvict)
{
    // Pools of 1-3 average experts: the residency LRU evicts on almost
    // every arrival, so an eviction slip shows up in the assignments.
    const DeviceSpec device = numaRtx3080Ti();
    const CoEModel model = buildBoard(boardA());
    const CoServeContext ctx(device, model);
    std::int64_t totalBytes = 0;
    for (const Expert &e : model.experts())
        totalBytes += ctx.footprint().expertBytes(e.arch);
    const std::int64_t avgBytes =
        totalBytes / static_cast<std::int64_t>(model.numExperts());

    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 1, 0);
    const EngineConfig base = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 0, (minCount + maxCount) / 2),
        "board-a");
    std::vector<ReplicaSpec> specs;
    for (std::int64_t experts : {1, 2, 3, 2}) {
        EngineConfig cfg = base;
        cfg.executors.front().poolBytes = experts * avgBytes + avgBytes / 2;
        specs.push_back({&ctx, cfg});
    }
    const ClusterConfig cc = heterogeneousCluster(
        std::move(specs), RoutingPolicy::LeastLoaded, "diff-tiny");
    const std::vector<ReplicaView> views = viewsOf(cc);
    const MruVectorLeastLoaded probe(model, views);
    for (std::size_t i = 0; i < views.size(); ++i) {
        EXPECT_GE(probe.capacity(i), 1u);
        EXPECT_LE(probe.capacity(i), 3u);
    }
    expectSameAssignments(model, views, randomTraces(model, 300, 6));
}

} // namespace
} // namespace coserve
