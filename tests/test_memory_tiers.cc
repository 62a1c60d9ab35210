/**
 * @file
 * Tests for the unified memory-tier hierarchy (runtime/memory_tier.h):
 * eviction cascades GPU -> CPU DRAM -> disk, pinned entries surviving
 * pressure, cross-replica hits through a SharedCpuTier, per-tier
 * counters reconciling with RunResult totals, and heterogeneous
 * (mixed-device) clusters end to end.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/evictions.h"
#include "baselines/schedulers.h"
#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "runtime/engine.h"
#include "workload/generator.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

// ------------------------------------------------------- tier hierarchy

TEST(TierHierarchyTest, EvictionCascadesGpuToCpuToDisk)
{
    MemoryTier gpu("gpu", 100 * kMB, TierLevel::Gpu);
    MemoryTier cpu("cpu", 80 * kMB, TierLevel::CpuDram);
    DiskTier disk;
    gpu.linkBelow(&cpu);
    cpu.linkBelow(&disk);

    gpu.insertResident(1, 50 * kMB, 1, 10);
    gpu.insertResident(2, 50 * kMB, 2, 20);

    // Evicting from the GPU tier demotes into the CPU tier.
    EXPECT_TRUE(gpu.evict(1, 30));
    EXPECT_FALSE(gpu.contains(1));
    EXPECT_TRUE(cpu.holds(1));
    EXPECT_EQ(cpu.usedBytes(), 50 * kMB);

    // A second demotion overflows the CPU tier, which self-evicts its
    // LRU entry; the spill cascades to the disk tier (admission
    // counted, bytes dropped — the weights already persist on disk).
    EXPECT_TRUE(gpu.evict(2, 40));
    EXPECT_FALSE(cpu.holds(1));
    EXPECT_TRUE(cpu.holds(2));
    EXPECT_EQ(gpu.stats().counters.evictions, 2);
    EXPECT_EQ(cpu.stats().counters.evictions, 1);
    EXPECT_EQ(disk.stats().counters.insertions, 1);
}

TEST(TierHierarchyTest, EvictWithoutBelowDrops)
{
    MemoryTier gpu("gpu", 100 * kMB, TierLevel::Gpu);
    gpu.insertResident(1, 50 * kMB, 1, 10);
    EXPECT_FALSE(gpu.evict(1, 20)); // no below link: dropped
    EXPECT_EQ(gpu.count(), 0u);
    EXPECT_EQ(gpu.stats().counters.evictions, 1);
}

TEST(TierHierarchyTest, DisabledBelowTierDoesNotReceiveDemotions)
{
    MemoryTier gpu("gpu", 100 * kMB, TierLevel::Gpu);
    MemoryTier cpu("cpu", 0, TierLevel::CpuDram); // configured off
    gpu.linkBelow(&cpu);
    gpu.insertResident(1, 50 * kMB, 1, 10);
    EXPECT_FALSE(gpu.evict(1, 20));
    EXPECT_EQ(cpu.count(), 0u);
}

TEST(TierHierarchyTest, PinnedEntriesNeverEvicted)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 40 * kMB, 10);
    cache.insert(2, 40 * kMB, 20);
    cache.pin(1);

    // Making room skips the pinned entry: 2 is evicted despite being
    // more recent.
    cache.insert(3, 40 * kMB, 30);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));

    // With every resident pinned, the insert is rejected rather than
    // evicting protected entries.
    cache.pin(3);
    cache.insert(4, 40 * kMB, 40);
    EXPECT_FALSE(cache.contains(4));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));

    // Direct eviction of a pinned entry is a hard error.
    EXPECT_DEATH(cache.evict(1, 50), "pinned");
}

// -------------------------------------------------- engine-level counters

/** Tiny board on the tiny NUMA device, with a CPU DRAM cache tier. */
class TierEngineFixture : public ::testing::Test
{
  protected:
    TierEngineFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          truth_(LatencyModel::calibrated(device_)),
          footprint_(FootprintModel::calibrated(device_)),
          usage_(UsageProfile::exact(model_))
    {
        TaskSpec task;
        task.name = "tiny-tiers";
        task.numImages = 300;
        task.seed = 5;
        trace_ = generateTrace(model_, task);
    }

    EngineConfig
    cacheConfig(std::int64_t gpuPoolMB, std::int64_t cacheMB) const
    {
        EngineConfig cfg;
        cfg.label = "tiers";
        cfg.device = device_;
        ExecutorConfig e;
        e.kind = ProcKind::GPU;
        e.poolBytes = gpuPoolMB * kMB;
        e.batchMemBytes = 800 * kMB;
        cfg.executors.push_back(e);
        cfg.cpuCacheTier = cacheMB > 0;
        cfg.cpuCacheBytes = cacheMB * kMB;
        fillMaxBatchTable(cfg, truth_);
        return cfg;
    }

    RunResult
    runWith(EngineConfig cfg)
    {
        ServingEngine engine(std::move(cfg), model_, truth_, footprint_,
                             usage_,
                             std::make_unique<FcfsSingleScheduler>(),
                             std::make_unique<LruEviction>());
        return engine.run(trace_);
    }

    DeviceSpec device_;
    CoEModel model_;
    LatencyModel truth_;
    FootprintModel footprint_;
    UsageProfile usage_;
    Trace trace_;
};

TEST_F(TierEngineFixture, CountersReconcileWithRunResultTotals)
{
    const RunResult r = runWith(cacheConfig(800, 2000));
    ASSERT_EQ(r.images, 300);

    const TierStats *gpu = findTierStats(r.tiers, "gpu.pool");
    const TierStats *cache = findTierStats(r.tiers, "cpu.cache");
    const TierStats *disk = findTierStats(r.tiers, "disk");
    ASSERT_NE(gpu, nullptr);
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(disk, nullptr);

    // Every expert switch is a pool miss; every load resolves against
    // the DRAM tier (hit = cache leg only, miss = SSD leg = disk hit).
    EXPECT_EQ(gpu->counters.misses, r.switches.total());
    EXPECT_EQ(cache->counters.hits, r.switches.loadsFromCache);
    EXPECT_EQ(cache->counters.misses, r.switches.loadsFromSsd);
    EXPECT_EQ(disk->counters.hits, r.switches.loadsFromSsd);

    // Every executed batch touches its expert exactly once.
    std::int64_t batches = 0;
    for (const ExecutorStats &es : r.executors)
        batches += es.batches;
    EXPECT_EQ(gpu->counters.hits, batches);

    // GPU-pool evictions all demoted into the enabled cache tier.
    EXPECT_EQ(gpu->counters.evictions, r.switches.evictions);
    EXPECT_EQ(r.switches.demotions, r.switches.evictions);
    EXPECT_GT(cache->counters.hits, 0);
    EXPECT_GT(cache->counters.evictions, 0);
    EXPECT_LE(cache->usedBytes, cache->capacityBytes);
    EXPECT_GT(cache->hitRate(), 0.0);
    EXPECT_LT(cache->hitRate(), 1.0);
}

TEST_F(TierEngineFixture, NoCacheTierMeansDiskOnlyLoads)
{
    const RunResult r = runWith(cacheConfig(800, 0));
    EXPECT_EQ(findTierStats(r.tiers, "cpu.cache"), nullptr);
    const TierStats *disk = findTierStats(r.tiers, "disk");
    ASSERT_NE(disk, nullptr);
    EXPECT_EQ(disk->counters.hits, r.switches.total());
    EXPECT_EQ(r.switches.loadsFromCache, 0);
}

// ------------------------------------------------------ shared CPU tier

TEST(SharedCpuTierTest, SiblingEvictionIsSiblingHit)
{
    // Two replica GPU pools over one shared CPU DRAM tier: an expert
    // evicted by replica A's pool is immediately resident DRAM for
    // replica B — the cross-replica reuse the tier exists for.
    SharedCpuTier shared(200 * kMB);
    MemoryTier gpuA("gpuA", 100 * kMB, TierLevel::Gpu);
    MemoryTier gpuB("gpuB", 100 * kMB, TierLevel::Gpu);
    gpuA.linkBelow(&shared);
    gpuB.linkBelow(&shared);

    gpuA.insertResident(7, 60 * kMB, 1, 10);
    EXPECT_FALSE(shared.holds(7));
    EXPECT_TRUE(gpuA.evict(7, 20)); // A demotes...
    EXPECT_TRUE(shared.holds(7));   // ...and B can adopt from DRAM.
    EXPECT_TRUE(shared.lookupAndTouch(7, 30));
    EXPECT_EQ(shared.stats().counters.hits, 1);
    EXPECT_EQ(shared.stats().counters.insertions, 1);
}

TEST_F(TierEngineFixture, SharedTierAccumulatesAcrossEngines)
{
    // Two engines sharing one CPU DRAM tier, run back to back: the
    // first engine's demotions and SSD pass-throughs populate the
    // tier, the second engine draws cache hits from it, and the
    // shared counters reconcile with both engines' switch totals.
    SharedCpuTier shared(2000 * kMB);

    EngineConfig first = cacheConfig(800, 0);
    first.externalCpuTier = &shared;
    const RunResult a = runWith(std::move(first));
    ASSERT_GT(shared.stats().counters.insertions, 0);
    EXPECT_GT(a.switches.loadsFromCache, 0);
    EXPECT_GT(a.switches.demotions, 0);

    EngineConfig second = cacheConfig(800, 0);
    second.externalCpuTier = &shared;
    const RunResult b = runWith(std::move(second));
    EXPECT_GT(b.switches.loadsFromCache, 0);

    // Engines do not report the cluster-owned tier themselves.
    EXPECT_EQ(findTierStats(a.tiers, "cpu.shared"), nullptr);
    EXPECT_EQ(findTierStats(b.tiers, "cpu.shared"), nullptr);
    // Both engines' accesses accumulate in the shared tier's counters.
    const TierStats sharedStats = shared.stats();
    EXPECT_TRUE(sharedStats.shared);
    EXPECT_EQ(sharedStats.counters.hits,
              a.switches.loadsFromCache + b.switches.loadsFromCache);
    EXPECT_EQ(sharedStats.counters.misses,
              a.switches.loadsFromSsd + b.switches.loadsFromSsd);
}

// --------------------------------------------------------- cluster level

/** Cluster fixture on the tiny device with a cache-tier CoServe config. */
class TierClusterFixture : public ::testing::Test
{
  protected:
    TierClusterFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-tier-cluster";
        task.numImages = 400;
        task.seed = 7;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] = gpuExpertCountBounds(ctx_, 1, 0);
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, minCount), "replica");
        cfg_.cpuCacheTier = true;
        cfg_.cpuCacheBytes = 1500 * kMB;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(TierClusterFixture, SharedTierReportedOnceInClusterResult)
{
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::RoundRobin,
                                          "shared");
    cc.sharedCpu.enabled = true;
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace_, {});

    EXPECT_EQ(r.images, 400);
    const TierStats *shared = findTierStats(r.tiers, "cpu.shared");
    ASSERT_NE(shared, nullptr);
    EXPECT_TRUE(shared->shared);
    // Derived capacity: sum of the replicas' cpuCacheBytes.
    EXPECT_EQ(shared->capacityBytes, 2 * cfg_.cpuCacheBytes);
    EXPECT_EQ(shared->counters.hits, r.switches.loadsFromCache);
    EXPECT_EQ(shared->counters.misses, r.switches.loadsFromSsd);
    // No private cache tiers when the cluster shares one.
    EXPECT_EQ(findTierStats(r.tiers, "cpu.cache"), nullptr);
}

TEST_F(TierClusterFixture, SharedTierBeatsPrivateTiersOnHitRate)
{
    const auto hitRate = [](const ClusterResult &r,
                            const std::string &tier) {
        const TierStats *t = findTierStats(r.tiers, tier);
        return t != nullptr ? t->hitRate() : -1.0;
    };

    ClusterConfig priv = homogeneousCluster(ctx_, cfg_, 2,
                                            RoutingPolicy::RoundRobin,
                                            "private");
    ClusterEngine privCluster(std::move(priv));
    const double privRate =
        hitRate(privCluster.run(trace_, {}), "cpu.cache");

    ClusterConfig shared = homogeneousCluster(ctx_, cfg_, 2,
                                              RoutingPolicy::RoundRobin,
                                              "shared");
    shared.sharedCpu.enabled = true; // same total DRAM, one tier
    ClusterEngine sharedCluster(std::move(shared));
    const double sharedRate =
        hitRate(sharedCluster.run(trace_, {}), "cpu.shared");

    ASSERT_GE(privRate, 0.0);
    EXPECT_GT(sharedRate, privRate);
}

TEST_F(TierClusterFixture, PrivateTiersMergeAcrossReplicas)
{
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::RoundRobin,
                                          "merge");
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace_, {});

    const TierStats *cache = findTierStats(r.tiers, "cpu.cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_FALSE(cache->shared);
    EXPECT_EQ(cache->capacityBytes, 2 * cfg_.cpuCacheBytes);
    std::int64_t hits = 0;
    for (const RunResult &rep : r.replicas) {
        const TierStats *t = findTierStats(rep.tiers, "cpu.cache");
        ASSERT_NE(t, nullptr);
        hits += t->counters.hits;
    }
    EXPECT_EQ(cache->counters.hits, hits);
}

TEST_F(TierClusterFixture, HeterogeneousClusterMixedDevices)
{
    // A second, faster device kind: more GPU memory, quicker SSD.
    DeviceSpec big = tinyTestDevice();
    big.name = "tiny-big";
    big.gpuMemoryBytes = 2 * device_.gpuMemoryBytes;
    big.ssdBps = 4 * device_.ssdBps;
    CoServeContext bigCtx(big, model_);

    const auto [bigMin, bigMax] = gpuExpertCountBounds(bigCtx, 1, 0);
    EngineConfig bigCfg = coserveConfig(
        bigCtx, coserveExecutorLayout(bigCtx, 1, 0, bigMax), "big");

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&ctx_, cfg_}, {&bigCtx, bigCfg}, {&bigCtx, bigCfg}},
        RoutingPolicy::LeastLoaded, "hetero");
    ClusterEngine cluster(std::move(cc));
    ASSERT_EQ(cluster.numReplicas(), 4u);

    const ClusterResult r = cluster.run(trace_, {});
    EXPECT_EQ(r.images, 400);
    ASSERT_EQ(r.replicas.size(), 4u);
    ASSERT_EQ(r.imagesPerReplica.size(), 4u);
    std::int64_t total = 0;
    for (std::int64_t n : r.imagesPerReplica)
        total += n;
    EXPECT_EQ(total, 400);
    // The least-loaded router sees per-replica device speed: the
    // faster pair should absorb at least as much work as the slow one.
    EXPECT_GE(r.imagesPerReplica[2] + r.imagesPerReplica[3],
              r.imagesPerReplica[0] + r.imagesPerReplica[1]);
}

} // namespace
} // namespace coserve
