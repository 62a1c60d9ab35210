/**
 * @file
 * Figure 21 (extension) — the memory-tier hierarchy under the knobs
 * the unified MemoryTier refactor exposes:
 *
 *  1. CPU DRAM tier capacity sweep on one replica: hit rate and
 *     throughput as the cache tier grows from nothing to all of host
 *     DRAM (the hit-rate / latency trade-off a uniform tier
 *     abstraction makes measurable).
 *  2. Shared vs. private CPU tier on a 4-replica cluster with the
 *     same total DRAM: one mutex-guarded SharedCpuTier behind all
 *     replicas turns sibling evictions into DRAM hits, so the shared
 *     hit rate must come out strictly higher.
 *  3. Heterogeneous 2+2 smoke: two NUMA + two UMA replicas with
 *     per-replica DeviceSpecs behind the least-loaded router.
 *
 * A static cluster runs shared-tier replicas in replica order, so the
 * shared tier's population order — and therefore every printed
 * number — is reproducible.
 */

#include "bench/bench_util.h"

#include "cluster/cluster.h"
#include "metrics/cluster_result.h"

using namespace coserve;

namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

void
capacitySweep(Harness &h, const Trace &trace)
{
    std::printf("\n---- CPU DRAM tier capacity sweep (1 replica) ----\n");
    Table t({"Cache (GiB)", "Throughput (img/s)", "Hit rate",
             "SSD loads", "DRAM loads", "Tier evictions"});
    for (std::int64_t gb : {0, 2, 4, 8, 14}) {
        EngineConfig cfg =
            h.makeConfig(SystemKind::CoServeCasual, trace, {});
        cfg.label = "fig21-cap";
        cfg.cpuCacheTier = gb > 0;
        cfg.cpuCacheBytes = gb * kGB;
        auto engine = makeCoServeEngine(h.context(), cfg);
        const RunResult r = engine->run(trace);
        const TierStats *cache = findTierStats(r.tiers, "cpu.cache");
        t.addRow({std::to_string(gb), formatDouble(r.throughput, 1),
                  cache ? formatPercent(cache->hitRate())
                        : std::string("-"),
                  std::to_string(r.switches.loadsFromSsd),
                  std::to_string(r.switches.loadsFromCache),
                  cache ? std::to_string(cache->counters.evictions)
                        : std::string("-")});
    }
    t.print();
}

void
sharedVsPrivate(Harness &h, const Trace &trace)
{
    std::printf("\n---- Shared vs. private CPU tier (4 replicas, same "
                "total DRAM) ----\n");
    EngineConfig cfg =
        h.makeConfig(SystemKind::CoServeCasual, trace, {});
    cfg.cpuCacheTier = true;
    cfg.cpuCacheBytes = 3 * kGB; // per replica; shared derives 4x

    Table t({"CPU tier", "Throughput (img/s)", "Hit rate", "SSD loads",
             "DRAM loads", "Tier evictions"});
    double privateRate = 0.0, sharedRate = 0.0;
    for (bool shared : {false, true}) {
        ClusterConfig cc = homogeneousCluster(
            h.context(), cfg, 4, RoutingPolicy::LeastLoaded, "fig21");
        cc.sharedCpu.enabled = shared;
        ClusterEngine cluster(std::move(cc));
        const ClusterResult r = cluster.run(trace, RunOptions{});
        const TierStats *tier =
            findTierStats(r.tiers, shared ? "cpu.shared" : "cpu.cache");
        const double rate = tier ? tier->hitRate() : 0.0;
        (shared ? sharedRate : privateRate) = rate;
        t.addRow({shared ? "shared" : "private",
                  formatDouble(r.throughput, 1), formatPercent(rate),
                  std::to_string(r.switches.loadsFromSsd),
                  std::to_string(r.switches.loadsFromCache),
                  tier ? std::to_string(tier->counters.evictions)
                       : std::string("-")});
    }
    t.print();
    std::printf("shared CPU tier hit rate strictly higher: %s "
                "(%.1f%% vs %.1f%%)\n",
                sharedRate > privateRate ? "yes" : "NO",
                100.0 * sharedRate, 100.0 * privateRate);
}

void
heterogeneousSmoke(const Trace &trace)
{
    std::printf("\n---- Heterogeneous 2+2 cluster (NUMA + UMA) ----\n");
    Harness &numa =
        bench::harnessFor(bench::numaDevice(), bench::modelA());
    Harness &uma = bench::harnessFor(bench::umaDevice(), bench::modelA());
    const EngineConfig numaCfg =
        numa.makeConfig(SystemKind::CoServeCasual, trace, {});
    const EngineConfig umaCfg =
        uma.makeConfig(SystemKind::CoServeCasual, trace, {});

    ClusterConfig cc = heterogeneousCluster(
        {{&numa.context(), numaCfg},
         {&numa.context(), numaCfg},
         {&uma.context(), umaCfg},
         {&uma.context(), umaCfg}},
        RoutingPolicy::LeastLoaded, "fig21-hetero");
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace, RunOptions{});

    Table t({"Replica", "Device", "Images", "Throughput (img/s)"});
    const char *devNames[] = {"NUMA", "NUMA", "UMA", "UMA"};
    for (std::size_t i = 0; i < r.replicas.size(); ++i) {
        t.addRow({std::to_string(i), devNames[i],
                  std::to_string(r.replicas[i].images),
                  formatDouble(r.replicas[i].throughput, 1)});
    }
    t.print();
    std::printf("cluster: %lld images, %.1f img/s aggregate, "
                "imbalance %.2f\n",
                static_cast<long long>(r.images), r.throughput,
                r.imbalance());
}

} // namespace

int
main()
{
    bench::banner("Figure 21 (extension)",
                  "Memory-tier hierarchy: capacity sweep, shared vs. "
                  "private CPU tier, heterogeneous cluster");

    Harness &h = bench::harnessFor(bench::numaDevice(), bench::modelA());
    TaskSpec task = taskA1();
    task.numImages = 2000;
    const Trace trace = generateTrace(bench::modelA(), task);

    capacitySweep(h, trace);
    sharedVsPrivate(h, trace);
    heterogeneousSmoke(trace);
    return 0;
}
