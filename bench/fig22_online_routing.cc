/**
 * @file
 * Figure 22 (extension) — online cluster scheduling: static
 * (route-then-shard) vs. online (live-load routing at arrival time)
 * vs. online + work stealing, under the workloads where the static
 * router's private residency/finish model drifts furthest from what
 * the replicas actually do:
 *
 *  1. a bursty trace (panel-at-a-time camera feeds): whole bursts
 *     land between replica state changes, so offline predictions go
 *     stale fastest;
 *  2. a skewed trace (Zipf-weighted component mix): expert-switch
 *     cost concentrates on a few components, the regime where dynamic
 *     work redistribution beats static partitioning;
 *  3. a heterogeneous 2+2 NUMA+UMA cluster on the skewed trace, where
 *     affinity makes the fast NUMA replicas the hot experts' home —
 *     and therefore the backlog — and the idle UMA pair steals from
 *     them (ClusterResult::stolenRequests > 0).
 *
 * Online-mode runs are coordinator-sequential on the shared virtual
 * clock, so every printed number is reproducible.
 */

#include "bench/bench_util.h"

#include <cmath>

#include "cluster/cluster.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "util/rng.h"
#include "workload/generator.h"

using namespace coserve;

namespace {

enum class Mode { Static, Online, OnlineSteal };

const char *
toString(Mode m)
{
    switch (m) {
      case Mode::Static: return "static";
      case Mode::Online: return "online";
      case Mode::OnlineSteal: return "online+steal";
    }
    return "?";
}

/**
 * Zipf-weighted component mix at the paper's 4 ms cadence: component
 * rank r is drawn with weight 1 / (1 + r)^1.5, concentrating load on
 * a few experts (the board's natural mix is much flatter).
 */
Trace
skewedTrace(const CoEModel &model, std::size_t numImages,
            std::uint64_t seed)
{
    const ZipfDistribution zipf(model.numComponents(), 1.5);
    Rng rng(seed);
    Trace trace;
    trace.arrivals.reserve(numImages);
    for (std::size_t i = 0; i < numImages; ++i) {
        ImageArrival a;
        a.time = milliseconds(4) * static_cast<Time>(i);
        a.component = static_cast<ComponentId>(zipf(rng));
        a.defective =
            rng.bernoulli(model.component(a.component).defectProb);
        trace.arrivals.push_back(a);
    }
    return trace;
}

ClusterResult
runMode(ClusterConfig cc, Mode mode, const Trace &trace)
{
    cc.workStealing.enabled = mode == Mode::OnlineSteal;
    ClusterEngine cluster(std::move(cc));
    return cluster.run(trace,
                       runWithMode(mode == Mode::Static
                                       ? RunMode::Static
                                       : RunMode::Online));
}

} // namespace

int
main()
{
    bench::banner("Figure 22 (extension)",
                  "Online cluster scheduling: live-load routing and "
                  "cross-replica work stealing vs. static routing");

    Harness &h = bench::harnessFor(bench::numaDevice(), bench::modelA());
    TaskSpec bursty = taskA1();
    bursty.name = "bursty";
    bursty.numImages = 2000;
    bursty.arrivals = ArrivalProcess::Bursty;
    const Trace burstyTrace = generateTrace(bench::modelA(), bursty);
    const Trace skewed = skewedTrace(bench::modelA(), 2000, 0xF1622);
    const EngineConfig cfg =
        h.makeConfig(SystemKind::CoServeCasual, burstyTrace, {});

    // -------- 4 homogeneous replicas, least-loaded, bursty + skewed
    Table t({"Trace", "Mode", "Throughput (img/s)", "Switches",
             "Imbalance", "Stolen"});
    double staticSkewed = 0.0, stealSkewed = 0.0;
    struct TraceCase
    {
        const char *name;
        const Trace *trace;
    };
    const TraceCase cases[] = {{"bursty", &burstyTrace},
                               {"skewed", &skewed}};
    for (const TraceCase &tc : cases) {
        for (Mode mode :
             {Mode::Static, Mode::Online, Mode::OnlineSteal}) {
            const ClusterResult r = runMode(
                homogeneousCluster(h.context(), cfg, 4,
                                   RoutingPolicy::LeastLoaded, "fig22"),
                mode, *tc.trace);
            if (tc.trace == &skewed) {
                if (mode == Mode::Static)
                    staticSkewed = r.throughput;
                if (mode == Mode::OnlineSteal)
                    stealSkewed = r.throughput;
            }
            t.addRow({tc.name, toString(mode),
                      formatDouble(r.throughput, 1),
                      std::to_string(r.switches.total()),
                      formatDouble(r.imbalance(), 2),
                      std::to_string(r.stolenRequests)});
        }
    }
    t.print();
    std::printf("online+stealing >= static least-loaded on the skewed "
                "trace: %s (%.1f vs %.1f img/s)\n",
                stealSkewed >= staticSkewed ? "yes" : "NO", stealSkewed,
                staticSkewed);

    // -------- heterogeneous 2+2 NUMA+UMA cluster, skewed trace
    std::printf("\n---- Heterogeneous 2+2 cluster (NUMA + UMA), skewed "
                "trace ----\n");
    Harness &uma = bench::harnessFor(bench::umaDevice(), bench::modelA());
    const EngineConfig numaCfg =
        h.makeConfig(SystemKind::CoServeCasual, skewed, {});
    const EngineConfig umaCfg =
        uma.makeConfig(SystemKind::CoServeCasual, skewed, {});
    const auto heteroConfig = [&]() {
        return heterogeneousCluster({{&h.context(), numaCfg},
                                     {&h.context(), numaCfg},
                                     {&uma.context(), umaCfg},
                                     {&uma.context(), umaCfg}},
                                    RoutingPolicy::LeastLoaded,
                                    "fig22-hetero");
    };

    std::int64_t heteroStolen = 0;
    double heteroStatic = 0.0, heteroSteal = 0.0;
    for (Mode mode : {Mode::Static, Mode::OnlineSteal}) {
        const ClusterResult r = runMode(heteroConfig(), mode, skewed);
        if (mode == Mode::Static) {
            heteroStatic = r.throughput;
        } else {
            heteroSteal = r.throughput;
            heteroStolen = r.stolenRequests;
            std::printf("%s", summarize(r).c_str());
        }
    }
    std::printf("hetero online+steal vs static: %.1f vs %.1f img/s; "
                "stolen requests: %lld (%s)\n",
                heteroSteal, heteroStatic,
                static_cast<long long>(heteroStolen),
                heteroStolen > 0 ? "stealing active"
                                 : "NO STEALS — unexpected");
    return 0;
}
