/**
 * @file
 * Figure 23 (extension) — SLO-aware serving: goodput and per-class
 * tail latency of static routing vs. online (live routing + cluster
 * admission + deadline-aware stealing) vs. online + elastic
 * autoscaling, on SLO-classed multi-tenant traces:
 *
 *  1. a *diurnal* mix (interactive + batch tenants whose Poisson rates
 *     swing through a sped-up day/night cycle, plus a deadline-less
 *     best-effort MMPP tenant): the regime where a fixed active set is
 *     wrong twice a day — night traffic spread over all replicas
 *     scatters expert groups (switch churn), day peaks need every
 *     replica;
 *  2. a *bursty* mix (MMPP interactive tenant): admission and
 *     EDF-within-priority keep interactive p99 bounded through bursts
 *     by shedding or downgrading infeasible work.
 *
 * The headline metric is goodput — completed-in-deadline images per
 * second — not raw throughput: a run that serves everything late
 * scores zero. Verdict lines are grepped by CI ("NO" fails the
 * Release job).
 */

#include "bench/bench_util.h"

#include "cluster/cluster.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "workload/generator.h"

using namespace coserve;

namespace {

enum class Mode { Static, Online, OnlineAutoscale };

const char *
toString(Mode m)
{
    switch (m) {
      case Mode::Static: return "static";
      case Mode::Online: return "online";
      case Mode::OnlineAutoscale: return "online+autoscale";
    }
    return "?";
}

/** Interactive / batch / best-effort tenants with a diurnal swing. */
std::vector<TenantSpec>
diurnalTenants()
{
    // Capacity on this flat component mix is *load-dependent*: the
    // paper's saturating 250 img/s feed keeps queues deep enough that
    // same-expert groups form and batching amortizes the ~100 ms
    // switches (fig22: ~50 img/s on 4 replicas), but an open-loop
    // feed at realistic rates keeps queues shallow, groups small, and
    // the achievable rate near ~28 img/s. The mix below averages
    // ~18 img/s with a ~29 img/s day peak (oversubscribing the
    // shallow-queue regime for part of each cycle) and a ~7 img/s
    // night trough (one replica's worth).
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 9.0;
    interactive.latencyBudget = milliseconds(350);
    interactive.diurnalAmplitude = 0.85;
    interactive.diurnalPeriod = seconds(60);

    TenantSpec batch;
    batch.name = "batch";
    batch.cls = RequestClass::Batch;
    batch.ratePerSec = 6.0;
    batch.latencyBudget = seconds(2);
    batch.diurnalAmplitude = 0.6;
    batch.diurnalPeriod = seconds(60);

    TenantSpec bestEffort;
    bestEffort.name = "best-effort";
    bestEffort.cls = RequestClass::BestEffort;
    bestEffort.ratePerSec = 2.5;
    bestEffort.arrivals = ArrivalProcess::MMPP;
    bestEffort.mmppBurstFactor = 6.0;

    return {interactive, batch, bestEffort};
}

/** Bursty interactive tenant over a steady batch floor. */
std::vector<TenantSpec>
burstyTenants()
{
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 8.0;
    interactive.latencyBudget = milliseconds(350);
    interactive.arrivals = ArrivalProcess::MMPP;
    interactive.mmppBurstFactor = 10.0;
    interactive.mmppMeanCalm = seconds(3);
    interactive.mmppMeanBurst = milliseconds(400);

    TenantSpec batch;
    batch.name = "batch";
    batch.cls = RequestClass::Batch;
    batch.ratePerSec = 10.0;
    batch.latencyBudget = seconds(2);

    return {interactive, batch};
}

ClusterConfig
modeConfig(const Harness &h, const EngineConfig &cfg, Mode mode,
           const char *label)
{
    ClusterConfig cc = homogeneousCluster(
        h.context(), cfg, 4, RoutingPolicy::LeastLoaded, label);
    if (mode == Mode::Static)
        return cc;
    cc.workStealing.enabled = true;
    cc.admission.enabled = true;
    cc.admission.slack = 1.25;
    if (mode == Mode::OnlineAutoscale) {
        cc.autoscale.enabled = true;
        cc.autoscale.interval = seconds(1);
        cc.autoscale.cooldown = seconds(2);
        cc.autoscale.minReplicas = 1;
        cc.autoscale.startReplicas = 4;
    }
    return cc;
}

void
addModeRow(Table &t, const char *trace, Mode mode,
           const ClusterResult &r)
{
    const SloClassStats &interactive =
        r.slo.of(RequestClass::Interactive);
    t.addRow({trace, toString(mode),
              formatDouble(r.slo.goodput(r.makespan), 1),
              formatDouble(r.throughput, 1),
              formatPercent(r.slo.violationRate()),
              std::to_string(r.slo.rejected() + r.slo.downgraded()),
              formatDouble(interactive.latencyMs.quantile(0.99), 0),
              formatDouble(r.avgActiveReplicas, 2)});
}

void
printClassTable(const ClusterResult &r)
{
    Table t({"Class", "Done", "Violated", "Rejected", "Downgraded",
             "p50 (ms)", "p95 (ms)", "p99 (ms)"});
    for (std::size_t i = 0; i < r.slo.perClass.size(); ++i) {
        const SloClassStats &c = r.slo.perClass[i];
        if (c.completed == 0 && c.rejected == 0 && c.downgraded == 0)
            continue;
        t.addRow({coserve::toString(static_cast<RequestClass>(i)),
                  std::to_string(c.completed),
                  std::to_string(c.violated),
                  std::to_string(c.rejected),
                  std::to_string(c.downgraded),
                  formatDouble(c.latencyMs.quantile(0.50), 1),
                  formatDouble(c.latencyMs.quantile(0.95), 1),
                  formatDouble(c.latencyMs.quantile(0.99), 1)});
    }
    t.print();
}

} // namespace

int
main()
{
    bench::banner("Figure 23 (extension)",
                  "SLO-aware serving: request classes, admission "
                  "control, deadline scheduling and elastic "
                  "autoscaling vs. static routing");

    Harness &h = bench::harnessFor(bench::numaDevice(), bench::modelA());
    const Trace diurnal = generateSloTrace(
        bench::modelA(), diurnalTenants(), seconds(120), 0xF23D);
    const Trace bursty = generateSloTrace(
        bench::modelA(), burstyTenants(), seconds(60), 0xF23B);
    const EngineConfig cfg =
        h.makeConfig(SystemKind::CoServeCasual, diurnal, {});

    std::printf("diurnal trace: %zu images over 120 s; bursty trace: "
                "%zu images over 60 s\n\n",
                diurnal.size(), bursty.size());

    struct TraceCase
    {
        const char *name;
        const Trace *trace;
    };
    const TraceCase cases[] = {{"diurnal", &diurnal},
                               {"bursty", &bursty}};

    Table t({"Trace", "Mode", "Goodput (img/s)", "Throughput",
             "Violation", "Shed", "p99 int (ms)", "Avg active"});
    double staticDiurnal = 0.0, autoDiurnal = 0.0;
    double staticBursty = 0.0, onlineBursty = 0.0;
    for (const TraceCase &tc : cases) {
        for (Mode mode :
             {Mode::Static, Mode::Online, Mode::OnlineAutoscale}) {
            ClusterEngine cluster(
                modeConfig(h, cfg, mode, "fig23"));
            const ClusterResult r = cluster.run(
                *tc.trace, runWithMode(mode == Mode::Static
                                           ? RunMode::Static
                                           : RunMode::Online));
            const double goodput = r.slo.goodput(r.makespan);
            if (tc.trace == &diurnal) {
                if (mode == Mode::Static)
                    staticDiurnal = goodput;
                if (mode == Mode::OnlineAutoscale) {
                    autoDiurnal = goodput;
                    std::printf("---- diurnal, online+autoscale ----\n");
                    std::printf("%s", summarize(r).c_str());
                    printClassTable(r);
                    std::printf("\n");
                }
            } else {
                if (mode == Mode::Static)
                    staticBursty = goodput;
                if (mode == Mode::Online)
                    onlineBursty = goodput;
            }
            addModeRow(t, tc.name, mode, r);
        }
    }
    t.print();

    std::printf("\nslo_diurnal: online+autoscale goodput > static: %s "
                "(%.1f vs %.1f img/s)\n",
                autoDiurnal > staticDiurnal ? "yes" : "NO", autoDiurnal,
                staticDiurnal);
    std::printf("slo_bursty: online goodput >= static: %s "
                "(%.1f vs %.1f img/s)\n",
                onlineBursty >= staticBursty ? "yes" : "NO",
                onlineBursty, staticBursty);
    return 0;
}
