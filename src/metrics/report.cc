#include "metrics/report.h"

#include <iostream>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/strutil.h"
#include "util/table.h"
#include "util/time.h"

namespace coserve {

namespace {

void
appendSloLines(std::ostringstream &os, const SloStats &slo,
               Time makespan)
{
    // Gated on activity: classless runs print nothing here, keeping
    // pre-SLO output byte-identical.
    if (!slo.any())
        return;
    os << "  SLO goodput " << formatDouble(slo.goodput(makespan), 1)
       << " img/s, violation rate " << formatPercent(slo.violationRate())
       << " (" << slo.sloMet() << " met, " << slo.violated()
       << " violated, " << slo.rejected() << " rejected, "
       << slo.downgraded() << " downgraded)\n";
    for (std::size_t i = 0; i < slo.perClass.size(); ++i) {
        const SloClassStats &c = slo.perClass[i];
        if (c.completed == 0 && c.rejected == 0 && c.downgraded == 0)
            continue;
        os << "    class " << toString(static_cast<RequestClass>(i))
           << ": " << c.completed << " done, p50/p95/p99 "
           << formatDouble(c.latencyMs.quantile(0.50), 1) << "/"
           << formatDouble(c.latencyMs.quantile(0.95), 1) << "/"
           << formatDouble(c.latencyMs.quantile(0.99), 1) << " ms, "
           << c.violated << " violated, " << c.rejected
           << " rejected, " << c.downgraded << " downgraded\n";
    }
}

void
appendTierLines(std::ostringstream &os,
                const std::vector<TierStats> &tiers)
{
    for (const TierStats &t : tiers) {
        os << "  tier " << t.name << " (" << t.level
           << (t.shared ? ", shared" : "") << "): hit rate "
           << formatPercent(t.hitRate()) << " (" << t.counters.hits
           << "/" << t.counters.hits + t.counters.misses << "), "
           << t.counters.evictions << " evictions, "
           << formatBytes(t.usedBytes) << " of "
           << (t.capacityBytes > 0 ? formatBytes(t.capacityBytes)
                                   : std::string("unbounded"))
           << " used\n";
    }
}

} // namespace

std::string
summarize(const RunResult &r)
{
    std::ostringstream os;
    os << r.label << ": " << r.images << " images ("
       << r.inferences << " inferences) in "
       << formatTime(r.makespan) << "\n";
    os << "  throughput " << formatDouble(r.throughput, 1)
       << " img/s, " << r.switches.total() << " expert switches ("
       << r.switches.loadsFromSsd << " SSD, "
       << r.switches.loadsFromCache << " CPU-DRAM, "
       << r.switches.prefetchLoads << " prefetched), "
       << formatBytes(r.switches.bytesLoaded) << " moved\n";
    os << "  request latency p50/p99 "
       << formatDouble(r.requestLatencyMs.percentile(50), 1) << "/"
       << formatDouble(r.requestLatencyMs.percentile(99), 1)
       << " ms, scheduling "
       << formatDouble(r.schedulingWallUs.mean(), 2) << " us/decision\n";
    appendSloLines(os, r.slo, r.makespan);
    appendTierLines(os, r.tiers);
    return os.str();
}

std::string
summarize(const ClusterResult &r)
{
    std::ostringstream os;
    os << r.label << " [" << r.routing << "]: " << r.images
       << " images (" << r.inferences << " inferences) in "
       << formatTime(r.makespan) << "\n";
    os << "  throughput " << formatDouble(r.throughput, 1) << " img/s, "
       << r.switches.total() << " expert switches, imbalance "
       << formatDouble(r.imbalance(), 2);
    // Gated on the feature flag, not the counters: the autoscaler's
    // quiesce-evacuations also ride the steal machinery, and must not
    // print a steal section into stealing-off output.
    if (r.workStealingEnabled && r.stolenRequests > 0)
        os << ", " << r.stolenRequests << " requests stolen";
    os << "\n";
    if (r.autoscaleEnabled) {
        os << "  autoscale: " << r.autoscaleActivations
           << " activations, " << r.autoscaleQuiesces << " quiesces, "
           << r.autoscaleEvacuated << " requests evacuated, avg "
           << formatDouble(r.avgActiveReplicas, 2)
           << " active replicas\n";
    }
    // Gated on the preemption flag like the steal/autoscale sections:
    // legacy (preemption-off) reports stay byte-identical.
    if (r.preemptionEnabled) {
        os << "  preemption: " << r.preemptions << " deadline rescues, "
           << r.checkpointedGroups << " groups checkpointed / "
           << r.restoredGroups << " restored, "
           << formatBytes(r.checkpointBytes) << " of state moved";
        if (r.migratedGroups > 0) {
            os << ", " << r.migratedGroups << " groups ("
               << r.migratedRequests << " requests) migrated";
        }
        os << "\n";
        if (r.quiesceDrains > 0) {
            os << "  quiesce drain: " << r.quiesceDrains
               << " completed, avg "
               << formatTime(r.quiesceDrainTotal / r.quiesceDrains)
               << ", max " << formatTime(r.quiesceDrainMax) << "\n";
        }
    }
    // Like the steal/autoscale sections: gated on fault activity, so
    // clean runs keep their pre-fault-injection output byte-identical.
    if (r.faultsInjected) {
        os << "  faults: " << r.crashesInjected << " crash"
           << (r.crashesInjected == 1 ? "" : "es") << " ("
           << r.crashRehomed << " requests re-homed, " << r.crashLost
           << " lost), " << r.stragglersInjected << " straggler + "
           << r.brownoutsInjected << " brownout windows\n";
    }
    appendSloLines(os, r.slo, r.makespan);
    for (std::size_t i = 0; i < r.replicas.size(); ++i) {
        const RunResult &rep = r.replicas[i];
        os << "  replica " << i << ": " << rep.images << " images, "
           << formatDouble(rep.throughput, 1) << " img/s, "
           << rep.switches.total() << " switches";
        const bool haveSteals = r.workStealingEnabled &&
                                i < r.stolenFromReplica.size() &&
                                i < r.stolenToReplica.size();
        if (haveSteals && (r.stolenFromReplica[i] > 0 ||
                           r.stolenToReplica[i] > 0)) {
            os << ", stolen from " << r.stolenFromReplica[i]
               << " / re-routed to " << r.stolenToReplica[i];
        }
        os << "\n";
    }
    appendTierLines(os, r.tiers);
    return os.str();
}

std::string
summarizeExecutors(const RunResult &r)
{
    std::ostringstream os;
    Table t({"Executor", "Batches", "Requests", "Avg batch", "Busy",
             "Load stall", "Switches"});
    for (const ExecutorStats &es : r.executors) {
        t.addRow({es.name, std::to_string(es.batches),
                  std::to_string(es.requests),
                  formatDouble(es.avgBatchSize, 1),
                  formatTime(es.busyTime), formatTime(es.loadStall),
                  std::to_string(es.switches.total())});
    }
    t.print(os);
    return os.str();
}

void
printComparison(const std::vector<RunResult> &results, std::ostream &os)
{
    if (results.empty())
        return;
    const RunResult &base = results.front();
    Table t({"System", "img/s", "Speedup", "Switches",
             "Switch reduction", "Makespan"});
    for (const RunResult &r : results) {
        const double speedup =
            base.throughput > 0 ? r.throughput / base.throughput : 0.0;
        const double reduction =
            base.switches.total() > 0
                ? 1.0 - static_cast<double>(r.switches.total()) /
                            static_cast<double>(base.switches.total())
                : 0.0;
        t.addRow({r.label, formatDouble(r.throughput, 1),
                  formatDouble(speedup, 2) + "x",
                  std::to_string(r.switches.total()),
                  formatPercent(reduction), formatTime(r.makespan)});
    }
    t.print(os);
}

void
printComparison(const std::vector<RunResult> &results)
{
    printComparison(results, std::cout);
}

void
exportClusterMetrics(const ClusterResult &r,
                     obs::MetricsRegistry &registry)
{
    const std::pair<const char *, std::int64_t> counters[] = {
        {"cluster.images", r.images},
        {"cluster.inferences", r.inferences},
        {"switch.loads_ssd", r.switches.loadsFromSsd},
        {"switch.loads_cache", r.switches.loadsFromCache},
        {"switch.prefetch_loads", r.switches.prefetchLoads},
        {"switch.evictions", r.switches.evictions},
        {"switch.demotions", r.switches.demotions},
        {"switch.bytes_loaded", r.switches.bytesLoaded},
        {"preempt.rescues", r.preemptions},
        {"preempt.checkpointed_groups", r.checkpointedGroups},
        {"preempt.restored_groups", r.restoredGroups},
        {"preempt.checkpoint_bytes", r.checkpointBytes},
    };
    for (const auto &[name, value] : counters)
        registry.counter(name).add(value);
    const auto setGauge = [&registry](const std::string &name,
                                      double v) {
        registry.gauge(name).set(v);
    };
    setGauge("cluster.throughput", r.throughput);
    setGauge("cluster.makespan_ns", static_cast<double>(r.makespan));
    setGauge("cluster.imbalance", r.imbalance());
    setGauge("cluster.events_executed",
             static_cast<double>(r.eventsExecuted));
    setGauge("cluster.decision_count",
             static_cast<double>(r.decisionCount));
    setGauge("cluster.wall_seconds", r.wallSeconds);
    if (r.autoscaleEnabled) {
        setGauge("cluster.avg_active_replicas", r.avgActiveReplicas);
    }
    if (r.preemptionEnabled) {
        setGauge("cluster.quiesce_drain_total_ns",
                 static_cast<double>(r.quiesceDrainTotal));
        setGauge("cluster.quiesce_drain_max_ns",
                 static_cast<double>(r.quiesceDrainMax));
    }
    if (r.slo.any()) {
        setGauge("slo.goodput_img_per_s", r.slo.goodput(r.makespan));
        setGauge("slo.violation_rate", r.slo.violationRate());
        setGauge("slo.met", static_cast<double>(r.slo.sloMet()));
        setGauge("slo.violated",
                 static_cast<double>(r.slo.violated()));
        setGauge("slo.rejected",
                 static_cast<double>(r.slo.rejected()));
        setGauge("slo.downgraded",
                 static_cast<double>(r.slo.downgraded()));
        for (std::size_t i = 0; i < r.slo.perClass.size(); ++i) {
            const SloClassStats &c = r.slo.perClass[i];
            if (c.completed == 0 && c.rejected == 0 &&
                c.downgraded == 0)
                continue;
            const std::string p =
                std::string("slo.") +
                toString(static_cast<RequestClass>(i)) + ".";
            setGauge(p + "completed",
                     static_cast<double>(c.completed));
            setGauge(p + "p50_ms", c.latencyMs.quantile(0.50));
            setGauge(p + "p95_ms", c.latencyMs.quantile(0.95));
            setGauge(p + "p99_ms", c.latencyMs.quantile(0.99));
            setGauge(p + "violated", static_cast<double>(c.violated));
            setGauge(p + "rejected", static_cast<double>(c.rejected));
            setGauge(p + "downgraded",
                     static_cast<double>(c.downgraded));
        }
    }
    for (const TierStats &t : r.tiers) {
        const std::string p = "tier." + t.name + ".";
        setGauge(p + "hit_rate", t.hitRate());
        setGauge(p + "hits", static_cast<double>(t.counters.hits));
        setGauge(p + "accesses",
                 static_cast<double>(t.counters.hits +
                                     t.counters.misses));
        setGauge(p + "evictions",
                 static_cast<double>(t.counters.evictions));
        setGauge(p + "used_bytes", static_cast<double>(t.usedBytes));
        setGauge(p + "capacity_bytes",
                 static_cast<double>(t.capacityBytes));
    }
}

} // namespace coserve
