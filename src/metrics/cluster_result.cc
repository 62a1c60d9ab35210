#include "metrics/cluster_result.h"

#include <algorithm>

namespace coserve {

double
ClusterResult::imbalance() const
{
    if (imagesPerReplica.empty() || images == 0)
        return 1.0;
    const std::int64_t maxImages = *std::max_element(
        imagesPerReplica.begin(), imagesPerReplica.end());
    const double balanced =
        static_cast<double>(images) /
        static_cast<double>(imagesPerReplica.size());
    return balanced > 0 ? static_cast<double>(maxImages) / balanced : 1.0;
}

const TierStats *
findTierStats(const std::vector<TierStats> &tiers,
              const std::string &name)
{
    for (const TierStats &t : tiers) {
        if (t.name == name)
            return &t;
    }
    return nullptr;
}

void
mergeTierStats(std::vector<TierStats> &tiers, const TierStats &t)
{
    for (TierStats &existing : tiers) {
        if (existing.name == t.name) {
            existing.counters.merge(t.counters);
            existing.capacityBytes += t.capacityBytes;
            existing.usedBytes += t.usedBytes;
            return;
        }
    }
    tiers.push_back(t);
}

ClusterResult
aggregateClusterResult(std::string label, std::string routing,
                       std::vector<RunResult> replicas)
{
    ClusterResult out;
    out.label = std::move(label);
    out.routing = std::move(routing);

    std::vector<const Samples *> latencies;
    for (const RunResult &r : replicas) {
        latencies.push_back(&r.requestLatencyMs);
        out.images += r.images;
        out.inferences += r.inferences;
        out.preemptions += r.preemptions;
        out.checkpointedGroups += r.checkpointedGroups;
        out.restoredGroups += r.restoredGroups;
        out.checkpointBytes += r.checkpointBytes;
        out.eventsExecuted += r.eventsExecuted;
        out.makespan = std::max(out.makespan, r.makespan);
        out.switches.merge(r.switches);
        out.slo.merge(r.slo);
        for (const TierStats &t : r.tiers)
            mergeTierStats(out.tiers, t);
        out.imagesPerReplica.push_back(r.images);
    }
    out.requestLatencyMs.appendAll(latencies);
    out.throughput = out.makespan > 0
                         ? static_cast<double>(out.images) /
                               toSeconds(out.makespan)
                         : 0.0;
    out.replicas = std::move(replicas);
    return out;
}

} // namespace coserve
