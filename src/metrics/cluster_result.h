/**
 * @file
 * Aggregate result of a cluster run.
 *
 * A ClusterResult merges the per-replica RunResults of one
 * ClusterEngine::run into cluster-wide metrics: total images served,
 * the cluster makespan (all replicas share one virtual clock, so it is
 * the latest replica completion), aggregate throughput, merged switch
 * counters and the combined latency distribution. Per-replica results
 * are kept for load-balance inspection.
 */

#ifndef COSERVE_METRICS_CLUSTER_RESULT_H
#define COSERVE_METRICS_CLUSTER_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/run_result.h"
#include "obs/metrics.h"

namespace coserve {

/** Whole-cluster summary of one run. */
struct ClusterResult
{
    std::string label;
    /** Routing policy display name. */
    std::string routing;

    /** Total images completed across replicas. */
    std::int64_t images = 0;
    /** Total inference executions across replicas. */
    std::int64_t inferences = 0;
    /** Latest replica completion on the shared virtual clock. */
    Time makespan = 0;
    /** Discrete events executed, summed over replicas. */
    std::uint64_t eventsExecuted = 0;
    /** Aggregate images per second (images / makespan). */
    double throughput = 0.0;

    /** Switch counters merged over all replicas. */
    SwitchCounters switches;

    /**
     * SLO accounting merged over all replicas, plus the admission
     * verdicts (the online coordinator, the one admission layer, may
     * reject or downgrade an arrival before any replica sees it).
     * Empty for classless traces.
     */
    SloStats slo;

    /**
     * Per-tier counters of the cluster's memory hierarchy: replica
     * tiers merged by name (counters summed; capacity and occupancy
     * summed across replicas), plus one entry per cluster-shared tier
     * (shared = true, appended by ClusterEngine with its global
     * counters).
     */
    std::vector<TierStats> tiers;

    /** End-to-end request latency (ms), merged over replicas. */
    Samples requestLatencyMs;

    /** Per-replica results, indexed by replica id. */
    std::vector<RunResult> replicas;

    /**
     * Images *completed on* each replica (load-balance inspection).
     * With work stealing a stolen chain counts at the thief that
     * finished it, not the replica it was originally routed to.
     */
    std::vector<std::int64_t> imagesPerReplica;

    /**
     * Work-stealing accounting (online mode only; all zero/empty in
     * static mode or with stealing off). Every stolen request leaves
     * exactly one replica and enters exactly one other, so
     * sum(stolenFromReplica) == sum(stolenToReplica) == stolenRequests.
     */
    std::int64_t stolenRequests = 0;
    /** Requests stolen *from* each replica's queues. */
    std::vector<std::int64_t> stolenFromReplica;
    /** Requests re-routed *to* each replica. */
    std::vector<std::int64_t> stolenToReplica;
    /**
     * True when the run had ClusterConfig::workStealing on. Reports
     * gate their steal section on this flag, not on the counters:
     * the autoscaler reuses the steal machinery to evacuate quiesced
     * replicas, and its drains must not masquerade as steals in
     * stealing-off output.
     */
    bool workStealingEnabled = false;

    /**
     * Autoscaler accounting (ClusterConfig::autoscale.enabled only).
     */
    bool autoscaleEnabled = false;
    /** Scale-up actions (replica activated). */
    std::int64_t autoscaleActivations = 0;
    /** Scale-down actions (replica quiesced = drained). */
    std::int64_t autoscaleQuiesces = 0;
    /** Requests evacuated off quiescing replicas. */
    std::int64_t autoscaleEvacuated = 0;
    /** Time-weighted mean number of active replicas over the run. */
    double avgActiveReplicas = 0.0;

    /**
     * Preemption / checkpoint / migration accounting
     * (ClusterConfig::preemption only; all zero and preemptionEnabled
     * false otherwise — reports gate their section on the flag).
     */
    bool preemptionEnabled = false;
    /** Deadline-rescue preemptions, summed over replicas. */
    std::int64_t preemptions = 0;
    /** Groups checkpointed (rescue, migrate-out or crash capture). */
    std::int64_t checkpointedGroups = 0;
    /** Checkpointed groups that resumed execution. */
    std::int64_t restoredGroups = 0;
    /** Checkpoint state bytes moved through replica channels. */
    std::int64_t checkpointBytes = 0;
    /** In-flight groups moved between replicas by the coordinator. */
    std::int64_t migratedGroups = 0;
    /** Requests inside those migrated groups. */
    std::int64_t migratedRequests = 0;
    /** Quiesces whose drain-to-idle completed (autoscale only). */
    std::int64_t quiesceDrains = 0;
    /** Total quiesce-to-idle drain time across those quiesces. */
    Time quiesceDrainTotal = 0;
    /** Worst single quiesce-to-idle drain. */
    Time quiesceDrainMax = 0;

    /**
     * Semantic digest over the coordinator's full decision stream
     * (routes, steals, admission verdicts, scale actions, faults —
     * see replay/decision_log.h). Equal digests mean equal schedules:
     * the determinism check that subsumes comparing aggregate metrics.
     */
    std::uint64_t decisionDigest = 0;
    /** Number of decisions in the stream. */
    std::int64_t decisionCount = 0;

    /**
     * Fault-injection accounting (RunOptions::faults only; all zero
     * and faultsInjected false for clean runs — reports gate their
     * failure section on the flag, like the steal/autoscale sections).
     */
    bool faultsInjected = false;
    /** Replica crashes applied. */
    std::int64_t crashesInjected = 0;
    /** Requests drained off crashed replicas and re-homed. */
    std::int64_t crashRehomed = 0;
    /** Drained requests no surviving replica could serve. */
    std::int64_t crashLost = 0;
    /** Straggler slowdown windows applied. */
    std::int64_t stragglersInjected = 0;
    /** Storage brownout windows applied. */
    std::int64_t brownoutsInjected = 0;

    /**
     * Host wall-clock seconds spent routing and executing the
     * replicas (threaded with private tiers, sequential with a shared
     * CPU tier or on the coordinator), for speedup reporting.
     */
    double wallSeconds = 0.0;

    /**
     * Frozen metrics-registry snapshot (obs/metrics.h): this result's
     * counter fields, the coordinator's counters and the derived and
     * host.* gauges, exported once when the run was collected. An
     * export only — the fields above stay the store.
     */
    obs::MetricsSnapshot metrics;

    /**
     * Load-imbalance factor: max over replicas of images routed,
     * divided by the balanced share (images / replicas). 1.0 is a
     * perfect split; only counts non-empty clusters.
     */
    double imbalance() const;
};

/**
 * Merge @p replicas into cluster-wide metrics. Replica makespans are
 * absolute times on the shared cluster clock (shards preserve arrival
 * times), so the cluster makespan is their maximum.
 */
ClusterResult aggregateClusterResult(std::string label,
                                     std::string routing,
                                     std::vector<RunResult> replicas);

/**
 * Merge one tier snapshot into a cluster-wide list: same-name entries
 * sum counters, capacity and occupancy; unseen names append.
 */
void mergeTierStats(std::vector<TierStats> &tiers, const TierStats &t);

/** @return the tier snapshot named @p name, or null when absent. */
const TierStats *findTierStats(const std::vector<TierStats> &tiers,
                               const std::string &name);

} // namespace coserve

#endif // COSERVE_METRICS_CLUSTER_RESULT_H
