/**
 * @file
 * Result records produced by a serving run.
 *
 * RunResult carries everything the benchmark harness needs to print the
 * paper's tables and figures: throughput (the paper's primary metric,
 * Section 5.1), expert-switch counts (Figure 14/16), latency samples
 * (Figure 19) and per-executor utilization.
 */

#ifndef COSERVE_METRICS_RUN_RESULT_H
#define COSERVE_METRICS_RUN_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "slo/slo_stats.h"
#include "util/stats.h"
#include "util/time.h"

namespace coserve {

/** Expert movement counters for one run (or one executor). */
struct SwitchCounters
{
    /** Loads served from SSD (storage + link legs). */
    std::int64_t loadsFromSsd = 0;
    /** Loads served from the CPU DRAM cache tier (link leg only). */
    std::int64_t loadsFromCache = 0;
    /** Of all loads, how many were issued by the prefetcher. */
    std::int64_t prefetchLoads = 0;
    /** Experts evicted from pools. */
    std::int64_t evictions = 0;
    /** Evictions demoted into the CPU cache tier. */
    std::int64_t demotions = 0;
    /** Total bytes moved into pools. */
    std::int64_t bytesLoaded = 0;

    /** Total expert switches (the paper's Figure 14 metric). */
    std::int64_t total() const { return loadsFromSsd + loadsFromCache; }

    /** Accumulate @p o into this. */
    void merge(const SwitchCounters &o);
};

/** Access and movement counters of one memory tier. */
struct TierCounters
{
    /** Accesses served by the tier (batch residency / load source). */
    std::int64_t hits = 0;
    /** Accesses the tier could not serve. */
    std::int64_t misses = 0;
    /** Experts evicted from the tier (demoted or dropped). */
    std::int64_t evictions = 0;
    /** Experts admitted (loads, demotions from above, preload). */
    std::int64_t insertions = 0;

    /** Accumulate @p o into this. */
    void merge(const TierCounters &o);
};

/**
 * Metrics snapshot of one memory tier (runtime/memory_tier.h): GPU
 * pool, CPU executor pool, CPU DRAM cache tier or disk, identified by
 * name. Cluster aggregation merges same-name snapshots across
 * replicas; shared tiers (one physical tier behind many replicas) are
 * appended once at cluster level instead.
 */
struct TierStats
{
    std::string name;
    /** Storage level display name: "gpu", "cpu-dram" or "disk". */
    std::string level;
    /** True for a cross-replica shared tier. */
    bool shared = false;
    /** Configured capacity; 0 means unbounded (disk). */
    std::int64_t capacityBytes = 0;
    /** Bytes resident at snapshot time. */
    std::int64_t usedBytes = 0;
    TierCounters counters;

    /** hits / (hits + misses); 0 when the tier saw no accesses. */
    double hitRate() const;
};

/** Per-executor summary. */
struct ExecutorStats
{
    std::string name;
    std::int64_t batches = 0;
    std::int64_t requests = 0;
    Time busyTime = 0;
    Time loadStall = 0;
    SwitchCounters switches;
    double avgBatchSize = 0.0;
};

/** Whole-run summary. */
struct RunResult
{
    std::string label;

    /** Images completed (classification chains finished). */
    std::int64_t images = 0;
    /** Total inference executions (classify + detect). */
    std::int64_t inferences = 0;
    /** First arrival to last completion. */
    Time makespan = 0;
    /** Discrete events executed by the engine's event queue. */
    std::uint64_t eventsExecuted = 0;
    /** Primary metric: images per second. */
    double throughput = 0.0;

    SwitchCounters switches;
    std::vector<ExecutorStats> executors;

    /**
     * Per-class SLO accounting (deadline hits / violations, latency
     * sketches; admission verdicts are the cluster's, see
     * ClusterResult::slo). Empty — and unprinted — for
     * classless traces, which keep pre-SLO output byte-identical.
     */
    SloStats slo;

    /**
     * Per-tier hit / miss / eviction counters of the run's memory
     * hierarchy (GPU pool, CPU pool, CPU DRAM cache tier, disk).
     * Cluster-shared tiers are excluded here — the engine does not own
     * them — and reported once in ClusterResult::tiers.
     */
    std::vector<TierStats> tiers;

    // Preemption / checkpoint counters (src/preempt/); all zero — and
    // unprinted — while PreemptionConfig is off.

    /** Deadline-rescue preemptions (group paused, parked locally). */
    std::int64_t preemptions = 0;
    /** Groups checkpointed (preempt, migrate-out or crash capture). */
    std::int64_t checkpointedGroups = 0;
    /** Checkpointed groups that resumed execution here. */
    std::int64_t restoredGroups = 0;
    /** Checkpoint state bytes moved through the channels. */
    std::int64_t checkpointBytes = 0;

    /** Per-request end-to-end latency (ms), arrival to completion. */
    Samples requestLatencyMs;
    /** Per-request pure execution latency (ms). */
    Samples inferenceLatencyMs;
    /** Host wall-clock cost of each scheduling decision (us). */
    Samples schedulingWallUs;

    /** Recorded executor assignment, for pre-scheduled replay runs. */
    std::vector<int> assignments;
};

} // namespace coserve

#endif // COSERVE_METRICS_RUN_RESULT_H
