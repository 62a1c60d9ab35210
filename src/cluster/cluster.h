/**
 * @file
 * Cluster serving layer: N serving-engine replicas behind a router.
 *
 * A ClusterEngine owns N replica descriptions — each with its own
 * DeviceSpec, offline CoServeContext, dependency-aware scheduler and
 * two-stage eviction policy, assembled through makeCoServeEngine — and
 * a cluster-level dispatcher (cluster/router.h). One entry point:
 *
 *     ClusterResult r = engine.run(trace, opts);
 *
 * RunOptions selects the execution mode (static pre-routing, the
 * default, or online lockstep coordination), optional decision-log
 * recording or replay, and an optional fault plan
 * (replay/fault_plan.h). The two modes:
 *
 *  - static: route every arrival to one replica up front, shard the
 *    trace, and give each replica its shard as planned arrivals (each
 *    keeps its own discrete-event queue; all stay on one shared
 *    virtual clock). The replicas run on their own between
 *    coordination points — a fault action, an epoch sample, and an
 *    arrival pinned to a replica that has since crashed, which is
 *    re-homed at its arrival time — and the per-replica RunResults
 *    merge at the end. Replicas with private tiers share no mutable
 *    state: each plans its shard on its own std::thread, and they run
 *    one per thread up to each fault action and the end (epochs that
 *    end at a sample are too short to pay for a thread), the caller
 *    noting the pinned routes meanwhile until a crash; replicas
 *    sharing a CPU tier run in replica order on the caller's thread,
 *    so the tier's population order — and every result — is
 *    reproducible;
 *  - online: a coordinator steps all replicas in lockstep on the
 *    shared virtual clock, routes each arrival at its arrival time
 *    from live replica state, and — per ClusterConfig policy groups —
 *    steals work, admits against SLOs, and autoscales.
 *
 * Every cluster decision is folded into a 64-bit semantic digest
 * (ClusterResult::decisionDigest) and can be recorded to a compact
 * binary log and replayed with forced-divergence checking — see
 * replay/decision_log.h. Fault plans (replica crash, straggler,
 * storage brownout) run in either mode; a crash re-homes the dead
 * replica's queued and in-flight work through the evacuation machinery.
 *
 * This is the first scale-out axis on top of the paper's single-engine
 * system: the paper's techniques (§4.2–§4.4) act within a replica; the
 * router decides *which* replica, exactly like a production front-end
 * in front of homogeneous model servers.
 */

#ifndef COSERVE_CLUSTER_CLUSTER_H
#define COSERVE_CLUSTER_CLUSTER_H

#include <string>
#include <vector>

#include "cluster/router.h"
#include "core/coserve.h"
#include "metrics/cluster_result.h"
#include "obs/telemetry.h"
#include "preempt/preempt.h"
#include "replay/fault_plan.h"
#include "workload/trace.h"

namespace coserve {

/**
 * Elastic-autoscaler knobs (online mode only). The coordinator runs a
 * control loop on the shared virtual clock: every `interval` it
 * compares the window's SLO violation rate and per-replica backlog
 * against the targets and activates one more replica (scale-up) or
 * quiesces one (scale-down: stop routing to it, evacuate its queued
 * requests to active siblings through the steal machinery, let its
 * in-flight work drain). Serving at night with fewer replicas
 * concentrates request groups — fewer expert switches — while daytime
 * peaks get the full cluster.
 */
struct AutoscaleConfig
{
    bool enabled = false;
    /** Control period on the virtual clock. */
    Time interval = seconds(2);
    /** Scale up when the window's violation rate exceeds this. */
    double violationHigh = 0.05;
    /** Allow scale-down only when it is below this. */
    double violationLow = 0.01;
    /** Scale up when queued requests per active replica exceed this. */
    std::size_t backlogHigh = 8;
    /** Allow scale-down only at/below this backlog per active replica. */
    std::size_t backlogLow = 2;
    /** Never quiesce below this many active replicas. */
    std::size_t minReplicas = 1;
    /** Replicas active at start; 0 means minReplicas. */
    std::size_t startReplicas = 0;
    /**
     * Minimum virtual time after a scale action before the next
     * *quiesce* (anti-flap). Activations are never delayed:
     * underprovision costs violations immediately, overprovision
     * only efficiency.
     */
    Time cooldown = seconds(4);
};

/**
 * Work-stealing policy (online mode only): when a replica's event
 * queue goes idle while a sibling still has more than backlogThreshold
 * queued-but-unstarted requests, the coordinator re-routes half of the
 * sibling's queued backlog to the idle replica. Counted in
 * ClusterResult::stolenRequests / stolenFrom/ToReplica.
 */
struct StealPolicy
{
    bool enabled = false;
    /** Backlog a sibling must exceed before an idle replica steals. */
    std::size_t backlogThreshold = 4;
    /**
     * The sibling's predicted backlog *time* (sum of its queues'
     * scheduler estimates) must also exceed this before stealing: the
     * thief almost always pays one demand load (~100 ms) for its
     * loot, so the stolen half-backlog must amortize that load many
     * times over or the steal slows the cluster down. ~2 s is the
     * empirical break-even on the fig22 skewed sweep.
     */
    Time minBacklog = seconds(2);
};

/**
 * Shared host-DRAM policy: share one mutex-guarded CPU DRAM tier
 * (runtime/memory_tier.h SharedCpuTier) across all replicas — one
 * physical host DRAM behind the cluster — so an expert evicted by one
 * replica is a DRAM hit for its siblings. Replaces each replica's
 * private cache tier. A static run with a shared tier executes its
 * replicas in replica order on the caller's thread, between fault
 * actions too, so the tier's population order does not depend on
 * host thread scheduling.
 */
struct SharedCpuPolicy
{
    bool enabled = false;
    /**
     * Capacity of the shared tier (>= 0); 0 derives the sum of the
     * replicas' cpuCacheBytes (same total DRAM as the private split).
     */
    std::int64_t bytes = 0;
};

/** One replica of the cluster. */
struct ReplicaSpec
{
    /**
     * Offline products for the replica's device (not owned; must
     * outlive the cluster). Replicas on identical devices may share
     * one context; heterogeneous clusters carry one context per
     * device kind, each with its own DeviceSpec (cfg.device must
     * match ctx->device()).
     */
    const CoServeContext *ctx = nullptr;
    /** Resolved engine configuration for this replica. */
    EngineConfig cfg;
};

/** Execution mode of one cluster run. */
enum class RunMode
{
    /**
     * Pre-route the whole trace, shard, and run the replicas
     * independently between fault actions and epoch samples.
     */
    Static,
    /** Lockstep coordinator with live routing. */
    Online,
};

/**
 * Per-run options for ClusterEngine::run: mode selection, decision-log
 * recording / replay, and fault injection. Default-constructed options
 * run a clean static run (no faults, no record/replay).
 */
struct RunOptions
{
    RunMode mode = RunMode::Static;
    /**
     * Write the decision log here after the run ("" = don't). Only a
     * recording run keeps a record per decision; any other run keeps
     * just the decision digest and count.
     */
    std::string recordPath;
    /**
     * Verify this run against a previously recorded decision log,
     * hard-failing (exit 1) on the first divergence ("" = off).
     */
    std::string replayPath;
    /** Failures to inject, on the virtual clock (empty = clean run). */
    FaultPlan faults;
    /**
     * Deterministic observability (obs/telemetry.h): virtual-time span
     * tracing to Chrome trace-event JSON, metrics-registry export and
     * epoch sampling to CSV. Disabled by default — the null-sink path
     * leaves every sim metric and decision digest byte-identical.
     */
    obs::TelemetryConfig telemetry;
};

/** @return options selecting @p mode (call-site convenience). */
inline RunOptions
runWithMode(RunMode mode)
{
    RunOptions opts;
    opts.mode = mode;
    return opts;
}

/** Fully-resolved cluster description. */
struct ClusterConfig
{
    std::string label = "cluster";
    RoutingPolicy routing = RoutingPolicy::LeastLoaded;
    /** Cluster-shared CPU DRAM tier policy. */
    SharedCpuPolicy sharedCpu;
    /** Work stealing between replicas (online mode only). */
    StealPolicy workStealing;
    /**
     * Cluster-level SLO admission (online mode only): before routing,
     * the coordinator predicts the best achievable completion across
     * active capable replicas from the live load views and rejects or
     * downgrades arrivals that cannot make their deadline anywhere —
     * upstream of (and cheaper than) the per-replica admission in
     * EngineConfig::admission. A replica's prediction is
     * LiveCostModel::quote() (router.h), the estimate LeastLoaded
     * routes with, plus detectAdd() for the detect child the chain
     * may spawn. Off by default.
     */
    AdmissionConfig admission;
    /** Elastic autoscaling (online mode only); see AutoscaleConfig. */
    AutoscaleConfig autoscale;
    /**
     * Preemptive checkpoint/restore and live migration
     * (preempt/preempt.h). `enabled` turns on per-replica deadline
     * rescue (any mode); `migration` additionally lets the
     * coordinator move checkpointed in-flight groups between capable
     * replicas — in the steal path, on autoscaler quiesce (no more
     * waiting out the longest batch) and on crash evacuation (resume
     * from the last step-boundary checkpoint instead of re-running;
     * the only migration a static run makes). Copied into every
     * replica's EngineConfig; off by default.
     */
    PreemptionConfig preemption;
    std::vector<ReplicaSpec> replicas;

    /**
     * Validate this configuration against @p opts: human-readable
     * errors for every inconsistency (online-only policies in a static
     * run, autoscale bounds, shared-tier capacity, fault-plan bounds,
     * ...) instead of silent misbehavior. Empty means runnable;
     * ClusterEngine::run() rejects configs with errors.
     */
    std::vector<std::string> validate(const RunOptions &opts = {}) const;
};

/** Single-use cluster instance. */
class ClusterEngine
{
  public:
    /** @param cfg resolved cluster configuration (>= 1 replica). */
    explicit ClusterEngine(ClusterConfig cfg);

    ClusterEngine(const ClusterEngine &) = delete;
    ClusterEngine &operator=(const ClusterEngine &) = delete;

    /** @return number of replicas. */
    std::size_t numReplicas() const { return cfg_.replicas.size(); }

    /** @return the cluster configuration. */
    const ClusterConfig &config() const { return cfg_; }

    /**
     * Route @p trace without running it: one replica index per
     * arrival, in arrival order. Deterministic — a fresh router is
     * built per call. Exposed for tests and dispatch inspection.
     */
    std::vector<std::size_t> routeTrace(const Trace &trace) const;

    /**
     * Serve @p trace to completion under @p opts; callable once per
     * cluster. fatal()s (exit 1) when validate(opts) reports errors,
     * and on the first divergence in replay mode.
     */
    ClusterResult run(const Trace &trace, const RunOptions &opts);

  private:
    ClusterConfig cfg_;
    bool ran_ = false;
};

/**
 * Convenience: a homogeneous cluster of @p numReplicas replicas, all
 * sharing @p ctx (one device model) and running copies of @p cfg.
 */
ClusterConfig homogeneousCluster(const CoServeContext &ctx,
                                 const EngineConfig &cfg,
                                 int numReplicas, RoutingPolicy routing,
                                 std::string label = "cluster");

/**
 * Convenience: a heterogeneous cluster from explicit (context, config)
 * replica specs — mixed devices, one CoE model cluster-wide. The
 * routers see each replica's own DeviceSpec, so least-loaded balancing
 * accounts for per-device speed differences.
 */
ClusterConfig heterogeneousCluster(std::vector<ReplicaSpec> replicas,
                                   RoutingPolicy routing,
                                   std::string label = "hetero-cluster");

} // namespace coserve

#endif // COSERVE_CLUSTER_CLUSTER_H
