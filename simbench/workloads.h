/**
 * @file
 * The four simbench workloads: boards, devices, traces, engine and
 * cluster configurations.
 *
 * Included by two translation units: simbench.cc, against the
 * simulator under test (src/), and reference.cc, against the frozen
 * reference copy (simbench/reference/src/, namespace renamed). Both
 * therefore build exactly the same workload from the same seed.
 * Everything here has internal linkage, so the two copies never meet.
 */

#ifndef SIMBENCH_WORKLOADS_H
#define SIMBENCH_WORKLOADS_H

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "baselines/systems.h"
#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "workload/generator.h"

namespace {

using namespace coserve;

enum class Kind
{
    BoardBacklog,
    Static4x,
    OnlineSlo,
    OnlinePreempt,
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    /** Trace seed used when --seed is absent; the pins apply to it. */
    std::uint64_t defaultSeed;
    /**
     * Host µs per request of the reference copy's run on a quiet host
     * (about its fastest repeats on a 2.1 GHz Xeon, 4-vCPU KVM
     * guest): the scale host_us_per_request is reported in.
     */
    double referenceUsPerRequest;
    /** The same for set-up seconds: the scale of setup_s. */
    double referenceSetupS;
};

const WorkloadSpec kWorkloads[] = {
    {"board_a_backlog", Kind::BoardBacklog, 42, 0.85, 0.014},
    {"static_4x", Kind::Static4x, 42, 0.76, 0.015},
    {"online_slo_diurnal", Kind::OnlineSlo, 0x510D, 8.5, 0.009},
    {"online_preempt_crash", Kind::OnlinePreempt, 0x9F25, 2.9, 0.025},
};

/** The workload called @p name, or null. */
const WorkloadSpec *
findWorkload(const char *name)
{
    for (const WorkloadSpec &w : kWorkloads) {
        if (std::strcmp(name, w.name) == 0)
            return &w;
    }
    return nullptr;
}

/** Images of board A at the 4 ms cadence (Task A2, lengthened). */
constexpr std::size_t kBoardImages = 300000;
/** Virtual length of the diurnal SLO trace. */
constexpr double kSloSeconds = 2400.0;
/** Virtual length of the preemption trace; the crash is at 1/4. */
constexpr double kPreemptSeconds = 2400.0;

bool
isCluster(Kind k)
{
    return k != Kind::BoardBacklog;
}

bool
isOnline(Kind k)
{
    return k == Kind::OnlineSlo || k == Kind::OnlinePreempt;
}

std::size_t
replicaCount(Kind k)
{
    return k == Kind::BoardBacklog ? 1 : k == Kind::OnlinePreempt ? 3 : 4;
}

/** The Figure 25 dense board: experts stay resident, compute-bound. */
BoardSpec
denseBoard()
{
    BoardSpec s;
    s.name = "simbench-dense";
    s.numComponents = 36;
    s.numDetectionExperts = 6;
    s.headFraction = 0.4;
    s.headMass = 0.85;
    s.seed = 0x25;
    return s;
}

/** The Table 1 NUMA node derated to 35% compute (Figure 25's edge). */
DeviceSpec
edgeDevice()
{
    DeviceSpec dev = numaRtx3080Ti();
    dev.name = "NUMA edge (RTX3080Ti @ 35% shared)";
    dev.gpu.computeScale = 0.35;
    return dev;
}

BoardSpec
workloadBoard(Kind kind)
{
    return kind == Kind::OnlinePreempt ? denseBoard() : boardA();
}

DeviceSpec
workloadDevice(Kind kind)
{
    return kind == Kind::OnlinePreempt ? edgeDevice() : numaRtx3080Ti();
}

Trace
generateWorkloadTrace(Kind kind, const CoEModel &model,
                      std::uint64_t seed, double scale)
{
    switch (kind) {
      case Kind::BoardBacklog:
      case Kind::Static4x: {
          TaskSpec task = taskA2();
          task.name = "simbench";
          task.numImages = static_cast<std::size_t>(
              std::llround(static_cast<double>(kBoardImages) * scale));
          task.seed = seed;
          return generateTrace(model, task);
      }
      case Kind::OnlineSlo: {
          TenantSpec interactive;
          interactive.name = "interactive";
          interactive.cls = RequestClass::Interactive;
          interactive.ratePerSec = 12.0;
          interactive.latencyBudget = milliseconds(350);
          interactive.diurnalAmplitude = 0.85;
          interactive.diurnalPeriod = seconds(60);
          TenantSpec batch;
          batch.name = "batch";
          batch.cls = RequestClass::Batch;
          batch.ratePerSec = 8.0;
          batch.latencyBudget = seconds(2);
          batch.diurnalAmplitude = 0.6;
          batch.diurnalPeriod = seconds(60);
          TenantSpec bestEffort;
          bestEffort.name = "best-effort";
          bestEffort.cls = RequestClass::BestEffort;
          bestEffort.ratePerSec = 3.0;
          bestEffort.arrivals = ArrivalProcess::MMPP;
          bestEffort.mmppBurstFactor = 6.0;
          return generateSloTrace(
              model, {interactive, batch, bestEffort},
              seconds(kSloSeconds * scale), seed);
      }
      case Kind::OnlinePreempt: {
          TenantSpec interactive;
          interactive.name = "interactive";
          interactive.cls = RequestClass::Interactive;
          interactive.ratePerSec = 15.0;
          interactive.latencyBudget = milliseconds(500);
          interactive.arrivals = ArrivalProcess::MMPP;
          interactive.mmppBurstFactor = 6.0;
          interactive.diurnalAmplitude = 0.8;
          interactive.diurnalPeriod = seconds(60);
          TenantSpec batch;
          batch.name = "batch";
          batch.cls = RequestClass::Batch;
          batch.ratePerSec = 25.0;
          batch.latencyBudget = seconds(20);
          return generateSloTrace(model, {interactive, batch},
                                  seconds(kPreemptSeconds * scale),
                                  seed);
      }
    }
    std::abort();
}

/** Engine configuration of every replica. */
EngineConfig
engineConfig(Kind kind, Harness &harness, const Trace &trace)
{
    const CoServeContext &ctx = harness.context();
    if (kind != Kind::OnlinePreempt)
        return harness.makeConfig(SystemKind::CoServeCasual, trace, {});
    // One GPU + one CPU executor, maximum expert residency, the CPU
    // DRAM cache tier doubling as checkpoint parking.
    const auto bounds = gpuExpertCountBounds(ctx, 1, 1);
    EngineConfig cfg = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 1, 1, bounds.second),
        "simbench-preempt");
    cfg.cpuCacheTier = true;
    cfg.cpuCacheBytes = ctx.device().cpuMemoryBytes / 2;
    return cfg;
}

ClusterConfig
clusterConfig(Kind kind, const CoServeContext &ctx, const EngineConfig &cfg)
{
    ClusterConfig cc = homogeneousCluster(
        ctx, cfg, static_cast<int>(replicaCount(kind)),
        RoutingPolicy::LeastLoaded, "simbench");
    if (isOnline(kind)) {
        cc.workStealing.enabled = true;
        cc.admission.enabled = true;
        cc.admission.slack = 1.25;
        cc.autoscale.enabled = true;
        cc.autoscale.interval = seconds(1);
        cc.autoscale.cooldown = seconds(2);
    }
    if (kind == Kind::OnlinePreempt) {
        cc.autoscale.minReplicas = 1;
        cc.autoscale.startReplicas = 3;
        cc.preemption.enabled = true;
        cc.preemption.minRunQuantum = milliseconds(20);
        cc.preemption.maxPreemptionsPerGroup = 2;
        cc.preemption.migration = true;
        cc.preemption.migrationMinRemaining = milliseconds(20);
    }
    return cc;
}

RunOptions
runOptions(Kind kind, const obs::TelemetryConfig &telemetry)
{
    RunOptions opts =
        runWithMode(isOnline(kind) ? RunMode::Online : RunMode::Static);
    if (kind == Kind::OnlinePreempt) {
        // One replica of three dies a quarter of the way in; the two
        // survivors keep the backlog bounded (see README.md).
        opts.faults.crashes.push_back({2, seconds(kPreemptSeconds / 4.0)});
    }
    opts.telemetry = telemetry;
    return opts;
}

} // namespace

#endif // SIMBENCH_WORKLOADS_H
