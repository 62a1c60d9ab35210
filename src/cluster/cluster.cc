#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "metrics/report.h"
#include "replay/decision_log.h"
#include "slo/admission.h"
#include "util/logging.h"
#include "util/walltime.h"

namespace coserve {

namespace {

/** One scheduled fault application, flattened from a FaultPlan. */
struct FaultAction
{
    Time time = 0;
    DecisionKind kind = DecisionKind::Crash;
    std::size_t replica = 0;
    /** Straggler slowdown / brownout bandwidth factor. */
    double factor = 1.0;
};

/** Factor encoded in parts-per-million for decision records. */
std::uint64_t
ppm(double factor)
{
    return static_cast<std::uint64_t>(std::llround(factor * 1e6));
}

/**
 * Flatten a plan into one virtual-time-ordered action list. Same-time
 * actions order by (kind, replica), so the schedule — and therefore
 * the decision digest — is independent of the plan's vector order.
 */
std::vector<FaultAction>
flattenFaults(const FaultPlan &plan)
{
    std::vector<FaultAction> out;
    for (const ReplicaCrash &c : plan.crashes)
        out.push_back({c.at, DecisionKind::Crash, c.replica, 0.0});
    for (const Straggler &s : plan.stragglers) {
        out.push_back(
            {s.from, DecisionKind::StragglerOn, s.replica, s.slowdown});
        out.push_back(
            {s.to, DecisionKind::StragglerOff, s.replica, 1.0});
    }
    for (const StorageBrownout &b : plan.brownouts) {
        out.push_back(
            {b.from, DecisionKind::BrownoutOn, b.replica, b.factor});
        out.push_back(
            {b.to, DecisionKind::BrownoutOff, b.replica, 1.0});
    }
    std::sort(out.begin(), out.end(),
              [](const FaultAction &x, const FaultAction &y) {
                  if (x.time != y.time)
                      return x.time < y.time;
                  if (x.kind != y.kind)
                      return x.kind < y.kind;
                  return x.replica < y.replica;
              });
    return out;
}

/** Report interval-window problems of [from, to) fault windows. */
template <typename W>
void
checkWindows(const std::vector<W> &windows, std::size_t n,
             const char *what, std::vector<std::string> &errors)
{
    for (const W &w : windows) {
        if (w.replica >= n) {
            errors.push_back(std::string("fault plan: ") + what +
                             " replica " + std::to_string(w.replica) +
                             " out of range (cluster has " +
                             std::to_string(n) + ")");
        }
        if (w.from < 0 || w.to <= w.from) {
            errors.push_back(std::string("fault plan: ") + what +
                             " window [" + std::to_string(w.from) +
                             ", " + std::to_string(w.to) +
                             ") must be ordered and non-negative");
        }
    }
    // Overlapping windows on one replica would restore full speed at
    // the first window's end, silently truncating the second.
    std::vector<std::pair<std::size_t, std::pair<Time, Time>>> spans;
    for (const W &w : windows)
        spans.push_back({w.replica, {w.from, w.to}});
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].first == spans[i - 1].first &&
            spans[i].second.first < spans[i - 1].second.second) {
            errors.push_back(std::string("fault plan: overlapping ") +
                             what + " windows on replica " +
                             std::to_string(spans[i].first));
        }
    }
}

} // namespace

std::vector<std::string>
ClusterConfig::validate(const RunOptions &opts) const
{
    std::vector<std::string> errors;
    const std::size_t n = replicas.size();
    const bool online = resolveMode(opts) == RunMode::Online;

    if (n == 0)
        errors.push_back("cluster has no replicas");

    if (!online) {
        if (workStealing.enabled) {
            errors.push_back(
                "workStealing requires online mode (RunMode::Online "
                "or ClusterConfig::onlineRouting)");
        }
        if (autoscale.enabled)
            errors.push_back("autoscale requires online mode");
        if (admission.enabled) {
            errors.push_back(
                "cluster-level admission requires online mode");
        }
    }

    if (autoscale.enabled) {
        if (autoscale.interval <= 0)
            errors.push_back("autoscale.interval must be > 0");
        if (autoscale.minReplicas < 1 ||
            (n > 0 && autoscale.minReplicas > n)) {
            errors.push_back(
                "autoscale.minReplicas out of range [1, replicas]");
        }
        if (autoscale.startReplicas > n) {
            errors.push_back(
                "autoscale.startReplicas exceeds the replica count");
        }
    }

    if (preemption.enabled) {
        if (preemption.minRunQuantum <= 0) {
            errors.push_back(
                "preemption.minRunQuantum must be > 0 (the anti-thrash "
                "quantum is what keeps checkpoint churn bounded)");
        }
        if (preemption.maxPreemptionsPerGroup < 1) {
            errors.push_back(
                "preemption.maxPreemptionsPerGroup must be >= 1");
        }
        if (preemption.migrationMinRemaining < 0) {
            errors.push_back(
                "preemption.migrationMinRemaining must be >= 0");
        }
    }
    if (preemption.migration) {
        if (!preemption.enabled) {
            errors.push_back(
                "preemption.migration requires preemption.enabled "
                "(migration moves *checkpointed* groups)");
        }
        if (!online && !opts.faults.any()) {
            errors.push_back(
                "preemption.migration requires the coordinator path "
                "(online mode or a fault plan): static sharded "
                "replicas cannot exchange in-flight groups");
        }
    }

    if (sharedCpu.enabled && sharedCpu.bytes == 0) {
        bool anyCache = false;
        for (const ReplicaSpec &r : replicas)
            anyCache = anyCache || r.cfg.cpuCacheTier;
        if (!anyCache) {
            errors.push_back(
                "sharedCpu needs bytes or replicas with an enabled "
                "cpuCacheTier");
        }
    }

    const bool recording = !opts.recordPath.empty();
    const bool replaying = !opts.replayPath.empty();
    if (recording && replaying && opts.recordPath == opts.replayPath) {
        errors.push_back(
            "recordPath and replayPath must differ (replay reads the "
            "log the run would overwrite)");
    }
    // A parallel static run with a shared CPU tier is the one
    // configuration whose results depend on host thread scheduling:
    // its decision stream is recordable (routing is precomputed) but
    // nothing else about it replays bit-identically. Fault runs take
    // the sequential coordinator path and stay deterministic.
    if ((recording || replaying) && !online && !opts.faults.any() &&
        parallel && sharedCpu.enabled) {
        errors.push_back(
            "record/replay of a parallel static run with a shared CPU "
            "tier is nondeterministic: set parallel = false or run "
            "online");
    }

    const obs::TelemetryConfig &tel = opts.telemetry;
    if (!tel.enabled &&
        (!tel.tracePath.empty() || !tel.metricsJsonPath.empty() ||
         !tel.metricsCsvPath.empty())) {
        errors.push_back(
            "telemetry output paths require telemetry.enabled");
    }
    if (tel.enabled && tel.sampleInterval <= 0)
        errors.push_back("telemetry.sampleInterval must be > 0");
    // The epoch sampler lives in the coordinator's time race; a static
    // sharded run has no shared stepping loop to sample from.
    if (tel.enabled && !tel.metricsCsvPath.empty() && !online &&
        !opts.faults.any()) {
        errors.push_back(
            "telemetry.metricsCsvPath (epoch sampling) requires the "
            "coordinator path (online mode or a fault plan)");
    }

    std::vector<char> crashSeen(n, 0);
    for (const ReplicaCrash &c : opts.faults.crashes) {
        if (c.replica >= n) {
            errors.push_back(
                "fault plan: crash replica " +
                std::to_string(c.replica) + " out of range (cluster "
                "has " + std::to_string(n) + ")");
            continue;
        }
        if (crashSeen[c.replica]) {
            errors.push_back("fault plan: replica " +
                             std::to_string(c.replica) +
                             " crashes twice");
        }
        crashSeen[c.replica] = 1;
        if (c.at < 0)
            errors.push_back("fault plan: crash time must be >= 0");
    }
    if (n > 0 && opts.faults.crashes.size() >= n) {
        errors.push_back(
            "fault plan: crashing every replica leaves no survivors");
    }
    for (const Straggler &s : opts.faults.stragglers) {
        if (s.slowdown < 1.0) {
            errors.push_back(
                "fault plan: straggler slowdown must be >= 1, got " +
                std::to_string(s.slowdown));
        }
    }
    for (const StorageBrownout &b : opts.faults.brownouts) {
        if (b.factor <= 0.0 || b.factor > 1.0) {
            errors.push_back(
                "fault plan: brownout factor must be in (0, 1], got " +
                std::to_string(b.factor));
        }
    }
    checkWindows(opts.faults.stragglers, n, "straggler", errors);
    checkWindows(opts.faults.brownouts, n, "brownout", errors);

    return errors;
}

ClusterEngine::ClusterEngine(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    COSERVE_CHECK(!cfg_.replicas.empty(), "cluster needs replicas");
    for (std::size_t i = 0; i < cfg_.replicas.size(); ++i) {
        const ReplicaSpec &r = cfg_.replicas[i];
        COSERVE_CHECK(r.ctx != nullptr, "replica ", i,
                      " missing offline context");
        COSERVE_CHECK(!r.cfg.executors.empty(), "replica ", i,
                      " has no executors");
        // Routing and sharding assume one CoE model cluster-wide.
        COSERVE_CHECK(&r.ctx->model() ==
                          &cfg_.replicas.front().ctx->model(),
                      "replica ", i,
                      " serves a different CoE model than replica 0");
        // The engine builds channels from cfg.device but latency /
        // footprint models from ctx: mixed-up heterogeneous specs
        // would silently simulate inconsistent hardware.
        COSERVE_CHECK(r.cfg.device.name == r.ctx->device().name,
                      "replica ", i, " config device '",
                      r.cfg.device.name,
                      "' does not match its context device '",
                      r.ctx->device().name, "'");
    }
}

std::vector<ReplicaView>
ClusterEngine::makeReplicaViews() const
{
    std::vector<ReplicaView> views;
    views.reserve(cfg_.replicas.size());
    for (const ReplicaSpec &r : cfg_.replicas)
        views.push_back({r.ctx, &r.cfg});
    return views;
}

std::vector<std::size_t>
ClusterEngine::routeTrace(const Trace &trace) const
{
    // All replicas serve the same CoE model; route by the first's.
    auto router = makeRouter(cfg_.routing,
                             cfg_.replicas.front().ctx->model(),
                             makeReplicaViews());

    std::vector<std::size_t> assignment;
    assignment.reserve(trace.arrivals.size());
    for (const ImageArrival &a : trace.arrivals)
        assignment.push_back(router->route(a));
    return assignment;
}

ClusterResult
ClusterEngine::run(const Trace &trace, const RunOptions &opts)
{
    COSERVE_CHECK(!ran_, "ClusterEngine instances are single-use");
    ran_ = true;

    const std::vector<std::string> errors = cfg_.validate(opts);
    if (!errors.empty()) {
        std::string joined;
        for (const std::string &e : errors)
            joined += "\n  - " + e;
        fatal("invalid cluster run configuration:", joined);
    }

    DecisionTrace decisions;
    DecisionLog replayLog;
    if (!opts.replayPath.empty()) {
        replayLog = DecisionLog::load(opts.replayPath);
        decisions.beginReplay(&replayLog);
    }

    // Per-run observability state. The registry is an export of the
    // result fields, filled once when the run is collected; the
    // tracer, sampler and file outputs exist only when
    // opts.telemetry.enabled — the null-sink fast path.
    obs::Telemetry telem(opts.telemetry,
                         static_cast<int>(cfg_.replicas.size()));

    // Fault plans need every replica on the shared clock even in
    // static mode (a crash interrupts mid-run), so they take the
    // coordinator path with routing pinned to the offline assignment.
    const bool online = cfg_.resolveMode(opts) == RunMode::Online;
    ClusterResult out =
        online || opts.faults.any()
            ? runCoordinated(trace, opts, online, decisions, telem)
            : runSharded(trace, decisions, telem);

    decisions.finish();
    out.decisionDigest = decisions.log().digest();
    out.decisionCount =
        static_cast<std::int64_t>(decisions.log().size());
    if (!opts.recordPath.empty())
        decisions.log().save(opts.recordPath);

    // Observability epilogue: the result's counters and derived gauges
    // into the registry, the per-replica 1-in-16 scheduling-wall
    // samples unified into the host profile, then the configured file
    // outputs; the frozen snapshot rides on the result for export.
    exportClusterMetrics(out, telem.registry());
    for (const RunResult &rep : out.replicas) {
        const std::size_t cnt = rep.schedulingWallUs.count();
        if (cnt > 0) {
            telem.host().add("scheduling",
                             rep.schedulingWallUs.mean() *
                                 static_cast<double>(cnt),
                             static_cast<std::int64_t>(cnt));
        }
    }
    if (!telem.finish())
        fatal("telemetry: failed to write configured output files");
    out.metrics = telem.registry().snapshot();
    return out;
}

std::unique_ptr<SharedCpuTier>
ClusterEngine::makeSharedCpuTier() const
{
    // One physical host DRAM behind all replicas: evictions from any
    // replica's GPU pool demote into this tier, and any replica's
    // loads may hit it. Lives only for the duration of the run.
    if (!cfg_.sharedCpu.enabled)
        return nullptr;
    std::int64_t cap = cfg_.sharedCpu.bytes;
    if (cap == 0) {
        // Same total DRAM as the private split: only replicas
        // whose private tier would actually be enabled contribute.
        for (const ReplicaSpec &r : cfg_.replicas) {
            if (r.cfg.cpuCacheTier)
                cap += r.cfg.cpuCacheBytes;
        }
    }
    COSERVE_CHECK(cap > 0, "sharedCpu needs bytes ",
                  "or replicas with an enabled cpuCacheTier");
    return std::make_unique<SharedCpuTier>(cap);
}

void
ClusterEngine::appendSharedTierStats(ClusterResult &out,
                                     const SharedCpuTier *tier)
{
    // The shared tier is cluster-owned: replicas do not report it, so
    // append its (cross-replica) counters once, and fold its disk
    // spills into the cluster-wide disk entry (private-tier runs
    // account the same spills through each engine's own disk tier).
    if (tier == nullptr)
        return;
    out.tiers.push_back(tier->stats());
    mergeTierStats(out.tiers, tier->diskStats());
}

ClusterResult
ClusterEngine::runSharded(const Trace &trace, DecisionTrace &decisions,
                          obs::Telemetry &telem)
{
    // wallSeconds covers routing as well as the replica runs, as the
    // coordinator's covers engine build and routeTrace: the serial
    // routing prefix is part of a static run's host time.
    const WallTimer wall;
    const std::vector<std::size_t> assignment = routeTrace(trace);
    // The route stream *is* the static coordinator's decision stream:
    // digesting it here keeps static runs replay-checkable and their
    // digests identical to a fault-free pinned-routing coordinator run.
    decisions.reserve(trace.arrivals.size());
    for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
        decisions.note({trace.arrivals[i].time, DecisionKind::Route,
                        static_cast<std::uint64_t>(i),
                        static_cast<std::uint64_t>(assignment[i]), 0});
    }
    const std::vector<Trace> shards =
        shardTrace(trace, assignment, cfg_.replicas.size());
    telem.host().add("route_shard", wall.elapsedMicros());

    std::unique_ptr<SharedCpuTier> sharedCpu = makeSharedCpuTier();

    const auto runReplica = [this, &shards, &sharedCpu,
                             &telem](std::size_t i, RunResult &out) {
        out = makeReplicaEngine(i, sharedCpu.get(), telem)
                  ->run(shards[i]);
    };

    std::vector<RunResult> results(cfg_.replicas.size());
    const WallTimer runWall;
    if (cfg_.parallel) {
        std::vector<std::thread> threads;
        threads.reserve(cfg_.replicas.size());
        for (std::size_t i = 0; i < cfg_.replicas.size(); ++i)
            threads.emplace_back(runReplica, i, std::ref(results[i]));
        for (std::thread &t : threads)
            t.join();
    } else {
        for (std::size_t i = 0; i < cfg_.replicas.size(); ++i)
            runReplica(i, results[i]);
    }
    telem.host().add("replica_run", runWall.elapsedMicros());
    const WallTimer collectWall;
    ClusterResult out = aggregateClusterResult(
        cfg_.label, toString(cfg_.routing), std::move(results));
    out.wallSeconds = wall.elapsedSeconds();
    telem.host().add("collect", collectWall.elapsedMicros());
    out.preemptionEnabled = cfg_.preemption.enabled;
    appendSharedTierStats(out, sharedCpu.get());
    return out;
}

std::unique_ptr<ServingEngine>
ClusterEngine::makeReplicaEngine(std::size_t i,
                                 SharedCpuTier *sharedCpu,
                                 obs::Telemetry &telem) const
{
    const ReplicaSpec &spec = cfg_.replicas[i];
    EngineConfig cfg = spec.cfg;
    cfg.label = cfg_.label + "/replica" + std::to_string(i);
    if (sharedCpu != nullptr)
        cfg.externalCpuTier = sharedCpu;
    // This replica's span-trace buffer (null unless telemetry is
    // enabled). The buffer is pre-created by the Telemetry ctor, so
    // construction inside a replica thread (static-parallel mode)
    // never races.
    cfg.tracer = telem.replicaTracer(static_cast<int>(i));
    // Cluster-level preemption policy applies uniformly: migration
    // break-even and hysteresis must agree across replicas or a group
    // migratable at its source would be un-adoptable at its target.
    if (cfg_.preemption.enabled)
        cfg.preemption = cfg_.preemption;
    return makeCoServeEngine(*spec.ctx, std::move(cfg));
}

ClusterResult
ClusterEngine::runCoordinated(const Trace &trace,
                              const RunOptions &opts, bool liveRouting,
                              DecisionTrace &decisions,
                              obs::Telemetry &telem)
{
    const std::size_t n = cfg_.replicas.size();
    std::unique_ptr<SharedCpuTier> sharedCpu = makeSharedCpuTier();

    // Engine construction and preload count toward wallSeconds, as
    // they do inside static mode's per-replica threads — otherwise
    // the modes' host-time comparison is skewed.
    const WallTimer wall;

    // Build all replica engines up front; the coordinator steps them
    // in lockstep, so — unlike static sharding — they never run on
    // their own threads and `parallel` is irrelevant.
    std::vector<std::unique_ptr<ServingEngine>> engines;
    engines.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        engines.push_back(makeReplicaEngine(i, sharedCpu.get(), telem));
        // Disjoint strided id spaces: stolen requests keep their id,
        // so ids must stay unique cluster-wide.
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(n));
    }
    telem.host().add("build", wall.elapsedMicros());

    // ----- observability ---------------------------------------------
    //
    // The coordinator's trace buffer (pid 0; null when telemetry is
    // off). Its counters are the local tallies below, exported once to
    // the registry at collection time.
    obs::ReplicaTracer *coordTr = telem.coordinatorTracer();
    if (coordTr != nullptr) {
        coordTr->setProcessName("coordinator");
        coordTr->setThreadName(0, "coordinator");
    }

    const std::vector<ReplicaView> views = makeReplicaViews();
    const CoEModel &model = cfg_.replicas.front().ctx->model();
    // Every capability check below and cluster admission's live
    // estimate read this one model's tables.
    const LiveCostModel costs(model, views);
    const CapabilityTable &caps = costs.caps();
    std::unique_ptr<ReplicaRouter> router;
    if (liveRouting) {
        router = makeRouter(cfg_.routing, model, views);
    }
    // Static under faults: routing pinned to the offline assignment,
    // exactly what runSharded would execute — re-homing applies only
    // when the assigned replica has crashed.
    std::vector<std::size_t> assignment;
    if (!liveRouting)
        assignment = routeTrace(trace);
    // Every arrival logs one Route or Reject decision, live or pinned.
    decisions.reserve(trace.arrivals.size());

    // ----- fault schedule --------------------------------------------
    const std::vector<FaultAction> faults =
        flattenFaults(opts.faults);
    std::size_t nextFault = 0;
    std::vector<char> crashed(n, 0);
    std::size_t crashedCount = 0;
    std::int64_t crashes = 0, rehomed = 0, lostImages = 0;
    std::int64_t stragglers = 0, brownouts = 0;

    // ----- autoscaler state ------------------------------------------
    //
    // Which replicas currently take new work. With autoscaling off
    // every replica is active for the whole run and none of this has
    // any effect — online results stay identical to PR 4.
    const AutoscaleConfig &as = cfg_.autoscale;
    std::vector<char> active(n, 1);
    std::size_t activeCount = n;
    if (as.enabled) {
        std::size_t start = as.startReplicas == 0 ? as.minReplicas
                                                  : as.startReplicas;
        start = std::min(start, n);
        for (std::size_t i = start; i < n; ++i)
            active[i] = 0;
        activeCount = start;
        // The initial active set must cover every component on a
        // heterogeneous cluster — routers abort on an arrival no
        // active replica can chain-serve. Activate the first capable
        // quiesced replica for each uncovered component (same rule
        // the quiesce path enforces via its coverage guard).
        for (std::size_t c = 0; c < model.numComponents(); ++c) {
            const auto comp = static_cast<ComponentId>(c);
            bool covered = false;
            for (std::size_t i = 0; i < n && !covered; ++i)
                covered = active[i] && caps.chainOk(i, comp);
            if (covered)
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                if (!active[i] && caps.chainOk(i, comp)) {
                    active[i] = 1;
                    activeCount += 1;
                    break;
                }
            }
        }
    }

    // ----- preemption / live migration state -------------------------

    const bool preemptOn = cfg_.preemption.enabled;
    const bool migrationOn = preemptOn && cfg_.preemption.migration;
    std::int64_t migratedGroups = 0, migratedRequests = 0;
    std::vector<PreemptEvent> pevBuf;
    // Replica-local preemption decisions (pause / checkpoint / restore)
    // are part of the replayable schedule: drained into the decision
    // stream in replica order after every step, so the interleaving is
    // deterministic.
    const auto drainPreempt = [&](std::size_t i) {
        if (!preemptOn)
            return;
        pevBuf.clear();
        engines[i]->drainPreemptEvents(pevBuf);
        for (const PreemptEvent &ev : pevBuf) {
            DecisionKind kind = DecisionKind::Preempt;
            if (ev.what == PreemptEvent::What::Checkpoint)
                kind = DecisionKind::Checkpoint;
            else if (ev.what == PreemptEvent::What::Restore)
                kind = DecisionKind::Restore;
            decisions.note({ev.time, kind,
                            static_cast<std::uint64_t>(i),
                            static_cast<std::uint64_t>(ev.executor),
                            ev.count});
        }
    };
    // Routes completed checkpoint saves out of replica outboxes; bound
    // below, after the capability filters exist (stepAll needs it).
    std::function<void(Time)> drainOutboxes;

    // Quiesce-drain latency: virtual time from a quiesce decision to
    // the replica going fully idle — the metric migration shrinks (no
    // more waiting out the longest running batch).
    std::vector<Time> quiesceStart(n, kTimeNever);
    std::size_t quiescing = 0;
    std::int64_t quiesceDrains = 0;
    Time quiesceDrainTotal = 0, quiesceDrainMax = 0;
    const auto noteQuiesceDrains = [&]() {
        if (quiescing == 0)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            if (quiesceStart[i] == kTimeNever)
                continue;
            if (crashed[i] != 0 || active[i] != 0) {
                // Died or was re-activated mid-drain: not a completed
                // quiesce, so it does not enter the drain statistics.
                quiesceStart[i] = kTimeNever;
                quiescing -= 1;
                continue;
            }
            if (engines[i]->nextEventTime() != kTimeNever)
                continue;
            const Time drain = engines[i]->now() - quiesceStart[i];
            quiesceDrains += 1;
            quiesceDrainTotal += drain;
            quiesceDrainMax = std::max(quiesceDrainMax, drain);
            quiesceStart[i] = kTimeNever;
            quiescing -= 1;
        }
    };

    std::vector<ReplicaLoadView> live(n);
    // Views are refilled lazily: a replica's observable state only
    // changes when it executes events or accepts a request, so clean
    // views are reused across arrivals (the clock-only staleness of
    // `now` is absorbed by the routers' max(arrival.time, ...)). The
    // same rule keeps resident()/queued(), which read the engine live,
    // equal to what a fill-time copy would hold.
    std::vector<char> dirty(n, 1);
    const auto refreshViews = [&]() {
        for (std::size_t i = 0; i < n; ++i) {
            if (dirty[i]) {
                engines[i]->fillLoadView(live[i]);
                dirty[i] = 0;
            }
            // fillLoadView resets the gate; re-apply the active set.
            live[i].acceptingWork = active[i] != 0;
        }
    };

    const auto stepAll = [&](Time t) {
        for (std::size_t i = 0; i < n; ++i) {
            if (engines[i]->stepUntil(t) > 0) {
                dirty[i] = 1;
                drainPreempt(i);
            }
        }
        if (drainOutboxes)
            drainOutboxes(t);
        noteQuiesceDrains();
    };

    // A thief may only steal requests its context can serve: on a
    // heterogeneous cluster a replica may never have been profiled
    // for some architecture, and dispatching such a request there
    // aborts deep in the scheduler's estimate. Same capability rule
    // the routers apply (router.h) — and like routing, a stolen
    // classify request brings its whole chain, so the thief must also
    // serve the detect child it may spawn. The autoscaler's
    // quiesce-evacuation and crash re-homing reuse the same filters.
    std::vector<RequestQueue::StealFilter> canServe(n);
    if (cfg_.workStealing.enabled || as.enabled || opts.faults.any() ||
        migrationOn) {
        for (std::size_t i = 0; i < n; ++i) {
            canServe[i] = [&model, &caps, i](const Request &req) {
                if (req.stage == Stage::Classify)
                    return caps.chainOk(i, req.component);
                return caps.archOk(i, model.expert(req.expert).arch);
            };
        }
    }

    // Does the trace carry SLO metadata at all? Classless traces skip
    // every SLO code path (admission, at-risk steal pass).
    bool sloTrace = false;
    for (const ImageArrival &a : trace.arrivals) {
        if (sloTracked(a.cls) || a.deadline != kTimeNever) {
            sloTrace = true;
            break;
        }
    }
    const AdmissionController admission(cfg_.admission);
    SloStats coordSlo; // cluster-level admission verdicts
    std::int64_t coordRejected = 0;

    // Shared-tier steal hint scratch: distinct experts of re-routed
    // requests (see SharedCpuTier::hintUpcomingLoads).
    std::vector<ExpertId> lootExperts;
    const auto hintSharedTier = [&](const std::vector<Request> &loot) {
        if (sharedCpu == nullptr || loot.empty())
            return;
        lootExperts.clear();
        for (const Request &req : loot)
            lootExperts.push_back(req.expert);
        std::sort(lootExperts.begin(), lootExperts.end());
        lootExperts.erase(
            std::unique(lootExperts.begin(), lootExperts.end()),
            lootExperts.end());
        sharedCpu->hintUpcomingLoads(lootExperts);
    };

    // Migration target selection, shared by the outbox drain and crash
    // evacuation: least-backlogged active capable replica of the
    // image's processor kind (ties: lowest index). A live source with
    // no target keeps its group (self-migration, recorded so replays
    // cover the fallback); a dead source's unroutable group is lost —
    // the caller accounts it. Assumes refreshViews() ran.
    std::vector<CheckpointImage> outboxBuf, crashImgBuf;
    const auto routeCheckpoint = [&](std::size_t src,
                                     CheckpointImage img, Time now) {
        std::size_t target = n;
        Time bestLoad = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == src || !active[i] || crashed[i] ||
                !engines[i]->hasExecutorKind(img.kind))
                continue;
            bool ok = true;
            for (const Request &req : img.requests)
                ok = ok && (!canServe[i] || canServe[i](req));
            if (!ok)
                continue;
            const Time load = live[i].backlog;
            if (target == n || load < bestLoad) {
                target = i;
                bestLoad = load;
            }
        }
        const auto cnt =
            static_cast<std::uint64_t>(img.requests.size());
        if (target == n) {
            if (crashed[src]) {
                // Same out-of-range sentinel the crash route uses.
                decisions.note({now, DecisionKind::Migrate,
                                static_cast<std::uint64_t>(src),
                                static_cast<std::uint64_t>(n), cnt});
                return false;
            }
            target = src;
        }
        decisions.note({now, DecisionKind::Migrate,
                        static_cast<std::uint64_t>(src),
                        static_cast<std::uint64_t>(target), cnt});
        if (coordTr != nullptr) {
            coordTr->instant(
                "migrate", 0, now,
                {"from", static_cast<std::int64_t>(src)},
                {"to", static_cast<std::int64_t>(target)},
                {"requests", static_cast<std::int64_t>(cnt)});
        }
        if (target != src) {
            migratedGroups += 1;
            migratedRequests += static_cast<std::int64_t>(cnt);
            hintSharedTier(img.requests);
        }
        engines[target]->adoptCheckpoint(std::move(img));
        dirty[target] = 1;
        return true;
    };
    if (migrationOn) {
        drainOutboxes = [&](Time now) {
            for (std::size_t src = 0; src < n; ++src) {
                outboxBuf.clear();
                if (engines[src]->takeMigratedImages(outboxBuf) == 0)
                    continue;
                refreshViews();
                for (CheckpointImage &img : outboxBuf) {
                    const bool routed =
                        routeCheckpoint(src, std::move(img), now);
                    COSERVE_CHECK(routed,
                                  "outbox image stranded on a crashed "
                                  "replica");
                }
            }
        };
    }

    std::vector<std::int64_t> stolenFrom(n, 0), stolenTo(n, 0);
    std::vector<Request> stealBuf;
    const auto maybeSteal = [&](Time now) {
        // An idle replica raids the most backlogged sibling whose
        // queued-but-unstarted count exceeds the threshold, taking
        // half the backlog. The victim's *time* backlog must also
        // dwarf a demand load — a thief almost always pays one switch
        // for its loot, and stealing a trivial batch trades a ~5 ms/img
        // backlog for a ~100 ms load. Deterministic: fixed iteration
        // order on the shared clock.
        bool anyIdle = false;
        for (const auto &engine : engines)
            anyIdle = anyIdle || engine->nextEventTime() == kTimeNever;
        if (!anyIdle)
            return; // common case: skip the full view refresh
        refreshViews();
        // In-flight stealing: when an idle thief finds no queued loot,
        // it may still pull the checkpointed tail of a *running* batch
        // off a sibling that has more queued work stuck behind it. The
        // pause request is issued here; the image lands in the
        // sibling's outbox after the (charged) save and is routed by
        // drainOutboxes to the least-loaded capable replica. The
        // break-even guard (migrationMinRemaining) and the per-group
        // preemption budget bound the churn.
        const auto tryMigrateSteal = [&](std::size_t thief) {
            if (!migrationOn)
                return;
            for (std::size_t j = 0; j < n; ++j) {
                if (j == thief || crashed[j] ||
                    live[j].queueDepth == 0 ||
                    !engines[j]->hasMigratableGroup())
                    continue;
                if (engines[j]->requestMigrateOut(1) > 0)
                    return;
            }
        };
        for (std::size_t thief = 0; thief < n; ++thief) {
            // A quiesced or crashed replica must not pull new work.
            if (!live[thief].idle || !active[thief])
                continue;
            std::size_t victim = n;
            std::size_t depth = cfg_.workStealing.backlogThreshold;
            for (std::size_t j = 0; j < n; ++j) {
                if (j != thief && live[j].queueDepth > depth &&
                    live[j].backlog > cfg_.workStealing.minBacklog) {
                    depth = live[j].queueDepth;
                    victim = j;
                }
            }
            if (victim == n) {
                tryMigrateSteal(thief);
                continue;
            }
            stealBuf.clear();
            const std::size_t want = live[victim].queueDepth / 2;
            std::size_t got = 0;
            if (sloTrace) {
                // Deadline-aware pass first: prefer the loot that
                // would *violate* if it stayed — requests whose
                // deadline falls inside the victim's predicted
                // backlog drain. Only then top up with arbitrary
                // (servable) tail requests.
                const Time victimEta =
                    live[victim].now + live[victim].backlog;
                const RequestQueue::StealFilter &serve =
                    canServe[thief];
                const RequestQueue::StealFilter atRisk =
                    [&serve, victimEta](const Request &req) {
                        return req.deadline != kTimeNever &&
                               req.deadline < victimEta &&
                               (!serve || serve(req));
                    };
                got = engines[victim]->stealRequests(want, stealBuf,
                                                     atRisk);
            }
            if (got < want) {
                got += engines[victim]->stealRequests(
                    want - got, stealBuf, canServe[thief]);
            }
            if (got == 0) {
                tryMigrateSteal(thief);
                continue;
            }
            decisions.note({now, DecisionKind::Steal,
                            static_cast<std::uint64_t>(victim),
                            static_cast<std::uint64_t>(thief),
                            static_cast<std::uint64_t>(got)});
            if (coordTr != nullptr) {
                coordTr->instant(
                    "steal", 0, now,
                    {"victim", static_cast<std::int64_t>(victim)},
                    {"thief", static_cast<std::int64_t>(thief)},
                    {"requests", static_cast<std::int64_t>(got)});
            }
            // Keep the thief's upcoming demand loads resident in the
            // shared DRAM tier (steal-aware admission).
            hintSharedTier(stealBuf);
            for (const Request &req : stealBuf)
                engines[thief]->injectRequest(req);
            stolenFrom[victim] += static_cast<std::int64_t>(got);
            stolenTo[thief] += static_cast<std::int64_t>(got);
            // Only the two parties' state changed.
            engines[thief]->fillLoadView(live[thief]);
            engines[victim]->fillLoadView(live[victim]);
            live[thief].acceptingWork = active[thief] != 0;
            live[victim].acceptingWork = active[victim] != 0;
            dirty[thief] = 0;
            dirty[victim] = 0;
        }
    };

    // ----- autoscale control loop ------------------------------------

    std::int64_t lastCompleted = 0, lastViolated = 0;
    std::int64_t activations = 0, quiesces = 0, evacuated = 0;
    Time lastScaleAction = -as.cooldown;
    Time nextControl = as.interval;
    double activeIntegral = 0.0;
    Time lastActiveMark = 0;
    const auto noteActiveChange = [&](Time now) {
        activeIntegral += static_cast<double>(activeCount) *
                          static_cast<double>(now - lastActiveMark);
        lastActiveMark = now;
    };

    // Quiescing must never leave a component unservable: on a
    // heterogeneous cluster the candidate may be the last active
    // replica capable of some chain.
    const auto activeSetCovers = [&](std::size_t excluding) {
        for (std::size_t c = 0; c < model.numComponents(); ++c) {
            bool covered = false;
            for (std::size_t i = 0; i < n && !covered; ++i) {
                covered = i != excluding && active[i] &&
                          caps.chainOk(i, static_cast<ComponentId>(c));
            }
            if (!covered)
                return false;
        }
        return true;
    };

    // Drain a quiescing replica through the steal machinery: its
    // queued-but-unstarted requests re-route to active siblings in
    // small round-robin chunks (no sibling swallows the whole drain),
    // each sibling filtering by its own capability. Queue heads stay
    // behind by design (stealFromTail) and simply finish where they
    // are — quiesce is a drain, not a kill.
    std::vector<Request> evacBuf;
    const auto evacuate = [&](std::size_t q, Time now) {
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t t = 0; t < n; ++t) {
                if (!active[t] || t == q)
                    continue;
                evacBuf.clear();
                const std::size_t got =
                    engines[q]->stealRequests(4, evacBuf, canServe[t]);
                if (got == 0)
                    continue;
                decisions.note({now, DecisionKind::Evacuate,
                                static_cast<std::uint64_t>(q),
                                static_cast<std::uint64_t>(t),
                                static_cast<std::uint64_t>(got)});
                if (coordTr != nullptr) {
                    coordTr->instant(
                        "evacuate", 0, now,
                        {"from", static_cast<std::int64_t>(q)},
                        {"to", static_cast<std::int64_t>(t)},
                        {"requests", static_cast<std::int64_t>(got)});
                }
                hintSharedTier(evacBuf);
                for (const Request &req : evacBuf)
                    engines[t]->injectRequest(req);
                evacuated += static_cast<std::int64_t>(got);
                dirty[t] = 1;
                progress = true;
            }
        }
        // With migration on, the drain takes the *running* batches
        // too: each pauses at its next step boundary, checkpoints and
        // migrates to an active sibling — quiesce no longer waits out
        // the longest batch. (Queue heads and short tails below the
        // break-even guard still finish in place.)
        if (migrationOn) {
            engines[q]->requestMigrateOut(
                std::numeric_limits<std::size_t>::max());
        }
        dirty[q] = 1;
    };

    const auto runControl = [&](Time now) {
        // Window signals: SLO violation rate and queued backlog per
        // active replica since the previous control tick.
        std::int64_t completed = 0, violated = 0;
        for (const auto &engine : engines) {
            completed += engine->sloStats().completed();
            violated += engine->sloStats().violated();
        }
        const std::int64_t dc = completed - lastCompleted;
        const std::int64_t dv = violated - lastViolated;
        lastCompleted = completed;
        lastViolated = violated;
        const double violRate =
            dc > 0 ? static_cast<double>(dv) / static_cast<double>(dc)
                   : 0.0;
        refreshViews();
        std::size_t backlog = 0;
        for (std::size_t i = 0; i < n; ++i)
            backlog += live[i].queueDepth;
        const double perActive =
            static_cast<double>(backlog) /
            static_cast<double>(activeCount > 0 ? activeCount : 1);

        // Scale up fast, down slow (the classic asymmetry): only
        // quiesces respect the cooldown — underprovision costs
        // violations immediately, overprovision only efficiency.
        if ((violRate > as.violationHigh ||
             perActive > static_cast<double>(as.backlogHigh)) &&
            activeCount < n - crashedCount) {
            // Scale up: wake the lowest-index quiesced replica (it is
            // built, preloaded and idle — activation is instant).
            // Crashed replicas never come back.
            for (std::size_t i = 0; i < n; ++i) {
                if (active[i] || crashed[i])
                    continue;
                noteActiveChange(now);
                active[i] = 1;
                activeCount += 1;
                activations += 1;
                lastScaleAction = now;
                live[i].acceptingWork = true;
                decisions.note({now, DecisionKind::ScaleUp,
                                static_cast<std::uint64_t>(i), 0, 0});
                if (coordTr != nullptr) {
                    coordTr->instant(
                        "scale-up", 0, now,
                        {"replica", static_cast<std::int64_t>(i)});
                }
                break;
            }
        } else if (violRate < as.violationLow &&
                   perActive <= static_cast<double>(as.backlogLow) &&
                   activeCount > as.minReplicas &&
                   now - lastScaleAction >= as.cooldown) {
            // Scale down: quiesce the active replica with the least
            // queued work (ties: highest index, so replica 0 is the
            // stable core), provided coverage survives.
            std::size_t q = n;
            std::size_t qDepth = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (active[i] &&
                    (q == n || live[i].queueDepth <= qDepth)) {
                    q = i;
                    qDepth = live[i].queueDepth;
                }
            }
            if (q == n || !activeSetCovers(q))
                return;
            noteActiveChange(now);
            active[q] = 0;
            activeCount -= 1;
            quiesces += 1;
            lastScaleAction = now;
            live[q].acceptingWork = false;
            decisions.note({now, DecisionKind::Quiesce,
                            static_cast<std::uint64_t>(q), 0, 0});
            if (coordTr != nullptr) {
                coordTr->instant(
                    "quiesce", 0, now,
                    {"replica", static_cast<std::int64_t>(q)});
            }
            evacuate(q, now);
            if (quiesceStart[q] == kTimeNever) {
                quiesceStart[q] = now;
                quiescing += 1;
            }
        }
    };

    // ----- fault application -----------------------------------------

    std::vector<Request> drainBuf;
    std::vector<std::int64_t> rehomeCnt(n, 0);
    const auto applyFault = [&](const FaultAction &f) {
        switch (f.kind) {
        case DecisionKind::Crash: {
            const std::size_t r = f.replica;
            COSERVE_CHECK(!crashed[r], "replica crashed twice");
            if (active[r]) {
                if (as.enabled)
                    noteActiveChange(f.time);
                active[r] = 0;
                activeCount -= 1;
            }
            crashed[r] = 1;
            crashedCount += 1;
            crashes += 1;
            live[r].acceptingWork = false;
            // Lossless recovery of in-flight work: capture every
            // running batch at its last *completed* step boundary
            // (plus parked and outbox images — the periodic boundary
            // save is what survives a crash) and migrate the
            // checkpoints to capable survivors, which resume the
            // groups instead of re-running them from scratch. Work
            // since the last boundary is honestly re-executed.
            std::int64_t lostCkpt = 0;
            if (migrationOn) {
                crashImgBuf.clear();
                engines[r]->captureCheckpoints(crashImgBuf);
                drainPreempt(r); // the capture's Checkpoint records
                refreshViews();
                for (CheckpointImage &img : crashImgBuf) {
                    const auto cnt = static_cast<std::int64_t>(
                        img.requests.size());
                    if (!routeCheckpoint(r, std::move(img), f.time))
                        lostCkpt += cnt;
                }
            }
            // Drain queued + in-flight work off the dead replica and
            // re-home it round-robin onto active capable siblings
            // (each filtered by its own capability, like evacuation).
            // Work no survivor can serve is lost — and accounted.
            drainBuf.clear();
            engines[r]->crashDrain(drainBuf);
            dirty[r] = 1;
            hintSharedTier(drainBuf);
            std::fill(rehomeCnt.begin(), rehomeCnt.end(), 0);
            std::int64_t lostHere = 0;
            std::size_t cursor = (r + 1) % n;
            for (const Request &req : drainBuf) {
                std::size_t target = n;
                for (std::size_t j = 0; j < n; ++j) {
                    const std::size_t i = (cursor + j) % n;
                    if (i == r || !active[i])
                        continue;
                    if (canServe[i] && !canServe[i](req))
                        continue;
                    target = i;
                    break;
                }
                if (target == n) {
                    lostHere += 1;
                    continue;
                }
                cursor = (target + 1) % n;
                engines[target]->injectRequest(req);
                rehomeCnt[target] += 1;
                dirty[target] = 1;
            }
            const std::int64_t rehomedHere =
                static_cast<std::int64_t>(drainBuf.size()) - lostHere;
            rehomed += rehomedHere;
            // One request per image is in flight at a time, so every
            // lost request is exactly one lost image.
            lostHere += lostCkpt;
            lostImages += lostHere;
            if (coordTr != nullptr) {
                coordTr->instant(
                    "crash", 0, f.time,
                    {"replica", static_cast<std::int64_t>(r)},
                    {"rehomed", rehomedHere}, {"lost", lostHere});
            }
            decisions.note({f.time, DecisionKind::Crash,
                            static_cast<std::uint64_t>(r),
                            static_cast<std::uint64_t>(rehomedHere),
                            static_cast<std::uint64_t>(lostHere)});
            for (std::size_t i = 0; i < n; ++i) {
                if (rehomeCnt[i] > 0) {
                    decisions.note(
                        {f.time, DecisionKind::Evacuate,
                         static_cast<std::uint64_t>(r),
                         static_cast<std::uint64_t>(i),
                         static_cast<std::uint64_t>(rehomeCnt[i])});
                }
            }
            break;
        }
        case DecisionKind::StragglerOn:
            engines[f.replica]->setComputeScale(f.factor);
            stragglers += 1;
            if (coordTr != nullptr) {
                coordTr->instant(
                    "straggler on", 0, f.time,
                    {"replica",
                     static_cast<std::int64_t>(f.replica)});
            }
            decisions.note({f.time, DecisionKind::StragglerOn,
                            static_cast<std::uint64_t>(f.replica),
                            ppm(f.factor), 0});
            break;
        case DecisionKind::StragglerOff:
            engines[f.replica]->setComputeScale(1.0);
            if (coordTr != nullptr) {
                coordTr->instant(
                    "straggler off", 0, f.time,
                    {"replica",
                     static_cast<std::int64_t>(f.replica)});
            }
            decisions.note({f.time, DecisionKind::StragglerOff,
                            static_cast<std::uint64_t>(f.replica), 0,
                            0});
            break;
        case DecisionKind::BrownoutOn:
            engines[f.replica]->setStorageRateScale(f.factor);
            brownouts += 1;
            if (coordTr != nullptr) {
                coordTr->instant(
                    "brownout on", 0, f.time,
                    {"replica",
                     static_cast<std::int64_t>(f.replica)});
            }
            decisions.note({f.time, DecisionKind::BrownoutOn,
                            static_cast<std::uint64_t>(f.replica),
                            ppm(f.factor), 0});
            break;
        case DecisionKind::BrownoutOff:
            engines[f.replica]->setStorageRateScale(1.0);
            if (coordTr != nullptr) {
                coordTr->instant(
                    "brownout off", 0, f.time,
                    {"replica",
                     static_cast<std::int64_t>(f.replica)});
            }
            decisions.note({f.time, DecisionKind::BrownoutOff,
                            static_cast<std::uint64_t>(f.replica), 0,
                            0});
            break;
        default:
            panic("unexpected fault action kind");
        }
    };

    // ----- epoch sampler ---------------------------------------------
    //
    // A sample observes the quiescent DES state between coordinator
    // steps WITHOUT stepping any engine: an extra stepAll() cut point
    // would reorder the preempt/outbox/quiesce drains relative to an
    // unsampled run and drift the decision digest. Pure observation
    // keeps telemetry on/off byte-identical. The sampler fills its own
    // scratch view: refreshing the coordinator's `live` views would
    // rewrite their `now`, which stealing reads.
    ReplicaLoadView sampleView;
    const auto recordEpochSample = [&](Time t) {
        obs::SampleRow row;
        row.t = t;
        row.activeReplicas = static_cast<int>(activeCount);
        std::int64_t gpuHits = 0, gpuMisses = 0;
        std::int64_t cpuHits = 0, cpuMisses = 0;
        for (std::size_t i = 0; i < n; ++i) {
            // Cumulative columns keep a crashed replica's completions.
            engines[i]->sampleProgress(row.images, row.inferences,
                                       row.preemptions);
            if (crashed[i])
                continue;
            engines[i]->fillLoadView(sampleView);
            row.queueDepth +=
                static_cast<std::int64_t>(sampleView.queueDepth);
            // sampleHitCounters(), not appendTierStats(): TierStats
            // rows copy tier name strings on every call, which would
            // dominate the <5% tracing overhead budget.
            engines[i]->sampleHitCounters(gpuHits, gpuMisses, cpuHits,
                                          cpuMisses);
        }
        if (sharedCpu != nullptr) {
            const TierStats shared = sharedCpu->stats();
            cpuHits += shared.counters.hits;
            cpuMisses += shared.counters.misses;
        }
        if (gpuHits + gpuMisses > 0) {
            row.gpuHitRate =
                static_cast<double>(gpuHits) /
                static_cast<double>(gpuHits + gpuMisses);
        }
        if (cpuHits + cpuMisses > 0) {
            row.cpuHitRate =
                static_cast<double>(cpuHits) /
                static_cast<double>(cpuHits + cpuMisses);
        }
        if (t > 0) {
            row.goodputImgPerSec =
                static_cast<double>(row.images) / toSeconds(t);
        }
        telem.recordSample(row);
    };

    // Lockstep coordination on the shared virtual clock: the next
    // thing that happens cluster-wide is the earliest of the next
    // pending replica event, the next arrival, the next fault action,
    // and (autoscale only) the next control tick — fault actions win
    // all ties (a crash at t kills same-time work), control ticks win
    // ties against arrivals so same-time arrivals see the post-scale
    // active set, and arrivals win ties against events so routing sees
    // state as of the arrival instant. Everything is driven by virtual
    // time, so the schedule is reproducible by construction. Fault
    // actions scheduled after the last arrival and event are never
    // applied (there is nothing left for them to affect).
    std::size_t next = 0;
    Time lastArrival = 0;
    const WallTimer coordWall;
    for (;;) {
        const Time tArr = next < trace.arrivals.size()
                              ? trace.arrivals[next].time
                              : kTimeNever;
        if (tArr != kTimeNever) {
            COSERVE_CHECK(tArr >= lastArrival,
                          "online routing needs time-sorted arrivals");
            lastArrival = tArr;
        }
        Time tEv = kTimeNever;
        for (const auto &engine : engines)
            tEv = std::min(tEv, engine->nextEventTime());
        if (tArr == kTimeNever && tEv == kTimeNever)
            break;

        const Time tFault = nextFault < faults.size()
                                ? faults[nextFault].time
                                : kTimeNever;
        const Time tCtl = as.enabled ? nextControl : kTimeNever;

        // Sampler rows are due before anything else happens; they
        // never step, decide or mutate, so firing them first cannot
        // perturb the schedule below.
        const Time tSample = telem.nextSampleTime();
        if (tSample != kTimeNever &&
            tSample <= std::min({tArr, tEv, tFault, tCtl})) {
            recordEpochSample(tSample);
            continue;
        }

        if (tFault != kTimeNever &&
            tFault <= std::min({tArr, tEv, tCtl})) {
            stepAll(tFault);
            applyFault(faults[nextFault]);
            ++nextFault;
            continue;
        }

        if (as.enabled && nextControl <= std::min(tArr, tEv)) {
            stepAll(nextControl);
            runControl(nextControl);
            nextControl += as.interval;
            continue;
        }

        if (tArr <= tEv) {
            // No replica event strictly precedes the arrival: advance
            // every clock to the arrival instant and route it with
            // live views (skipping the snapshot work for policies
            // whose routeLive falls back to the offline route()).
            stepAll(tArr);
            ImageArrival a = trace.arrivals[next];
            const auto idx = static_cast<std::uint64_t>(next);
            ++next;

            // Cluster-level admission: can *any* active capable
            // replica make this deadline? Priced from the live views
            // by the same cost model LeastLoaded routes with, plus
            // the detect child the chain may spawn, upstream of
            // routing.
            if (liveRouting && cfg_.admission.enabled &&
                a.deadline != kTimeNever) {
                refreshViews();
                Time best = kTimeNever;
                for (std::size_t i = 0; i < n; ++i) {
                    if (!active[i] || !caps.chainOk(i, a.component))
                        continue;
                    best = std::min(best,
                                    costs.quote(i, a, live[i]).finish +
                                        costs.detectAdd(i, a.component));
                }
                const AdmissionVerdict verdict = admission.assess(
                    a.cls, a.time, a.deadline, best);
                if (verdict == AdmissionVerdict::Reject) {
                    coordSlo.recordRejected(a.cls);
                    coordRejected += 1;
                    if (coordTr != nullptr) {
                        coordTr->instant(
                            "admission reject", 0, a.time,
                            {"image",
                             static_cast<std::int64_t>(idx)});
                    }
                    decisions.note(
                        {a.time, DecisionKind::Reject, idx,
                         static_cast<std::uint64_t>(a.cls), 0});
                    continue;
                }
                if (verdict == AdmissionVerdict::Downgrade) {
                    // Scheduling class drops; the deadline stays for
                    // violation accounting (see ServingEngine's
                    // admitTimed).
                    coordSlo.recordDowngraded(a.cls);
                    if (coordTr != nullptr) {
                        coordTr->instant(
                            "admission downgrade", 0, a.time,
                            {"image",
                             static_cast<std::int64_t>(idx)});
                    }
                    decisions.note(
                        {a.time, DecisionKind::Downgrade, idx,
                         static_cast<std::uint64_t>(a.cls), 0});
                    a.cls = RequestClass::BestEffort;
                }
            }

            std::size_t r;
            if (liveRouting) {
                if (router->usesLiveViews())
                    refreshViews();
                r = router->routeLive(a, live);
                COSERVE_CHECK(r < n, "router returned replica ", r);
            } else {
                r = assignment[idx];
            }
            if (!active[r]) {
                // Offline-fallback routers (round-robin) ignore the
                // acceptingWork gate, and a pinned static assignment
                // may point at a replica that crashed since routing:
                // re-home onto the next active capable replica. If
                // none exists (possible only on a pathological
                // heterogeneous config), serve on the quiesced pick
                // rather than lose the image — unless it crashed, in
                // which case the image is genuinely lost.
                for (std::size_t j = 0; j < n; ++j) {
                    const std::size_t i = (r + j) % n;
                    if (active[i] && caps.chainOk(i, a.component)) {
                        r = i;
                        break;
                    }
                }
            }
            if (crashed[r]) {
                // No survivor can serve this arrival's chain. Record
                // the drop with the out-of-range sentinel replica `n`
                // so replays still cover it.
                lostImages += 1;
                if (coordTr != nullptr) {
                    coordTr->instant(
                        "route (lost)", 0, a.time,
                        {"image", static_cast<std::int64_t>(idx)});
                }
                decisions.note({a.time, DecisionKind::Route, idx,
                                static_cast<std::uint64_t>(n), 0});
                continue;
            }
            decisions.note({a.time, DecisionKind::Route, idx,
                            static_cast<std::uint64_t>(r), 0});
            if (coordTr != nullptr) {
                coordTr->instant(
                    "route", 0, a.time,
                    {"image", static_cast<std::int64_t>(idx)},
                    {"replica", static_cast<std::int64_t>(r)});
            }
            engines[r]->admitArrival(a);
            // Execute the admission's dispatch now, so a same-time
            // burst of arrivals sees each predecessor in the queues
            // rather than racing into one replica.
            engines[r]->stepUntil(tArr);
            dirty[r] = 1;
            drainPreempt(r);
        } else {
            // Replica events precede the next arrival: execute the
            // earliest round everywhere, then let idle replicas steal.
            stepAll(tEv);
            if (cfg_.workStealing.enabled)
                maybeSteal(tEv);
        }
    }

    telem.host().add("coordinate", coordWall.elapsedMicros());
    const WallTimer collectWall;
    std::vector<RunResult> results(n);
    std::int64_t images = 0;
    std::int64_t rejected = coordRejected;
    for (std::size_t i = 0; i < n; ++i) {
        rejected += engines[i]->rejectedImages();
        results[i] = engines[i]->finishOnline();
        images += results[i].images;
    }
    // Every arrival either completed somewhere, was rejected by
    // admission (at the coordinator or at a replica), or was lost to
    // an injected crash with no capable survivor.
    COSERVE_CHECK(images + rejected + lostImages ==
                      static_cast<std::int64_t>(trace.arrivals.size()),
                  "lost images: ", images, " done + ", rejected,
                  " rejected + ", lostImages, " crash-lost of ",
                  trace.arrivals.size());

    ClusterResult out = aggregateClusterResult(
        cfg_.label, toString(cfg_.routing), std::move(results));
    out.wallSeconds = wall.elapsedSeconds();
    out.stolenFromReplica = std::move(stolenFrom);
    out.stolenToReplica = std::move(stolenTo);
    for (std::int64_t s : out.stolenFromReplica)
        out.stolenRequests += s;
    out.workStealingEnabled = cfg_.workStealing.enabled;
    out.slo.merge(coordSlo);
    if (as.enabled) {
        out.autoscaleEnabled = true;
        out.autoscaleActivations = activations;
        out.autoscaleQuiesces = quiesces;
        out.autoscaleEvacuated = evacuated;
        if (out.makespan > lastActiveMark) {
            activeIntegral += static_cast<double>(activeCount) *
                              static_cast<double>(out.makespan -
                                                  lastActiveMark);
        }
        if (out.makespan > 0) {
            out.avgActiveReplicas =
                activeIntegral / static_cast<double>(out.makespan);
        }
    }
    if (preemptOn) {
        out.preemptionEnabled = true;
        out.migratedGroups = migratedGroups;
        out.migratedRequests = migratedRequests;
        out.quiesceDrains = quiesceDrains;
        out.quiesceDrainTotal = quiesceDrainTotal;
        out.quiesceDrainMax = quiesceDrainMax;
    }
    if (opts.faults.any()) {
        out.faultsInjected = true;
        out.crashesInjected = crashes;
        out.crashRehomed = rehomed;
        out.crashLost = lostImages;
        out.stragglersInjected = stragglers;
        out.brownoutsInjected = brownouts;
    }
    appendSharedTierStats(out, sharedCpu.get());
    // The coordinator's counters, exported once from the tallies
    // rather than from out's fields: those are gated on their feature
    // flags (an autoscale run with preemption off still completes
    // quiesce drains), and admission's own verdicts have no field.
    const std::pair<const char *, std::int64_t> coordCounters[] = {
        {"cluster.stolen_requests", out.stolenRequests},
        {"cluster.migrated_groups", migratedGroups},
        {"cluster.migrated_requests", migratedRequests},
        {"cluster.autoscale_activations", activations},
        {"cluster.autoscale_quiesces", quiesces},
        {"cluster.autoscale_evacuated", evacuated},
        {"cluster.quiesce_drains", quiesceDrains},
        {"cluster.rejected", coordRejected},
        {"cluster.downgraded", coordSlo.downgraded()},
        {"cluster.crashes", crashes},
        {"cluster.crash_rehomed", rehomed},
        {"cluster.crash_lost", lostImages},
        {"cluster.stragglers", stragglers},
        {"cluster.brownouts", brownouts},
    };
    for (const auto &[name, value] : coordCounters)
        telem.registry().counter(name).add(value);
    telem.host().add("collect", collectWall.elapsedMicros());
    return out;
}

ClusterConfig
heterogeneousCluster(std::vector<ReplicaSpec> replicas,
                     RoutingPolicy routing, std::string label)
{
    COSERVE_CHECK(!replicas.empty(), "need at least one replica");
    ClusterConfig cluster;
    cluster.label = std::move(label);
    cluster.routing = routing;
    cluster.replicas = std::move(replicas);
    return cluster;
}

ClusterConfig
homogeneousCluster(const CoServeContext &ctx, const EngineConfig &cfg,
                   int numReplicas, RoutingPolicy routing,
                   std::string label)
{
    COSERVE_CHECK(numReplicas >= 1, "need at least one replica");
    ClusterConfig cluster;
    cluster.label = std::move(label);
    cluster.routing = routing;
    for (int i = 0; i < numReplicas; ++i)
        cluster.replicas.push_back({&ctx, cfg});
    return cluster;
}

} // namespace coserve
