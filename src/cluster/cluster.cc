#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iterator>
#include <limits>
#include <mutex>
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
 * Flatten a plan into one virtual-time-ordered action list, ended by a
 * sentinel that is never due. Same-time actions order by (kind,
 * replica), so the schedule — and therefore the decision digest — is
 * independent of the plan's vector order.
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
    out.push_back({kTimeNever, DecisionKind::Crash, 0, 0.0});
    return out;
}

/**
 * A coordinator trace instant: its name and the arg keys that label a
 * decision record's `a`, `b` and `c` (null: not shown).
 */
struct InstantSpec
{
    const char *name;
    const char *a;
    const char *b;
    const char *c;
};

/**
 * The instant each DecisionKind emits, indexed by kind; a null name
 * emits none (preemption records: the replicas trace their own spans).
 */
constexpr InstantSpec kInstants[] = {
    {"route", "image", "replica", nullptr},
    {"admission reject", "image", nullptr, nullptr},
    {"admission downgrade", "image", nullptr, nullptr},
    {"steal", "victim", "thief", "requests"},
    {"scale-up", "replica", nullptr, nullptr},
    {"quiesce", "replica", nullptr, nullptr},
    {"evacuate", "from", "to", "requests"},
    {"crash", "replica", "rehomed", "lost"},
    {"straggler on", "replica", nullptr, nullptr},
    {"straggler off", "replica", nullptr, nullptr},
    {"brownout on", "replica", nullptr, nullptr},
    {"brownout off", "replica", nullptr, nullptr},
    {nullptr, nullptr, nullptr, nullptr},
    {nullptr, nullptr, nullptr, nullptr},
    {nullptr, nullptr, nullptr, nullptr},
    {"migrate", "from", "to", "requests"},
};
static_assert(std::size(kInstants) ==
                  static_cast<std::size_t>(DecisionKind::Migrate) + 1,
              "one InstantSpec per DecisionKind");

/** A Route to the out-of-range sentinel replica: the image was lost. */
constexpr InstantSpec kLostRoute = {"route (lost)", "image", nullptr,
                                    nullptr};

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

/**
 * Arrivals a static run routes per hand-off to its replica threads:
 * large enough that a hand-off costs little next to routing it, small
 * enough that the replicas start stepping soon after routing starts.
 */
constexpr std::size_t kRouteChunk = 4096;

/**
 * The hand-off point of a streamed static run: the caller publishes
 * how many arrivals it has routed and how many of them each replica's
 * shard holds; each replica thread waits until more arrivals are
 * routed than it has seen.
 */
class RouteGate
{
  public:
    /** Arrivals routed so far, and how many of them one shard holds. */
    struct Routed
    {
        std::size_t arrivals = 0;
        std::size_t shard = 0;
    };

    explicit RouteGate(std::size_t replicas) : shard_(replicas, 0) {}

    void
    publish(std::size_t routed,
            const std::vector<std::vector<ImageArrival>> &shards)
    {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            routed_ = routed;
            for (std::size_t i = 0; i < shards.size(); ++i)
                shard_[i] = shards[i].size();
        }
        cv_.notify_all();
    }

    /** Block until more than @p seen arrivals are routed. */
    Routed
    waitPast(std::size_t seen, std::size_t i)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this, seen] { return routed_ > seen; });
        return {routed_, shard_[i]};
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t routed_ = 0;
    std::vector<std::size_t> shard_;
};

/** One router-facing view per replica of @p cfg, in replica order. */
std::vector<ReplicaView>
makeReplicaViews(const ClusterConfig &cfg)
{
    std::vector<ReplicaView> views;
    views.reserve(cfg.replicas.size());
    for (const ReplicaSpec &r : cfg.replicas)
        views.push_back({r.ctx, &r.cfg});
    return views;
}

} // namespace

std::vector<std::string>
ClusterConfig::validate(const RunOptions &opts) const
{
    std::vector<std::string> errors;
    const std::size_t n = replicas.size();

    if (n == 0)
        errors.push_back("cluster has no replicas");

    if (opts.mode != RunMode::Online) {
        if (workStealing.enabled) {
            errors.push_back("workStealing requires online mode");
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
    if (preemption.migration && !preemption.enabled) {
        errors.push_back(
            "preemption.migration requires preemption.enabled "
            "(migration moves *checkpointed* groups)");
    }

    if (sharedCpu.enabled && sharedCpu.bytes < 0)
        errors.push_back("sharedCpu.bytes must be >= 0");
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

    if (!opts.recordPath.empty() && opts.recordPath == opts.replayPath) {
        errors.push_back(
            "recordPath and replayPath must differ (replay reads the "
            "log the run would overwrite)");
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
    // Written to accept only valid values: NaN fails every comparison.
    for (const Straggler &s : opts.faults.stragglers) {
        if (!(s.slowdown >= 1.0 && std::isfinite(s.slowdown))) {
            errors.push_back(
                "fault plan: straggler slowdown must be finite and >= 1, "
                "got " + std::to_string(s.slowdown));
        }
    }
    for (const StorageBrownout &b : opts.faults.brownouts) {
        if (!(b.factor > 0.0 && b.factor <= 1.0)) {
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

std::vector<std::size_t>
ClusterEngine::routeTrace(const Trace &trace) const
{
    // All replicas serve the same CoE model; route by the first's.
    auto router = makeRouter(cfg_.routing,
                             cfg_.replicas.front().ctx->model(),
                             makeReplicaViews(cfg_));

    std::vector<std::size_t> assignment;
    assignment.reserve(trace.arrivals.size());
    for (const ImageArrival &a : trace.arrivals)
        assignment.push_back(router->route(a));
    return assignment;
}

namespace {

/**
 * Runs one cluster run in either mode. It builds every replica engine
 * up front; each member function is one phase, and the two loops only
 * decide which phase comes next:
 *
 *  - online (runLockstep): every replica steps in lockstep on the
 *    shared virtual clock, and each arrival is routed at its arrival
 *    time from live views;
 *  - static (runEpochs): routing is pinned to the offline assignment,
 *    made in chunks while the replicas already serve the arrivals
 *    routed to them as planned arrivals, and the replicas run on
 *    their own between coordination points.
 *
 * Single-use: construct, then run() once.
 */
class Coordinator
{
  public:
    Coordinator(const ClusterConfig &cfg, const Trace &trace,
                const RunOptions &opts, DecisionTrace &decisions,
                obs::Telemetry &telem)
        : cfg_(cfg), trace_(trace), opts_(opts),
          liveRouting_(opts.mode == RunMode::Online),
          decisions_(decisions), telem_(telem)
    {
        if (tracer_ != nullptr) {
            tracer_->setProcessName("coordinator");
            tracer_->setThreadName(0, "coordinator");
        }
        if (as_.enabled) {
            // validate() keeps both counts within the replica count.
            const std::size_t start = as_.startReplicas == 0
                                          ? as_.minReplicas
                                          : as_.startReplicas;
            for (std::size_t i = start; i < n_; ++i)
                setActive(i, false, 0);
            // The initial active set must cover every component on a
            // heterogeneous cluster — routers abort on an arrival no
            // active replica can chain-serve. Activate the first
            // capable quiesced replica for each uncovered component
            // (same rule the quiesce path enforces via its coverage
            // guard).
            for (std::size_t c = 0; c < model_.numComponents(); ++c) {
                const auto comp = static_cast<ComponentId>(c);
                for (std::size_t i = 0; i < n_ && !covered(comp, n_);
                     ++i) {
                    if (caps_.chainOk(i, comp))
                        setActive(i, true, 0);
                }
            }
        }
    }

    ClusterResult
    run()
    {
        if (liveRouting_)
            runLockstep();
        else
            runEpochs();
        return collect();
    }

  private:
    /**
     * Online mode. Lockstep coordination on the shared virtual clock:
     * the next thing that happens cluster-wide is the earliest of the
     * next pending replica event, the next arrival, the next fault
     * action, and (autoscale only) the next control tick — fault
     * actions win all ties (a crash at t kills same-time work),
     * control ticks win ties against arrivals so same-time arrivals
     * see the post-scale active set, and arrivals win ties against
     * events so routing sees state as of the arrival instant.
     * Everything is driven by virtual time, so the schedule is
     * reproducible by construction. Fault actions scheduled after the
     * last arrival and event are never applied (there is nothing left
     * for them to affect).
     */
    void
    runLockstep()
    {
        const WallTimer coordWall;
        for (;;) {
            const Time tArr = nextArrival_ < trace_.arrivals.size()
                                  ? trace_.arrivals[nextArrival_].time
                                  : kTimeNever;
            Time tEv = kTimeNever;
            for (const auto &engine : engines_)
                tEv = std::min(tEv, engine->nextEventTime());
            if (tArr == kTimeNever && tEv == kTimeNever)
                break;
            // From here min(tArr, tEv) is finite, so a never-due
            // fault, tick or sample loses every comparison below.
            const Time tFault = faults_[nextFault_].time;
            const Time tCtl = as_.enabled ? nextControl_ : kTimeNever;

            // Sampler rows are due before anything else happens; they
            // never step, decide or mutate, so firing them first
            // cannot perturb the schedule below.
            const Time t = std::min({tArr, tEv, tFault, tCtl});
            const Time tSample = telem_.nextSampleTime();
            if (tSample <= t) {
                sample(tSample);
                continue;
            }
            // Advance every clock to t, then drain what the step
            // produced in a fixed order: the preemption decisions in
            // replica order, the migration outboxes, finished quiesce
            // drains.
            stepAll(t, false, [] {});
            for (std::size_t i = 0; i < n_; ++i)
                drainPreempt(i);
            if (migrationOn_)
                drainOutboxes(t);
            noteQuiesceDrains();
            if (tFault == t) {
                applyFault(faults_[nextFault_++]);
            } else if (tCtl == t) {
                control(t);
                nextControl_ += as_.interval;
            } else if (tArr == t) {
                // No replica event strictly precedes the arrival:
                // route it at its arrival instant.
                route(nextArrival_++);
            } else if (cfg_.workStealing.enabled) {
                // Replica events precede the next arrival: the
                // earliest round ran everywhere; let idle replicas
                // steal.
                steal(t);
            }
        }
        telem_.host().add("coordinate", coordWall.elapsedMicros());
    }

    /**
     * Static mode: route the trace offline, give replica i the
     * arrivals routed to it as planned arrivals, and let the replicas
     * run on their own between coordination points — a fault action,
     * an epoch sample and an orphan (an arrival pinned to a replica
     * that has crashed since routing). Replicas interact only at
     * faults, so an orphan steps only the replica it is re-homed to.
     * At one instant a sample comes first, then a fault, then
     * arrivals. Samples and faults after the last event and arrival
     * never apply, as in online mode.
     *
     * Private-tier replicas stream: the caller routes the first chunk
     * of kRouteChunk arrivals, then the rest chunk by chunk while each
     * replica plans what is routed to it and steps up to the first
     * coordination point on its own thread (streamShards()). Routing
     * ends before the first fault, which fixes each shard's request
     * ids before a crash re-homes work. Replicas sharing a tier get
     * their whole shards first, then step in replica order.
     *
     * The pinned Route records are noted in arrival order (see
     * notePinned()): before any crash no arrival is an orphan, so an
     * epoch whose replicas step on threads notes them on the caller's
     * thread meanwhile, streamed routing included; otherwise the notes
     * come first and stop at an orphan, which route() re-homes. None
     * of this reorders the decision stream: the replicas decide
     * nothing while they step.
     */
    void
    runEpochs()
    {
        const WallTimer routeWall;
        const std::size_t total = trace_.size();
        assignment_.reserve(total);
        // Room for any split: a replica reads its shard in place while
        // the caller appends to it, so the shard must never move.
        shards_.resize(n_);
        for (std::vector<ImageArrival> &shard : shards_)
            shard.reserve(total);
        const bool stream = sharedCpu_ == nullptr && n_ > 1 && total > 0;
        if (stream) {
            routeUpTo(std::min(kRouteChunk, total));
        } else {
            routeUpTo(total);
            for (std::size_t i = 0; i < n_; ++i) {
                engines_[i]->admitPlanned(shards_[i].data(),
                                          shards_[i].size(), total, true);
            }
        }
        telem_.host().add("route_shard", routeWall.elapsedMicros());

        const WallTimer runWall;
        if (stream) {
            streamShards(
                std::min(telem_.nextSampleTime(), faults_[nextFault_].time));
        }
        for (;;) {
            const Time tSample = telem_.nextSampleTime();
            const Time tFault = faults_[nextFault_].time;
            const Time t = std::min(tSample, tFault);
            // Epochs that end at a fault or the end step on threads.
            const bool threaded = tSample != t || t == kTimeNever;
            if (!threaded || crashes_ > 0) {
                notePinned(tFault);
                if (nextArrival_ < total &&
                    trace_.arrivals[nextArrival_].time < t) {
                    // notePinned() stopped at an orphan.
                    route(nextArrival_++);
                    continue;
                }
            }
            if (t == kTimeNever)
                break;
            // A sample at t sees everything before t; so does a fault,
            // which then applies after every event at t and before the
            // arrivals at t.
            stepAll(t - 1, threaded, [this, tFault] { notePinned(tFault); });
            if (nextArrival_ == total &&
                std::all_of(engines_.begin(), engines_.end(),
                            [](const auto &engine) {
                                return engine->nextEventTime() == kTimeNever;
                            }))
                break; // nothing is left at or after t
            if (tSample == t) {
                sample(t);
                continue;
            }
            for (std::size_t i = 0; i < n_; ++i) {
                if (engines_[i]->stepBefore(t) > 0)
                    dirty_[i] = 1;
                drainPreempt(i);
            }
            applyFault(faults_[nextFault_++]);
        }
        stepAll(kTimeNever, true, [this] { notePinned(kTimeNever); });
        for (std::size_t i = 0; i < n_; ++i)
            drainPreempt(i);
        telem_.host().add("replica_run", runWall.elapsedMicros());
    }

    /**
     * Route the arrivals up to @p end offline, in arrival order, onto
     * their replicas' shards. notePinned() notes their Route records.
     */
    void
    routeUpTo(std::size_t end)
    {
        for (; assignment_.size() < end;) {
            const ImageArrival &a = trace_.arrivals[assignment_.size()];
            const std::size_t r = router_->route(a);
            shards_[r].push_back(a);
            assignment_.push_back(r);
        }
    }

    /**
     * Route the rest of the trace on the caller's thread while the
     * replicas, each on a thread of its own, plan the arrivals routed
     * to them and step (streamReplica()); then note the Route records
     * before the first fault meanwhile. Returns with routing done and
     * every replica stepped to just before @p until (drained for
     * kTimeNever). A replay divergence noted beside the threads is
     * reported after the join, as in stepAll().
     */
    void
    streamShards(Time until)
    {
        RouteGate gate(n_);
        gate.publish(assignment_.size(), shards_);
        std::vector<std::thread> threads;
        const auto start = [&](std::size_t i) {
            threads.emplace_back(
                [this, &gate, i, until, shard = shards_[i].data()] {
                    streamReplica(i, shard, gate, until);
                });
        };
        // The last replica's thread starts when routing ends: until
        // then the routing takes its place, so the threads never
        // outnumber the replicas.
        for (std::size_t i = 0; i + 1 < n_; ++i)
            start(i);
        for (std::size_t routed = assignment_.size(); routed < trace_.size();) {
            routed = std::min(routed + kRouteChunk, trace_.size());
            routeUpTo(routed);
            gate.publish(routed, shards_);
        }
        start(n_ - 1);
        notePinned(faults_.front().time);
        for (std::thread &th : threads)
            th.join();
        decisions_.check();
    }

    /**
     * Replica @p i's side of streamShards(): at each hand-off, plan the
     * arrivals routed to its @p shard so far and step to just before
     * the first arrival not yet routed (every later arrival is at or
     * after it), and never to @p until or past it.
     */
    void
    streamReplica(std::size_t i, const ImageArrival *shard, RouteGate &gate,
                  Time until)
    {
        const std::size_t total = trace_.size();
        ServingEngine &engine = *engines_[i];
        for (std::size_t routed = 0; routed < total;) {
            const RouteGate::Routed seen = gate.waitPast(routed, i);
            routed = seen.arrivals;
            engine.admitPlanned(shard, seen.shard, total, routed == total);
            const Time horizon =
                routed < total ? std::min(until, trace_.arrivals[routed].time)
                               : until;
            const std::uint64_t ran = horizon == kTimeNever
                                          ? engine.stepUntil(kTimeNever)
                                          : engine.stepUntil(horizon - 1);
            dirty_[i] |= static_cast<char>(ran > 0);
        }
    }

    /**
     * Note the Route records of the pinned arrivals before @p before,
     * in arrival order. They were decided offline, so they emit no
     * trace instant. Stops at an orphan: its replica crashed at or
     * before its arrival time (every earlier crash has been applied),
     * so it is re-homed, and route() records it, at its arrival
     * instant. May run beside the replica threads: it reads only the
     * trace, the assignment and crashed_ (which only applyFault()
     * changes, between epochs), and a replay divergence waits for the
     * join (see stepAll()).
     */
    void
    notePinned(Time before)
    {
        for (; nextArrival_ < trace_.size() &&
               trace_.arrivals[nextArrival_].time < before;
             ++nextArrival_) {
            const std::size_t r = assignment_[nextArrival_];
            if (crashed_[r])
                return;
            decisions_.noteDeferred({trace_.arrivals[nextArrival_].time,
                                     DecisionKind::Route,
                                     static_cast<std::uint64_t>(nextArrival_),
                                     static_cast<std::uint64_t>(r), 0});
        }
    }

    /**
     * Note @p d in the decision stream and, when tracing, emit the
     * coordinator instant its kind maps to in kInstants.
     */
    void
    record(const DecisionRecord &d)
    {
        decisions_.note(d);
        const InstantSpec &s =
            d.kind == DecisionKind::Route && d.b == n_
                ? kLostRoute
                : kInstants[static_cast<std::size_t>(d.kind)];
        if (tracer_ == nullptr || s.name == nullptr)
            return;
        tracer_->instant(s.name, 0, d.time,
                         {s.a, static_cast<std::int64_t>(d.a)},
                         {s.b, static_cast<std::int64_t>(d.b)},
                         {s.c, static_cast<std::int64_t>(d.c)});
    }

    /**
     * Capability rule for moving @p req to replica @p i, shared by
     * stealing, evacuation, crash re-homing and migration: the same
     * rule the routers apply (router.h). On a heterogeneous cluster a
     * replica may never have been profiled for some architecture, and
     * dispatching such a request there aborts deep in the scheduler's
     * estimate. A classify request brings its whole chain, so the
     * target must also serve the detect child it may spawn.
     */
    bool
    serves(std::size_t i, const Request &req) const
    {
        if (req.stage == Stage::Classify)
            return caps_.chainOk(i, req.component);
        return caps_.archOk(i, model_.expert(req.expert).arch);
    }

    /** Whether an active replica other than @p excluding chain-serves @p c. */
    bool
    covered(ComponentId c, std::size_t excluding) const
    {
        for (std::size_t i = 0; i < n_; ++i) {
            if (i != excluding && active_[i] && caps_.chainOk(i, c))
                return true;
        }
        return false;
    }

    /**
     * First active replica at or after @p cursor (wrapping) that
     * serves @p req; @p none when no active replica does.
     */
    std::size_t
    rehomeTarget(std::size_t cursor, const Request &req,
                 std::size_t none) const
    {
        for (std::size_t j = 0; j < n_; ++j) {
            const std::size_t i = (cursor + j) % n_;
            if (active_[i] && serves(i, req))
                return i;
        }
        return none;
    }

    /**
     * Move replica @p i into or out of the active set at @p now: the
     * one place the active count, its time integral and the view gate
     * (the only writer of ReplicaLoadView::acceptingWork) change.
     */
    void
    setActive(std::size_t i, bool on, Time now)
    {
        live_[i].acceptingWork = on;
        if ((active_[i] != 0) == on)
            return;
        activeIntegral_ += static_cast<double>(activeCount_) *
                           static_cast<double>(now - lastActiveMark_);
        lastActiveMark_ = now;
        active_[i] = on ? 1 : 0;
        activeCount_ = on ? activeCount_ + 1 : activeCount_ - 1;
    }

    /** Refill replica @p i's view; its gate stays as setActive() left it. */
    void
    refreshView(std::size_t i)
    {
        engines_[i]->fillLoadView(live_[i]);
        dirty_[i] = 0;
    }

    /**
     * Views are refilled lazily: a replica's observable state only
     * changes when it executes events or accepts a request, so clean
     * views are reused across arrivals (the clock-only staleness of
     * `now` is absorbed by the routers' max(arrival.time, ...)). The
     * same rule keeps resident()/queued(), which read the engine live,
     * equal to what a fill-time copy would hold.
     */
    void
    refreshViews()
    {
        for (std::size_t i = 0; i < n_; ++i) {
            if (dirty_[i])
                refreshView(i);
        }
    }

    /**
     * Replica-local preemption decisions (pause / checkpoint /
     * restore) are part of the replayable schedule: drained into the
     * decision stream in replica order at fixed points, so the
     * interleaving is deterministic: online after every lockstep step
     * and routed arrival; static at each fault, each orphan and the
     * end, so that epoch samples, which also step the replicas, leave
     * the decision stream as it is; and after a crash's capture.
     */
    void
    drainPreempt(std::size_t i)
    {
        if (!preemptOn_)
            return;
        pevBuf_.clear();
        engines_[i]->drainPreemptEvents(pevBuf_);
        for (const PreemptEvent &ev : pevBuf_) {
            DecisionKind kind = DecisionKind::Preempt;
            if (ev.what == PreemptEvent::What::Checkpoint)
                kind = DecisionKind::Checkpoint;
            else if (ev.what == PreemptEvent::What::Restore)
                kind = DecisionKind::Restore;
            record({ev.time, kind, i, static_cast<std::uint64_t>(ev.executor),
                    ev.count});
        }
    }

    /**
     * Quiesce-drain latency: virtual time from a quiesce decision to
     * the replica going fully idle — the metric migration shrinks (no
     * more waiting out the longest running batch).
     */
    void
    noteQuiesceDrains()
    {
        if (quiescing_ == 0)
            return;
        for (std::size_t i = 0; i < n_; ++i) {
            // Died or was re-activated mid-drain: not a completed
            // quiesce, so it does not enter the drain statistics.
            const bool abandoned = crashed_[i] != 0 || active_[i] != 0;
            if (quiesceStart_[i] == kTimeNever ||
                (!abandoned && engines_[i]->nextEventTime() != kTimeNever))
                continue;
            if (!abandoned) {
                const Time drain = engines_[i]->now() - quiesceStart_[i];
                quiesceDrains_ += 1;
                quiesceDrainTotal_ += drain;
                quiesceDrainMax_ = std::max(quiesceDrainMax_, drain);
            }
            quiesceStart_[i] = kTimeNever;
            quiescing_ -= 1;
        }
    }

    /**
     * Step every replica to @p t and mark the ones that executed
     * events dirty (crash migration reads the backlogs through
     * refreshViews()). With @p parallel, private-tier replicas, which
     * share no mutable state, step on one thread each when two or more
     * have work due, while @p alongside runs on the caller's thread; a
     * replay divergence it notes is reported after the join.
     * Otherwise the replicas step in replica order on the caller's
     * thread: always online and with a shared tier, so the tier sees
     * one reproducible access sequence, and in a static epoch that
     * ends at a sample, whose work per replica costs less than
     * starting a thread.
     */
    template <typename Alongside>
    void
    stepAll(Time t, bool parallel, Alongside alongside)
    {
        const auto threaded = [this, t, parallel](std::size_t i) {
            if (!parallel)
                return false;
            const Time next = engines_[i]->nextEventTime();
            return next != kTimeNever && next <= t;
        };
        const auto step = [this, t](std::size_t i) {
            dirty_[i] |= static_cast<char>(engines_[i]->stepUntil(t) > 0);
        };
        std::size_t picked = 0;
        for (std::size_t i = 0; !sharedCpu_ && i < n_; ++i)
            picked += threaded(i) ? 1 : 0;
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < n_; ++i) {
            if (picked > 1 && threaded(i))
                threads.emplace_back(step, i);
            else
                step(i);
        }
        alongside();
        for (std::thread &th : threads)
            th.join();
        decisions_.check();
    }

    /**
     * Migration target selection, shared by the outbox drain and crash
     * evacuation: least-backlogged active capable replica of the
     * image's processor kind (ties: lowest index). A live source with
     * no target keeps its group (self-migration, recorded so replays
     * cover the fallback); a dead source's unroutable group is lost —
     * the caller accounts it. Assumes refreshViews() ran.
     */
    bool
    routeCheckpoint(std::size_t src, CheckpointImage img, Time now)
    {
        std::size_t target = n_;
        Time bestLoad = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            if (i == src || !active_[i] || crashed_[i] ||
                !engines_[i]->hasExecutorKind(img.kind) ||
                !std::all_of(
                    img.requests.begin(), img.requests.end(),
                    [&](const Request &req) { return serves(i, req); }))
                continue;
            const Time load = live_[i].backlog;
            if (target == n_ || load < bestLoad) {
                target = i;
                bestLoad = load;
            }
        }
        const auto cnt = static_cast<std::uint64_t>(img.requests.size());
        if (target == n_) {
            if (crashed_[src]) {
                // Same out-of-range sentinel the crash route uses.
                decisions_.note({now, DecisionKind::Migrate, src, n_, cnt});
                return false;
            }
            target = src;
        }
        record({now, DecisionKind::Migrate, src, target, cnt});
        if (target != src) {
            migratedGroups_ += 1;
            migratedRequests_ += static_cast<std::int64_t>(cnt);
        }
        engines_[target]->adoptCheckpoint(std::move(img));
        dirty_[target] = 1;
        return true;
    }

    /**
     * Route every image in imageBuf_ off replica @p src.
     * @return requests in images no survivor could take.
     */
    std::int64_t
    routeImages(std::size_t src, Time now)
    {
        refreshViews();
        std::int64_t lost = 0;
        for (CheckpointImage &img : imageBuf_) {
            const auto cnt = static_cast<std::int64_t>(img.requests.size());
            if (!routeCheckpoint(src, std::move(img), now))
                lost += cnt;
        }
        return lost;
    }

    /** Route completed checkpoint saves out of replica outboxes. */
    void
    drainOutboxes(Time now)
    {
        for (std::size_t src = 0; src < n_; ++src) {
            imageBuf_.clear();
            if (engines_[src]->takeMigratedImages(imageBuf_) == 0)
                continue;
            const std::int64_t stranded = routeImages(src, now);
            COSERVE_CHECK(stranded == 0,
                          "outbox image stranded on a crashed replica");
        }
    }

    /**
     * In-flight stealing: when an idle thief finds no queued loot, it
     * may still pull the checkpointed tail of a *running* batch off a
     * sibling that has more queued work stuck behind it. The pause
     * request is issued here; the image lands in the sibling's outbox
     * after the (charged) save and is routed by drainOutboxes to the
     * least-loaded capable replica. The break-even guard
     * (migrationMinRemaining) and the per-group preemption budget
     * bound the churn.
     */
    void
    migrateSteal(std::size_t thief)
    {
        if (!migrationOn_)
            return;
        for (std::size_t j = 0; j < n_; ++j) {
            if (j != thief && !crashed_[j] && live_[j].queueDepth > 0 &&
                engines_[j]->requestMigrateOut(1) > 0)
                return;
        }
    }

    /**
     * An idle replica raids the most backlogged sibling whose
     * queued-but-unstarted count exceeds the threshold, taking half
     * the backlog. The victim's *time* backlog must also dwarf a
     * demand load — a thief almost always pays one switch for its
     * loot, and stealing a trivial batch trades a ~5 ms/img backlog
     * for a ~100 ms load. Deterministic: fixed iteration order on the
     * shared clock.
     */
    void
    steal(Time now)
    {
        bool anyIdle = false;
        for (const auto &engine : engines_)
            anyIdle = anyIdle || engine->nextEventTime() == kTimeNever;
        if (!anyIdle)
            return; // common case: skip the full view refresh
        refreshViews();
        for (std::size_t thief = 0; thief < n_; ++thief) {
            // A quiesced or crashed replica must not pull new work.
            if (!live_[thief].idle || !active_[thief])
                continue;
            std::size_t victim = n_;
            std::size_t depth = cfg_.workStealing.backlogThreshold;
            for (std::size_t j = 0; j < n_; ++j) {
                if (j != thief && live_[j].queueDepth > depth &&
                    live_[j].backlog > cfg_.workStealing.minBacklog) {
                    depth = live_[j].queueDepth;
                    victim = j;
                }
            }
            requestBuf_.clear();
            const std::size_t want =
                victim < n_ ? live_[victim].queueDepth / 2 : 0;
            std::size_t got = 0;
            if (sloTrace_ && want > 0) {
                // Deadline-aware pass first: prefer the loot that
                // would *violate* if it stayed — requests whose
                // deadline falls inside the victim's predicted
                // backlog drain. Only then top up with arbitrary
                // (servable) tail requests.
                const Time victimEta =
                    live_[victim].now + live_[victim].backlog;
                got = engines_[victim]->stealRequests(
                    want, requestBuf_,
                    [this, thief, victimEta](const Request &req) {
                        return req.deadline < victimEta &&
                               serves(thief, req);
                    });
            }
            if (got < want) {
                got += engines_[victim]->stealRequests(
                    want - got, requestBuf_,
                    [this, thief](const Request &req) {
                        return serves(thief, req);
                    });
            }
            if (got == 0) {
                migrateSteal(thief);
                continue;
            }
            record({now, DecisionKind::Steal, victim, thief, got});
            for (const Request &req : requestBuf_)
                engines_[thief]->injectRequest(req);
            stolenFrom_[victim] += static_cast<std::int64_t>(got);
            stolenTo_[thief] += static_cast<std::int64_t>(got);
            // Only the two parties' state changed.
            refreshView(thief);
            refreshView(victim);
        }
    }

    /**
     * Drain a quiescing replica through the steal machinery: its
     * queued-but-unstarted requests re-route to active siblings in
     * small round-robin chunks (no sibling swallows the whole drain),
     * each sibling filtering by its own capability. Queue heads stay
     * behind by design (stealFromTail) and simply finish where they
     * are — quiesce is a drain, not a kill.
     */
    void
    evacuate(std::size_t q, Time now)
    {
        for (bool progress = true; progress;) {
            progress = false;
            for (std::size_t t = 0; t < n_; ++t) {
                if (!active_[t] || t == q)
                    continue;
                requestBuf_.clear();
                const std::size_t got = engines_[q]->stealRequests(
                    4, requestBuf_,
                    [this, t](const Request &req) { return serves(t, req); });
                if (got == 0)
                    continue;
                record({now, DecisionKind::Evacuate, q, t, got});
                for (const Request &req : requestBuf_)
                    engines_[t]->injectRequest(req);
                evacuated_ += static_cast<std::int64_t>(got);
                dirty_[t] = 1;
                progress = true;
            }
        }
        // With migration on, the drain takes the *running* batches
        // too: each pauses at its next step boundary, checkpoints and
        // migrates to an active sibling — quiesce no longer waits out
        // the longest batch. (Queue heads and short tails below the
        // break-even guard still finish in place.)
        if (migrationOn_) {
            engines_[q]->requestMigrateOut(
                std::numeric_limits<std::size_t>::max());
        }
        dirty_[q] = 1;
    }

    /** One autoscale control tick at @p now. */
    void
    control(Time now)
    {
        // Window signals: SLO violation rate and queued backlog per
        // active replica since the previous control tick.
        std::int64_t completed = 0, violated = 0;
        for (const auto &engine : engines_) {
            completed += engine->sloStats().completed();
            violated += engine->sloStats().violated();
        }
        const std::int64_t dc = completed - lastCompleted_;
        const std::int64_t dv = violated - lastViolated_;
        lastCompleted_ = completed;
        lastViolated_ = violated;
        const double violRate =
            dc > 0 ? static_cast<double>(dv) / static_cast<double>(dc)
                   : 0.0;
        refreshViews();
        std::size_t backlog = 0;
        for (std::size_t i = 0; i < n_; ++i)
            backlog += live_[i].queueDepth;
        const double perActive =
            static_cast<double>(backlog) /
            static_cast<double>(activeCount_ > 0 ? activeCount_ : 1);

        // Scale up fast, down slow (the classic asymmetry): only
        // quiesces respect the cooldown — underprovision costs
        // violations immediately, overprovision only efficiency.
        if ((violRate > as_.violationHigh ||
             perActive > static_cast<double>(as_.backlogHigh)) &&
            activeCount_ + static_cast<std::size_t>(crashes_) < n_) {
            // Scale up: wake the lowest-index quiesced replica (it is
            // built, preloaded and idle — activation is instant).
            // Crashed replicas never come back.
            for (std::size_t i = 0; i < n_; ++i) {
                if (active_[i] || crashed_[i])
                    continue;
                setActive(i, true, now);
                activations_ += 1;
                lastScaleAction_ = now;
                record({now, DecisionKind::ScaleUp, i, 0, 0});
                break;
            }
        } else if (violRate < as_.violationLow &&
                   perActive <= static_cast<double>(as_.backlogLow) &&
                   activeCount_ > as_.minReplicas &&
                   now - lastScaleAction_ >= as_.cooldown) {
            // Scale down: quiesce the active replica with the least
            // queued work (ties: highest index, so replica 0 is the
            // stable core), provided coverage survives: on a
            // heterogeneous cluster the candidate may be the last
            // active replica capable of some chain.
            std::size_t q = n_;
            std::size_t qDepth = 0;
            for (std::size_t i = 0; i < n_; ++i) {
                if (active_[i] &&
                    (q == n_ || live_[i].queueDepth <= qDepth)) {
                    q = i;
                    qDepth = live_[i].queueDepth;
                }
            }
            if (q == n_)
                return;
            for (std::size_t c = 0; c < model_.numComponents(); ++c) {
                if (!covered(static_cast<ComponentId>(c), q))
                    return;
            }
            setActive(q, false, now);
            quiesces_ += 1;
            lastScaleAction_ = now;
            record({now, DecisionKind::Quiesce, q, 0, 0});
            evacuate(q, now);
            if (quiesceStart_[q] == kTimeNever) {
                quiesceStart_[q] = now;
                quiescing_ += 1;
            }
        }
    }

    /** Apply one fault action at its virtual time. */
    void
    applyFault(const FaultAction &f)
    {
        // Off actions carry factor 1.0, restoring full speed; only On
        // actions count and record their factor.
        const bool on = f.kind == DecisionKind::StragglerOn ||
                        f.kind == DecisionKind::BrownoutOn;
        switch (f.kind) {
        case DecisionKind::Crash:
            crash(f.replica, f.time);
            return;
        case DecisionKind::StragglerOn:
        case DecisionKind::StragglerOff:
            engines_[f.replica]->setComputeScale(f.factor);
            stragglers_ += on ? 1 : 0;
            break;
        case DecisionKind::BrownoutOn:
        case DecisionKind::BrownoutOff:
            engines_[f.replica]->setStorageRateScale(f.factor);
            brownouts_ += on ? 1 : 0;
            break;
        default:
            panic("unexpected fault action kind");
        }
        record({f.time, f.kind, f.replica, on ? ppm(f.factor) : 0, 0});
    }

    void
    crash(std::size_t r, Time now)
    {
        COSERVE_CHECK(!crashed_[r], "replica crashed twice");
        setActive(r, false, now);
        crashed_[r] = 1;
        crashes_ += 1;
        // Lossless recovery of in-flight work: with migration on, the
        // drain captures every running batch at its last *completed*
        // step boundary (plus parked and outbox images) and the
        // checkpoints migrate to capable survivors, which resume the
        // groups instead of re-running them from scratch. Work since
        // the last boundary is honestly re-executed.
        imageBuf_.clear();
        requestBuf_.clear();
        engines_[r]->crashDrain(imageBuf_, requestBuf_);
        drainPreempt(r); // the capture's Checkpoint records
        const std::int64_t lostCkpt = migrationOn_ ? routeImages(r, now) : 0;
        dirty_[r] = 1;
        // Re-home the queued and in-flight requests round-robin onto
        // active capable siblings (each filtered by its own capability,
        // like evacuation). Work no survivor can serve is lost — and
        // accounted.
        std::vector<std::uint64_t> rehomeCnt(n_, 0);
        std::int64_t lostHere = 0;
        std::size_t cursor = (r + 1) % n_;
        for (const Request &req : requestBuf_) {
            const std::size_t target = rehomeTarget(cursor, req, n_);
            if (target == n_) {
                lostHere += 1;
                continue;
            }
            cursor = (target + 1) % n_;
            engines_[target]->injectRequest(req);
            rehomeCnt[target] += 1;
            dirty_[target] = 1;
        }
        const auto rehomedHere =
            static_cast<std::int64_t>(requestBuf_.size()) - lostHere;
        rehomed_ += rehomedHere;
        // One request per image is in flight at a time, so every lost
        // request is exactly one lost image.
        lostHere += lostCkpt;
        lostImages_ += lostHere;
        record({now, DecisionKind::Crash, r,
                static_cast<std::uint64_t>(rehomedHere),
                static_cast<std::uint64_t>(lostHere)});
        for (std::size_t i = 0; i < n_; ++i) {
            if (rehomeCnt[i] > 0) {
                decisions_.note(
                    {now, DecisionKind::Evacuate, r, i, rehomeCnt[i]});
            }
        }
    }

    /**
     * Price @p a once on every replica from fresh views into quotes_:
     * the one row cluster admission and a live router both read.
     */
    void
    priceArrival(const ImageArrival &a)
    {
        refreshViews();
        costs_.quoteRow(a, live_, quotes_);
    }

    /**
     * Cluster-level admission: can *any* active capable replica make
     * @p a's deadline? Read from @p a's quote row (priceArrival()),
     * the estimate LeastLoaded routes with, plus the detect child the
     * chain may spawn, upstream of routing. The row prices exactly the
     * active capable replicas: setActive() writes active_ and the
     * views' acceptingWork gate together. Downgrades @p a in place;
     * returns false when it is rejected.
     */
    bool
    admit(ImageArrival &a, std::uint64_t idx)
    {
        Time best = kTimeNever;
        for (std::size_t i = 0; i < n_; ++i) {
            if (!active_[i] || !caps_.chainOk(i, a.component))
                continue;
            best = std::min(best, quotes_[i].finish +
                                      costs_.detectAdd(i, a.component));
        }
        const AdmissionVerdict verdict =
            admission_.assess(a.cls, a.time, a.deadline, best);
        if (verdict == AdmissionVerdict::Reject) {
            coordSlo_.recordRejected(a.cls);
            record({a.time, DecisionKind::Reject, idx,
                    static_cast<std::uint64_t>(a.cls), 0});
            return false;
        }
        if (verdict == AdmissionVerdict::Downgrade) {
            // Demote the *scheduling* class but keep the deadline: the
            // arrival yields to feasible deadline work, and its (likely
            // late) completion still counts against the SLO it was
            // given, so goodput never counts a downgraded straggler as
            // met.
            coordSlo_.recordDowngraded(a.cls);
            record({a.time, DecisionKind::Downgrade, idx,
                    static_cast<std::uint64_t>(a.cls), 0});
            a.cls = RequestClass::BestEffort;
        }
        return true;
    }

    /**
     * Route arrival @p next at its arrival instant: online with live
     * views (skipping the snapshot and pricing work for policies whose
     * routeLive falls back to the offline route()); static only for an
     * orphan, re-homed off the crashed replica of its pinned
     * assignment. An arrival is priced at most once: nothing steps
     * between admission and routing, and a quote never reads the
     * class a downgrade changes, so admission's row is the router's.
     */
    void
    route(std::size_t next)
    {
        ImageArrival a = trace_.arrivals[next];
        const auto idx = static_cast<std::uint64_t>(next);
        bool priced = false;
        if (liveRouting_ && cfg_.admission.enabled &&
            a.deadline != kTimeNever) {
            priceArrival(a);
            priced = true;
            if (!admit(a, idx))
                return;
        }

        std::size_t r = n_;
        if (!liveRouting_) {
            r = assignment_[next];
        } else if (crashes_ == 0 || covered(a.component, n_)) {
            if (router_->usesLiveViews()) {
                if (!priced)
                    priceArrival(a);
                r = router_->routeQuoted(a, live_, quotes_);
            } else {
                r = router_->routeLive(a, live_);
            }
            COSERVE_CHECK(r < n_, "router returned replica ", r);
        } else {
            // A crash took the last active replica able to serve this
            // chain (start-up and the quiesce guard keep coverage
            // otherwise); LeastLoaded's routeLive would abort on it.
            // Fall back as the pinned path does: a quiesced capable
            // survivor serves it, or it is lost below.
            for (std::size_t i = 0; i < n_ && r == n_; ++i) {
                if (!crashed_[i] && caps_.chainOk(i, a.component))
                    r = i;
            }
        }
        if (r < n_ && !active_[r]) {
            // Offline-fallback routers (round-robin) ignore the
            // acceptingWork gate, and a pinned static assignment may
            // point at a replica that crashed since routing: re-home
            // onto the next active capable replica. If none exists
            // (possible only on a pathological heterogeneous config),
            // serve on the quiesced pick rather than lose the image —
            // unless it crashed, in which case the image is genuinely
            // lost.
            Request probe; // an arrival is a classify request
            probe.component = a.component;
            r = rehomeTarget(r, probe, r);
        }
        // No survivor can serve this arrival's chain: record the drop
        // with the out-of-range sentinel replica `n` so replays still
        // cover it.
        const bool lost = r == n_ || crashed_[r];
        // A static orphan: only its new replica moves to the arrival
        // instant (after its own arrivals at that instant).
        if (!liveRouting_ && !lost)
            engines_[r]->stepUntil(a.time);
        record({a.time, DecisionKind::Route, idx, lost ? n_ : r, 0});
        if (lost) {
            lostImages_ += 1;
            return;
        }
        engines_[r]->admitArrival(a);
        // Execute the admission's dispatch now, so a same-time burst
        // of arrivals sees each predecessor in the queues rather than
        // racing into one replica.
        engines_[r]->stepUntil(a.time);
        dirty_[r] = 1;
        drainPreempt(r);
    }

    /**
     * Epoch sampler: online, a sample observes the quiescent DES state
     * between coordinator steps WITHOUT stepping any engine: an extra
     * runLockstep() step would reorder the preempt/outbox/quiesce
     * drains relative to an unsampled run and drift the decision
     * digest. A static run steps its replicas to just before the
     * sample with stepAll(), which drains nothing (see drainPreempt).
     * Pure observation keeps telemetry on/off byte-identical; the
     * sample reads no view, so the coordinator's `live_` views keep
     * their `now`, which stealing reads.
     */
    void
    sample(Time t)
    {
        ReplicaSample acc;
        for (const auto &engine : engines_)
            engine->sample(acc);
        if (sharedCpu_ != nullptr) {
            const TierStats shared = sharedCpu_->stats();
            acc.cpuHits += shared.counters.hits;
            acc.cpuMisses += shared.counters.misses;
        }
        const auto rate = [](std::int64_t hits, std::int64_t misses) {
            return hits + misses > 0 ? static_cast<double>(hits) /
                                           static_cast<double>(hits + misses)
                                     : 0.0;
        };
        obs::SampleRow row;
        row.t = t;
        row.activeReplicas = static_cast<int>(activeCount_);
        row.queueDepth = acc.queueDepth;
        row.images = acc.images;
        row.inferences = acc.inferences;
        row.preemptions = acc.rescues;
        row.gpuHitRate = rate(acc.gpuHits, acc.gpuMisses);
        row.cpuHitRate = rate(acc.cpuHits, acc.cpuMisses);
        if (t > 0) {
            row.goodputImgPerSec =
                static_cast<double>(row.images) / toSeconds(t);
        }
        telem_.recordSample(row);
    }

    /** Finish every replica and fold the coordinator's tallies in. */
    ClusterResult
    collect()
    {
        const WallTimer collectWall;
        std::vector<RunResult> results(n_);
        std::int64_t images = 0;
        const std::int64_t rejected = coordSlo_.rejected();
        for (std::size_t i = 0; i < n_; ++i) {
            results[i] = engines_[i]->finishOnline();
            images += results[i].images;
        }
        // Every arrival either completed somewhere, was rejected by
        // the coordinator's admission, or was lost to an injected crash
        // with no capable survivor.
        COSERVE_CHECK(images + rejected + lostImages_ ==
                          static_cast<std::int64_t>(trace_.arrivals.size()),
                      "lost images: ", images, " done + ", rejected,
                      " rejected + ", lostImages_, " crash-lost of ",
                      trace_.arrivals.size());

        ClusterResult out = aggregateClusterResult(
            cfg_.label, toString(cfg_.routing), std::move(results));
        out.wallSeconds = wall_.elapsedSeconds();
        out.stolenFromReplica = std::move(stolenFrom_);
        out.stolenToReplica = std::move(stolenTo_);
        for (std::int64_t s : out.stolenFromReplica)
            out.stolenRequests += s;
        out.workStealingEnabled = cfg_.workStealing.enabled;
        out.slo.merge(coordSlo_);
        if (as_.enabled) {
            out.autoscaleEnabled = true;
            out.autoscaleActivations = activations_;
            out.autoscaleQuiesces = quiesces_;
            out.autoscaleEvacuated = evacuated_;
            if (out.makespan > lastActiveMark_) {
                activeIntegral_ += static_cast<double>(activeCount_) *
                                   static_cast<double>(out.makespan -
                                                       lastActiveMark_);
            }
            if (out.makespan > 0) {
                out.avgActiveReplicas =
                    activeIntegral_ / static_cast<double>(out.makespan);
            }
        }
        if (preemptOn_) {
            out.preemptionEnabled = true;
            out.migratedGroups = migratedGroups_;
            out.migratedRequests = migratedRequests_;
            out.quiesceDrains = quiesceDrains_;
            out.quiesceDrainTotal = quiesceDrainTotal_;
            out.quiesceDrainMax = quiesceDrainMax_;
        }
        if (opts_.faults.any()) {
            out.faultsInjected = true;
            out.crashesInjected = crashes_;
            out.crashRehomed = rehomed_;
            out.crashLost = lostImages_;
            out.stragglersInjected = stragglers_;
            out.brownoutsInjected = brownouts_;
        }
        if (sharedCpu_ != nullptr) {
            // The shared tier is cluster-owned: replicas do not report
            // it, so append its (cross-replica) counters once, and fold
            // its disk spills into the cluster-wide disk entry
            // (private-tier runs account the same spills through each
            // engine's own disk tier).
            out.tiers.push_back(sharedCpu_->stats());
            mergeTierStats(out.tiers, sharedCpu_->diskStats());
        }
        // The coordinator's counters, exported once from the tallies
        // rather than from out's fields: those are gated on their
        // feature flags (an autoscale run with preemption off still
        // completes quiesce drains), and admission's own verdicts have
        // no field.
        const std::pair<const char *, std::int64_t> coordCounters[] = {
            {"cluster.stolen_requests", out.stolenRequests},
            {"cluster.migrated_groups", migratedGroups_},
            {"cluster.migrated_requests", migratedRequests_},
            {"cluster.autoscale_activations", activations_},
            {"cluster.autoscale_quiesces", quiesces_},
            {"cluster.autoscale_evacuated", evacuated_},
            {"cluster.quiesce_drains", quiesceDrains_},
            {"cluster.rejected", coordSlo_.rejected()},
            {"cluster.downgraded", coordSlo_.downgraded()},
            {"cluster.crashes", crashes_},
            {"cluster.crash_rehomed", rehomed_},
            {"cluster.crash_lost", lostImages_},
            {"cluster.stragglers", stragglers_},
            {"cluster.brownouts", brownouts_},
        };
        for (const auto &[name, value] : coordCounters)
            telem_.registry().counter(name).add(value);
        telem_.host().add("collect", collectWall.elapsedMicros());
        return out;
    }

    /**
     * The shared CPU tier when configured (else null): one physical
     * host DRAM behind all replicas, so evictions from any replica's
     * GPU pool demote into it and any replica's loads may hit it.
     */
    std::unique_ptr<SharedCpuTier>
    makeSharedCpuTier() const
    {
        if (!cfg_.sharedCpu.enabled)
            return nullptr;
        // bytes 0 means the same total DRAM as the private split: only
        // replicas whose private tier would be enabled contribute.
        const std::int64_t bytes = cfg_.sharedCpu.bytes;
        std::int64_t cap = bytes;
        for (const ReplicaSpec &r : cfg_.replicas)
            cap += bytes == 0 && r.cfg.cpuCacheTier ? r.cfg.cpuCacheBytes : 0;
        COSERVE_CHECK(cap > 0, "sharedCpu needs bytes ",
                      "or replicas with an enabled cpuCacheTier");
        return std::make_unique<SharedCpuTier>(cap);
    }

    /** Build every replica engine, timed as the "build" host phase. */
    std::vector<std::unique_ptr<ServingEngine>>
    buildEngines() const
    {
        std::vector<std::unique_ptr<ServingEngine>> engines;
        for (std::size_t i = 0; i < n_; ++i) {
            const ReplicaSpec &spec = cfg_.replicas[i];
            EngineConfig cfg = spec.cfg;
            cfg.label = cfg_.label + "/replica" + std::to_string(i);
            if (sharedCpu_ != nullptr)
                cfg.externalCpuTier = sharedCpu_.get();
            // This replica's span-trace buffer (null unless telemetry
            // is enabled), pre-created by the Telemetry ctor.
            cfg.tracer = telem_.replicaTracer(static_cast<int>(i));
            // Cluster-level preemption policy applies uniformly, off
            // included: migration break-even and hysteresis must agree
            // across replicas or a group migratable at its source would
            // be un-adoptable at its target, and a replica that
            // preempts on its own would buffer decisions the log never
            // sees.
            cfg.preemption = cfg_.preemption;
            engines.push_back(makeCoServeEngine(*spec.ctx, std::move(cfg)));
            // Online: disjoint strided id spaces, since stolen requests
            // keep their id. Static: a replica numbers its shard as a
            // standalone engine serving it would.
            engines.back()->beginOnline(
                static_cast<RequestId>(liveRouting_ ? i : 0),
                static_cast<RequestId>(liveRouting_ ? n_ : 1));
        }
        telem_.host().add("build", wall_.elapsedMicros());
        return engines;
    }

    // ----- run inputs (member order is initialization order) ----------
    const ClusterConfig &cfg_;
    const Trace &trace_;
    const RunOptions &opts_;
    const bool liveRouting_;
    DecisionTrace &decisions_;
    obs::Telemetry &telem_;
    const std::size_t n_ = cfg_.replicas.size();
    const AutoscaleConfig &as_ = cfg_.autoscale;
    const bool preemptOn_ = cfg_.preemption.enabled;
    const bool migrationOn_ = preemptOn_ && cfg_.preemption.migration;
    const std::unique_ptr<SharedCpuTier> sharedCpu_ = makeSharedCpuTier();
    // Engine construction and preload count toward wallSeconds.
    const WallTimer wall_;
    const std::vector<std::unique_ptr<ServingEngine>> engines_ =
        buildEngines();
    // The coordinator's trace buffer (pid 0; null when telemetry is
    // off). Its counters are the tallies below, exported once to the
    // registry at collection time.
    obs::ReplicaTracer *const tracer_ = telem_.coordinatorTracer();

    // ----- routing: one cost model, a live router or a pinned route ----
    const std::vector<ReplicaView> views_ = makeReplicaViews(cfg_);
    const CoEModel &model_ = cfg_.replicas.front().ctx->model();
    // Every capability check, cluster admission's live estimate and
    // LeastLoaded's prices read this one model's tables.
    const LiveCostModel costs_{model_, views_};
    const CapabilityTable &caps_ = costs_.caps();
    // Routes each arrival: live (online) or offline (static).
    const std::unique_ptr<ReplicaRouter> router_ =
        makeRouter(cfg_.routing, model_, views_, &costs_);
    // The arrival being routed, priced on every replica (priceArrival).
    std::vector<LiveCostModel::Quote> quotes_;
    // The next arrival to route (online) or whose Route record is due
    // (static).
    std::size_t nextArrival_ = 0;
    // Static: routing pinned to the offline assignment (one replica per
    // arrival routed so far) and each replica's planned arrivals.
    std::vector<std::size_t> assignment_;
    std::vector<std::vector<ImageArrival>> shards_;
    const std::vector<FaultAction> faults_ = flattenFaults(opts_.faults);
    std::size_t nextFault_ = 0;
    // Does the trace carry SLO metadata at all? Classless traces skip
    // every SLO code path (admission, at-risk steal pass; online only).
    const bool sloTrace_ = liveRouting_ && std::any_of(
        trace_.arrivals.begin(), trace_.arrivals.end(),
        [](const ImageArrival &a) {
            return sloTracked(a.cls) || a.deadline != kTimeNever;
        });
    const AdmissionController admission_{cfg_.admission};

    // ----- per-replica state ------------------------------------------
    //
    // Which replicas take new work: with autoscaling off every replica
    // not crashed is active for the whole run.
    std::vector<char> active_ = std::vector<char>(n_, 1);
    std::size_t activeCount_ = n_;
    double activeIntegral_ = 0.0;
    Time lastActiveMark_ = 0;
    std::vector<char> crashed_ = std::vector<char>(n_, 0);
    std::vector<ReplicaLoadView> live_ = std::vector<ReplicaLoadView>(n_);
    std::vector<char> dirty_ = std::vector<char>(n_, 1);
    std::vector<Time> quiesceStart_ = std::vector<Time>(n_, kTimeNever);
    std::vector<std::int64_t> stolenFrom_ = std::vector<std::int64_t>(n_, 0);
    std::vector<std::int64_t> stolenTo_ = std::vector<std::int64_t>(n_, 0);

    // ----- tallies ----------------------------------------------------
    std::int64_t crashes_ = 0, rehomed_ = 0, lostImages_ = 0;
    std::int64_t stragglers_ = 0, brownouts_ = 0;
    std::int64_t migratedGroups_ = 0, migratedRequests_ = 0;
    std::size_t quiescing_ = 0;
    std::int64_t quiesceDrains_ = 0;
    Time quiesceDrainTotal_ = 0, quiesceDrainMax_ = 0;
    SloStats coordSlo_; // cluster-level admission verdicts
    // Autoscale control window.
    std::int64_t lastCompleted_ = 0, lastViolated_ = 0;
    std::int64_t activations_ = 0, quiesces_ = 0, evacuated_ = 0;
    Time lastScaleAction_ = -as_.cooldown;
    Time nextControl_ = as_.interval;

    // ----- scratch buffers --------------------------------------------
    std::vector<PreemptEvent> pevBuf_;
    std::vector<CheckpointImage> imageBuf_;
    std::vector<Request> requestBuf_;
};

} // namespace

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

    // Every run serves a time-ordered stream: the online coordinator
    // routes each arrival at its arrival time, a static replica admits
    // its shard in arrival order, and a fault plan re-homes arrivals at
    // their arrival instants. Checked here, once, before any replica
    // thread starts, so no thread ever exits while others run.
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace.arrivals[i].time < trace.arrivals[i - 1].time) {
            fatal("the coordinator needs time-sorted arrivals: arrival ",
                  i, " is earlier than arrival ", i - 1);
        }
    }

    DecisionTrace decisions(!opts.recordPath.empty());
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

    ClusterResult out =
        Coordinator(cfg_, trace, opts, decisions, telem).run();

    decisions.finish();
    out.decisionDigest = decisions.digest();
    out.decisionCount = static_cast<std::int64_t>(decisions.count());
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
