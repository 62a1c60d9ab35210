/**
 * @file
 * simbench — host-speed benchmark of the CoServe simulator.
 *
 * Measures how much host time the simulator spends per simulated
 * request on four fixed workloads, and checks on every run that the
 * simulated results are exactly the ones the simulator must produce.
 * All timing is taken here, around calls into the simulator's public
 * API; the program under test carries no benchmark instrumentation.
 * Timed repeats alternate with repeats of a frozen reference copy of
 * the simulator (reference.h), which cancels host speed changes.
 *
 *   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out <dir>] [--scale <f>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics and writes a span file to <dir>. --scale stretches
 * the workload's trace length (the bounded-backlog check). The last
 * stdout line is one JSON object; simbench/run.py checks it against
 * the pinned outputs and turns it into the benchmark result. See
 * simbench/README.md for the workloads and the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/cluster_result.h"
#include "reference.h"
#include "sim/event_queue.h"
#include "util/walltime.h"
#include "workloads.h"

using namespace coserve;

namespace {

// ---------------------------------------------------------------- spans

/**
 * In-memory span log of the traced run: one record per call into a
 * layer, written out as JSON when the run ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(const WallTimer &epoch) : epoch_(epoch) {}

    /** Open span @p name under @p parent (-1: root); returns its id. */
    int
    begin(const char *name, int parent)
    {
        spans_.push_back({name, parent, epoch_.elapsedMicros(), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int id) { spans_[id].endUs = epoch_.elapsedMicros(); }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"spans\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"parent\": "
                         "%d, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                         i, s.name, s.parent, s.startUs, s.endUs,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        int parent;
        double startUs;
        double endUs;
    };
    const WallTimer &epoch_;
    std::vector<Span> spans_;
};

/** Scoped span; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, int parent)
        : log_(log), id_(log ? log->begin(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// ------------------------------------------------------ set-up and runs

/** Everything one workload needs before its run call. */
struct Bench
{
    Kind kind = Kind::BoardBacklog;
    std::unique_ptr<CoEModel> model;
    std::unique_ptr<Harness> harness;
    Trace trace;
    EngineConfig cfg;

    // Host seconds of each set-up step.
    double boardS = 0, offlineS = 0, generateS = 0, buildS = 0;
    double totalS() const { return boardS + offlineS + generateS + buildS; }
};

ClusterConfig
clusterConfig(const Bench &b)
{
    return clusterConfig(b.kind, b.harness->context(), b.cfg);
}

/**
 * Full set-up: board build, offline profiling, trace generation and
 * engine/cluster construction, each timed. The engine built here is
 * discarded (engines are single-use); its construction time stands
 * for every later one.
 */
Bench
setup(Kind kind, std::uint64_t seed, double scale, SpanLog *spans)
{
    const ScopedSpan root(spans, "setup", -1);
    Bench b;
    b.kind = kind;
    WallTimer t;
    {
        const ScopedSpan s(spans, "coe.build_board", root.id());
        b.model = std::make_unique<CoEModel>(buildBoard(workloadBoard(kind)));
    }
    b.boardS = t.elapsedSeconds();
    t.restart();
    {
        const ScopedSpan s(spans, "core.offline", root.id());
        b.harness = std::make_unique<Harness>(workloadDevice(kind), *b.model);
    }
    b.offlineS = t.elapsedSeconds();
    t.restart();
    {
        const ScopedSpan s(spans, "workload.generate", root.id());
        b.trace = generateWorkloadTrace(kind, *b.model, seed, scale);
    }
    b.generateS = t.elapsedSeconds();
    t.restart();
    {
        const ScopedSpan s(spans, "build", root.id());
        b.cfg = engineConfig(kind, *b.harness, b.trace);
        if (isCluster(kind))
            ClusterEngine cluster(clusterConfig(b));
        else
            makeCoServeEngine(b.harness->context(), b.cfg);
    }
    b.buildS = t.elapsedSeconds();
    return b;
}

/** Simulated outputs of one run: must repeat exactly. */
struct SimOutputs
{
    std::int64_t arrivals = 0;
    std::int64_t images = 0;
    std::int64_t rejected = 0;
    std::int64_t crashLost = 0;
    double throughput = 0;
    double goodput = 0;
    double latencyP50 = 0;
    double latencyP99 = 0;
    std::int64_t switches = 0;
    std::uint64_t digest = 0;

    bool
    operator==(const SimOutputs &o) const
    {
        return arrivals == o.arrivals && images == o.images &&
               rejected == o.rejected && crashLost == o.crashLost &&
               throughput == o.throughput && goodput == o.goodput &&
               latencyP50 == o.latencyP50 &&
               latencyP99 == o.latencyP99 && switches == o.switches &&
               digest == o.digest;
    }
};

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        add(bits);
    }
};

/**
 * The per-run digest: the coordinator's decision digest (clusters),
 * every replica's executor assignment per request id (the
 * dependency-aware scheduler's decisions) and every request latency in
 * completion order. Event counts are left out on purpose: removing an
 * event without changing behaviour is a legitimate speed-up.
 */
void
digestReplica(Digest &d, const RunResult &r)
{
    d.add(static_cast<std::uint64_t>(r.assignments.size()));
    for (int a : r.assignments)
        d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(a)));
}

void
digestLatencies(Digest &d, const Samples &s)
{
    d.add(static_cast<std::uint64_t>(s.count()));
    for (double x : s.raw())
        d.add(x);
}

/** Host-side measurements and layer counters of one run. */
struct Record
{
    /** Host seconds around the run call. */
    double wallS = 0;
    SimOutputs sim;
    std::uint64_t events = 0;
    /** Sampled (1-in-16) dispatch wall times, all replicas. */
    std::vector<double> dispatchUs;
    std::vector<TierStats> tiers;
    SwitchCounters switches;
    std::int64_t downgraded = 0;
    double violationShare = 0;
    /** Cluster-only below. */
    obs::MetricsSnapshot metrics;
    double imbalance = 0;
    std::int64_t stolen = 0, decisions = 0;
    std::int64_t rescues = 0, checkpointBytes = 0, restored = 0,
                 migrated = 0;

    double
    usPerRequest() const
    {
        return wallS * 1e6 / static_cast<double>(sim.arrivals);
    }
};

/** Build a fresh engine or cluster (untimed) and time its run call. */
Record
runOnce(const Bench &b, const obs::TelemetryConfig &telemetry = {})
{
    Record rec;
    Digest d;
    // The fields RunResult and ClusterResult share.
    const auto fill = [&rec, &d, &b](const auto &r) {
        rec.sim.arrivals = static_cast<std::int64_t>(b.trace.size());
        rec.sim.images = r.images;
        rec.sim.rejected = r.slo.rejected();
        rec.sim.throughput = r.throughput;
        // Deadline-free images all meet their (absent) deadline.
        rec.sim.goodput =
            r.slo.any() ? r.slo.goodput(r.makespan) : r.throughput;
        rec.sim.latencyP50 = r.requestLatencyMs.percentile(50);
        rec.sim.latencyP99 = r.requestLatencyMs.percentile(99);
        rec.sim.switches = r.switches.total();
        digestLatencies(d, r.requestLatencyMs);
        rec.sim.digest = d.h;
        rec.events = r.eventsExecuted;
        rec.tiers = r.tiers;
        rec.switches = r.switches;
        rec.downgraded = r.slo.downgraded();
        rec.violationShare = r.slo.violationRate();
    };
    if (!isCluster(b.kind)) {
        auto engine = makeCoServeEngine(b.harness->context(), b.cfg);
        const WallTimer t;
        const RunResult r = engine->run(b.trace);
        rec.wallS = t.elapsedSeconds();
        digestReplica(d, r);
        fill(r);
        rec.dispatchUs = r.schedulingWallUs.raw();
        return rec;
    }
    ClusterEngine cluster(clusterConfig(b));
    const RunOptions opts = runOptions(b.kind, telemetry);
    const WallTimer t;
    const ClusterResult r = cluster.run(b.trace, opts);
    rec.wallS = t.elapsedSeconds();
    d.add(r.decisionDigest);
    for (const RunResult &rep : r.replicas) {
        digestReplica(d, rep);
        for (double x : rep.schedulingWallUs.raw())
            rec.dispatchUs.push_back(x);
    }
    fill(r);
    rec.sim.crashLost = r.crashLost;
    rec.metrics = r.metrics;
    rec.imbalance = r.imbalance();
    rec.stolen = r.stolenRequests;
    rec.decisions = r.decisionCount;
    rec.rescues = r.preemptions;
    rec.checkpointBytes = r.checkpointBytes;
    rec.restored = r.restoredGroups;
    rec.migrated = r.migratedGroups;
    return rec;
}

// --------------------------------------------------------------- probes

/**
 * EventQueue probe: ~1k events in flight, each pop schedules its
 * successor at a pseudo-random delay, every 8th also schedules and
 * cancels a dummy. Returns host ns per queue operation
 * (schedule, cancel or pop).
 */
double
queueProbe(std::uint64_t pops)
{
    EventQueue eq;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::uint64_t ops = 0;
    const auto delay = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<Time>(1 + ((lcg >> 33) % 1000));
    };
    for (int i = 0; i < 1024; ++i) {
        eq.schedule(delay(), [] {});
        ++ops;
    }
    const WallTimer t;
    for (std::uint64_t i = 0; i < pops; ++i) {
        eq.runOne();
        eq.schedule(eq.now() + delay(), [] {});
        ops += 2;
        if ((i & 7) == 0) {
            eq.cancel(eq.schedule(eq.now() + delay(), [] {}));
            ops += 2;
        }
    }
    return t.elapsedSeconds() * 1e9 / static_cast<double>(ops);
}

/** Per-call-class host time of the online layer probe. */
struct ProbeTotals
{
    double wallS = 0;
    double stepUs = 0, viewUs = 0, routeUs = 0, admitUs = 0;
    std::int64_t stepCalls = 0, viewCalls = 0, routeCalls = 0,
                 admitCalls = 0;
    std::int64_t images = 0;
};

/**
 * Replay the workload's trace through ServingEngine's online API and
 * the LeastLoaded router's routeLive — the calls the cluster
 * coordinator makes for every arrival, without stealing, admission,
 * autoscaling or faults — timing each call class.
 */
ProbeTotals
onlineProbe(const Bench &b)
{
    ProbeTotals p;
    const ClusterConfig cc = clusterConfig(b);
    const std::size_t n = cc.replicas.size();
    const WallTimer wall;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    std::vector<ReplicaView> views;
    for (std::size_t i = 0; i < n; ++i) {
        EngineConfig cfg = cc.replicas[i].cfg;
        if (cc.preemption.enabled)
            cfg.preemption = cc.preemption;
        engines.push_back(makeCoServeEngine(*cc.replicas[i].ctx, cfg));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(n));
        views.push_back({cc.replicas[i].ctx, &cc.replicas[i].cfg});
    }
    const auto router =
        makeRouter(RoutingPolicy::LeastLoaded, *b.model, views);
    std::vector<ReplicaLoadView> live(n);
    std::vector<char> dirty(n, 1);
    std::vector<PreemptEvent> preemptEvents;

    const auto step = [&](std::size_t i, Time t) {
        const WallTimer c;
        const std::uint64_t ran = engines[i]->stepUntil(t);
        p.stepUs += c.elapsedMicros();
        p.stepCalls += 1;
        if (ran > 0) {
            dirty[i] = 1;
            preemptEvents.clear();
            engines[i]->drainPreemptEvents(preemptEvents);
        }
    };
    for (const ImageArrival &a : b.trace.arrivals) {
        for (std::size_t i = 0; i < n; ++i)
            step(i, a.time);
        for (std::size_t i = 0; i < n; ++i) {
            if (!dirty[i])
                continue;
            const WallTimer c;
            engines[i]->fillLoadView(live[i]);
            p.viewUs += c.elapsedMicros();
            p.viewCalls += 1;
            dirty[i] = 0;
        }
        WallTimer c;
        const std::size_t r = router->routeLive(a, live);
        p.routeUs += c.elapsedMicros();
        p.routeCalls += 1;
        COSERVE_CHECK(r < n, "router returned replica ", r);
        c.restart();
        engines[r]->admitArrival(a);
        p.admitUs += c.elapsedMicros();
        p.admitCalls += 1;
        step(r, a.time);
    }
    for (;;) {
        Time t = kTimeNever;
        for (const auto &e : engines)
            t = std::min(t, e->nextEventTime());
        if (t == kTimeNever)
            break;
        for (std::size_t i = 0; i < n; ++i)
            step(i, t);
    }
    for (const auto &e : engines)
        p.images += e->finishOnline().images;
    p.wallS = wall.elapsedSeconds();
    return p;
}

// -------------------------------------------------------------- helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartile @p q in {1, 3}, Python statistics.quantiles' method. */
double
quartile(std::vector<double> v, int q)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    if (v.size() < 2)
        return v.empty() ? 0.0 : v[0];
    const double pos = q * (n + 1) / 4.0;
    const auto j = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - std::floor(pos);
    if (j < 1)
        return v.front();
    if (j >= v.size())
        return v.back();
    return v[j - 1] + frac * (v[j] - v[j - 1]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
hitRate(const std::vector<TierStats> &tiers, const char *level)
{
    std::int64_t hits = 0, misses = 0;
    for (const TierStats &t : tiers) {
        if (t.level == level) {
            hits += t.counters.hits;
            misses += t.counters.misses;
        }
    }
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
}

/** Named metric with its unit, in print order. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Correctness bookkeeping of one invocation. */
struct Checks
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;

    /** Check one run's outputs against @p expected (conservation + repeat). */
    void
    run(const Record &rec, const SimOutputs &expected, const char *what)
    {
        attempted += 1;
        const SimOutputs &s = rec.sim;
        std::string why;
        if (s.images + s.rejected + s.crashLost != s.arrivals)
            why = "conservation broken (images + rejected + crashLost "
                  "!= arrivals)";
        else if (!(s == expected))
            why = "simulated outputs differ from the first run";
        if (!why.empty()) {
            failed += 1;
            failures.push_back(std::string(what) + ": " + why);
        }
    }

    void
    fail(std::string why)
    {
        failed += 1;
        failures.push_back(std::move(why));
    }
};

void
printSimJson(std::FILE *f, const SimOutputs &s)
{
    std::fprintf(f,
                 "{\"arrivals\": %" PRId64 ", \"images\": %" PRId64
                 ", \"rejected\": %" PRId64 ", \"crash_lost\": %" PRId64
                 ", \"sim_throughput_img_s\": %.17g"
                 ", \"sim_goodput_img_s\": %.17g"
                 ", \"sim_latency_p50_ms\": %.17g"
                 ", \"sim_latency_p99_ms\": %.17g"
                 ", \"sim_switches\": %" PRId64
                 ", \"digest\": \"%016" PRIx64 "\"}",
                 s.arrivals, s.images, s.rejected, s.crashLost,
                 s.throughput, s.goodput, s.latencyP50, s.latencyP99,
                 s.switches, s.digest);
}

void
printMetricsJson(std::FILE *f, const std::vector<Metric> &ms)
{
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                     ms[i].unit);
    }
    std::fprintf(f, "}");
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value, m.unit);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <name> "
                 "[--seed <n>] [--seconds <s>] [--trace 0|1] "
                 "[--out <dir>] [--scale <f>]\n",
                 msg);
    std::exit(2);
}

struct Args
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    double scale = 1.0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = findWorkload(v.c_str());
            if (a.workload == nullptr)
                usage(("unknown workload " + v).c_str());
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 0);
            a.seedGiven = true;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = std::strtol(v.c_str(), &end, 10) != 0;
        } else if (k == "--out") {
            a.outDir = v;
            end = nullptr;
        } else if (k == "--scale") {
            a.scale = std::strtod(v.c_str(), &end);
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + k + ": " + v).c_str());
    }
    if (a.workload == nullptr)
        usage("--workload is required");
    if (!(a.seconds > 0) || !(a.scale > 0))
        usage("--seconds and --scale must be positive");
    if (!a.seedGiven)
        a.seed = a.workload->defaultSeed;
    return a;
}

constexpr int kSetups = 21;

} // namespace

int
main(int argc, char **argv)
{
    const WallTimer epoch;
    const Args args = parseArgs(argc, argv);
    const Kind kind = args.workload->kind;
    SpanLog spanLog(epoch);
    SpanLog *spans = args.trace ? &spanLog : nullptr;

    std::printf("simbench %s seed=%" PRIu64 " seconds=%g trace=%d "
                "scale=%g\n",
                args.workload->name, args.seed, args.seconds,
                args.trace ? 1 : 0, args.scale);

    Bench b = setup(kind, args.seed, args.scale, spans);
    std::printf("arrivals=%zu\n", b.trace.size());

    Checks checks;
    // Warm-up run: fills allocator caches, and its outputs are the
    // ones every later run must reproduce exactly.
    const Record first = [&] {
        const ScopedSpan s(spans, "warmup_run", -1);
        return runOnce(b);
    }();
    checks.run(first, first.sim, "warm-up run");
    // Peak memory of set-up plus one run, before the reference copy
    // allocates anything: later repeats only add allocator noise
    // (thread arenas, fragmentation) to the peak.
    const double peakRss = peakRssMb();

    // Other tenants of a shared host slow everything down by up to 60%
    // for seconds at a time. Every timed set-up and run therefore sits
    // between two of the reference copy's on the same workload, which
    // the host slows down alike: its time over the mean of theirs
    // stays steady. Scaled by the reference's time on a quiet host,
    // it reads in seconds or us again.
    simbench::ReferenceSim refSim(args.workload->name, args.seed,
                                  args.scale);
    std::vector<double> setupS, refSetupS, setupRel, offlineS, generateS,
        buildS;
    double refBefore = refSim.setupSeconds();
    for (int i = 0; i < kSetups; ++i) {
        b = setup(kind, args.seed, args.scale, spans);
        const double refAfter = refSim.setupSeconds();
        setupS.push_back(b.totalS());
        refSetupS.push_back(refAfter);
        setupRel.push_back(b.totalS() / (0.5 * (refBefore + refAfter)));
        offlineS.push_back(b.offlineS);
        generateS.push_back(b.generateS);
        buildS.push_back(b.buildS);
        refBefore = refAfter;
    }
    const double setupScaled =
        median(setupRel) * args.workload->referenceSetupS;

    std::vector<Metric> out;
    if (!args.trace) {
        // ---------------------------------------------- timed mode
        refSim.usPerRequest(); // warm-up
        std::vector<double> usPerReq, refUs, relative;
        double before = refSim.usPerRequest();
        const WallTimer budget;
        while (budget.elapsedSeconds() < args.seconds ||
               usPerReq.size() < 3) {
            const Record rec = runOnce(b);
            const double after = refSim.usPerRequest();
            checks.run(rec, first.sim, "timed run");
            usPerReq.push_back(rec.usPerRequest());
            refUs.push_back(after);
            relative.push_back(rec.usPerRequest() / (0.5 * (before + after)));
            before = after;
        }
        const double quietUs = args.workload->referenceUsPerRequest;
        const double hostUs = median(relative) * quietUs;
        std::printf("host_us_per_request: %.4f us = %.4f x %.4f us (the "
                    "reference on a quiet host); relative to the "
                    "reference: median %.4f, q1 %.4f, q3 %.4f, n=%zu "
                    "runs\n",
                    hostUs, median(relative), quietUs, median(relative),
                    quartile(relative, 1), quartile(relative, 3),
                    relative.size());
        std::printf("  as measured: median %.4f us, q1 %.4f, q3 %.4f, "
                    "fastest %.4f; reference median %.4f us\n",
                    median(usPerReq), quartile(usPerReq, 1),
                    quartile(usPerReq, 3),
                    *std::min_element(usPerReq.begin(), usPerReq.end()),
                    median(refUs));
        std::printf("setup_s: %.4f s = %.4f x %.4f s (the reference "
                    "on a quiet host); relative to the reference: median "
                    "%.4f, q1 %.4f, q3 %.4f, n=%d set-ups\n",
                    setupScaled, median(setupRel),
                    args.workload->referenceSetupS, median(setupRel),
                    quartile(setupRel, 1), quartile(setupRel, 3),
                    kSetups);
        std::printf("  as measured: median %.4f s; reference median "
                    "%.4f s\n",
                    median(setupS), median(refSetupS));
        out = {
            {"host_us_per_request", hostUs, "us"},
            {"setup_s", setupScaled, "s"},
            {"peak_rss_mb", peakRss, "MB"},
            {"sim_throughput_img_s", first.sim.throughput, "img/s"},
            {"sim_goodput_img_s", first.sim.goodput, "img/s"},
            {"sim_latency_p50_ms", first.sim.latencyP50, "sim_ms"},
            {"sim_latency_p99_ms", first.sim.latencyP99, "sim_ms"},
            {"sim_switches", static_cast<double>(first.sim.switches),
             "count"},
        };
    } else {
        // ---------------------------------------------- traced mode
        std::vector<double> qns;
        {
            const ScopedSpan s(spans, "sim.queue_probe", -1);
            for (int i = 0; i < 3; ++i)
                qns.push_back(queueProbe(1u << 20));
        }

        // Traced and untraced runs interleaved, so both see the same
        // host conditions; the per-layer numbers come from the traced
        // ones, trace overhead is traced over untraced.
        std::vector<double> tracedUs, plainUs, nsPerEvent, dispatchP50,
            routeShard, replicaRun, collect, coordinate, clusterBuild,
            accounted;
        Record last;
        const WallTimer budget;
        const double runBudget = args.seconds * (isCluster(kind) ? 0.5
                                                                 : 0.9);
        while (budget.elapsedSeconds() < runBudget ||
               tracedUs.size() < 2) {
            const Record plain = runOnce(b);
            checks.run(plain, first.sim, "untraced run");
            plainUs.push_back(plain.usPerRequest());

            const ScopedSpan s(spans, "run", -1);
            last = runOnce(b);
            checks.run(last, first.sim, "traced run");
            tracedUs.push_back(last.usPerRequest());
            nsPerEvent.push_back(last.wallS * 1e9 /
                                 static_cast<double>(last.events));
            dispatchP50.push_back(median(last.dispatchUs));
            const auto g = [&](const char *name) {
                return last.metrics.value(name, 0.0);
            };
            routeShard.push_back(g("host.route_shard_us"));
            replicaRun.push_back(g("host.replica_run_us"));
            collect.push_back(g("host.collect_us"));
            coordinate.push_back(g("host.coordinate_us"));
            clusterBuild.push_back(g("host.build_us"));
            const double wallUs = last.wallS * 1e6;
            if (kind == Kind::Static4x) {
                accounted.push_back((g("host.route_shard_us") +
                                     g("host.replica_run_us") +
                                     g("host.collect_us")) /
                                    wallUs);
            } else if (isOnline(kind)) {
                accounted.push_back(g("host.coordinate_us") / wallUs);
            }
        }
        const double accountedShare = median(accounted);
        if (isCluster(kind) && std::fabs(accountedShare - 1.0) > 0.1) {
            checks.fail("layer times account for " +
                        std::to_string(accountedShare) +
                        " of the run's wall time (want within 0.1)");
        }

        ProbeTotals probe;
        if (isOnline(kind)) {
            const ScopedSpan s(spans, "layer_probe", -1);
            probe = onlineProbe(b);
            checks.attempted += 1;
            if (probe.images != first.sim.arrivals) {
                checks.fail("layer probe completed " +
                            std::to_string(probe.images) + " of " +
                            std::to_string(first.sim.arrivals) +
                            " arrivals");
            }
        }

        // Telemetry on/off pairs, alternating which goes first.
        std::vector<double> telemetryRatio;
        if (isCluster(kind)) {
            const ScopedSpan s(spans, "telemetry_pairs", -1);
            // In-memory recording only: file output cost is disk-bound
            // and would swamp the recording cost this tracks.
            obs::TelemetryConfig on;
            on.enabled = true;
            const WallTimer pairBudget;
            const double pairSeconds = args.seconds * 0.3;
            for (int i = 0; pairBudget.elapsedSeconds() < pairSeconds ||
                            telemetryRatio.size() < 2;
                 ++i) {
                Record offRec, onRec;
                if (i % 2 == 0) {
                    offRec = runOnce(b);
                    onRec = runOnce(b, on);
                } else {
                    onRec = runOnce(b, on);
                    offRec = runOnce(b);
                }
                checks.run(offRec, first.sim, "telemetry-off run");
                checks.run(onRec, first.sim, "telemetry-on run");
                telemetryRatio.push_back(onRec.wallS / offRec.wallS);
            }
        }

        const auto perCall = [](double us, std::int64_t calls) {
            return calls > 0 ? us / static_cast<double>(calls) : 0.0;
        };
        out = {
            {"sim.events", static_cast<double>(last.events), "count"},
            {"sim.ns_per_event", median(nsPerEvent), "ns"},
            {"sim.queue_ns_per_op", median(qns), "ns"},
            {"core.dispatch_us_p50", median(dispatchP50), "us"},
            {"core.dispatch_calls",
             static_cast<double>(last.dispatchUs.size()), "count"},
            {"core.offline_s", median(offlineS), "s"},
            {"workload.generate_s", median(generateS), "s"},
            {"runtime.view_refresh_us_per_call",
             perCall(probe.viewUs, probe.viewCalls), "us"},
            {"runtime.view_refresh_calls",
             static_cast<double>(probe.viewCalls), "count"},
            {"runtime.step_us_per_call",
             perCall(probe.stepUs, probe.stepCalls), "us"},
            {"runtime.step_calls", static_cast<double>(probe.stepCalls),
             "count"},
            {"runtime.gpu_hit_rate", hitRate(last.tiers, "gpu"), "ratio"},
            {"runtime.cpu_hit_rate", hitRate(last.tiers, "cpu-dram"),
             "ratio"},
            {"runtime.loads_ssd",
             static_cast<double>(last.switches.loadsFromSsd), "count"},
            {"runtime.loads_cache",
             static_cast<double>(last.switches.loadsFromCache), "count"},
            {"runtime.evictions",
             static_cast<double>(last.switches.evictions), "count"},
            {"cluster.route_shard_us", median(routeShard), "us"},
            {"cluster.replica_run_us", median(replicaRun), "us"},
            {"cluster.collect_us", median(collect), "us"},
            {"cluster.imbalance", last.imbalance, "ratio"},
            {"cluster.coordinate_us", median(coordinate), "us"},
            {"cluster.route_us_per_call",
             perCall(probe.routeUs, probe.routeCalls), "us"},
            // Set-up's cluster construction plus the coordinator's
            // replica-engine build inside the run.
            {"cluster.build_us",
             isCluster(kind) ? median(buildS) * 1e6 + median(clusterBuild)
                             : 0.0,
             "us"},
            {"cluster.stolen_requests", static_cast<double>(last.stolen),
             "count"},
            {"cluster.decisions", static_cast<double>(last.decisions),
             "count"},
            {"cluster.accounted_share", accountedShare, "ratio"},
            {"slo.rejected", static_cast<double>(last.sim.rejected),
             "count"},
            {"slo.downgraded", static_cast<double>(last.downgraded),
             "count"},
            {"slo.violation_share", last.violationShare, "ratio"},
            {"preempt.rescues", static_cast<double>(last.rescues),
             "count"},
            {"preempt.checkpoint_bytes",
             static_cast<double>(last.checkpointBytes), "bytes"},
            {"preempt.restored_groups", static_cast<double>(last.restored),
             "count"},
            {"preempt.migrated_groups", static_cast<double>(last.migrated),
             "count"},
            {"obs.telemetry_overhead",
             telemetryRatio.empty() ? 0.0 : median(telemetryRatio) - 1.0,
             "ratio"},
            {"bench.trace_overhead",
             median(tracedUs) / median(plainUs) - 1.0, "ratio"},
        };
        if (isOnline(kind)) {
            std::printf("layer probe: %.3f s for %zu arrivals; step %.1f "
                        "ms (%" PRId64 " calls), view %.1f ms (%" PRId64
                        "), route %.1f ms (%" PRId64 "), admit %.1f ms "
                        "(%" PRId64 ")\n",
                        probe.wallS, b.trace.size(), probe.stepUs / 1e3,
                        probe.stepCalls, probe.viewUs / 1e3,
                        probe.viewCalls, probe.routeUs / 1e3,
                        probe.routeCalls, probe.admitUs / 1e3,
                        probe.admitCalls);
        }
    }

    // Canary: a non-default seed also replays the default-seed trace
    // once, so the pinned outputs are checked on every invocation.
    SimOutputs pinned = first.sim;
    if (args.seed != args.workload->defaultSeed) {
        const ScopedSpan s(spans, "canary_run", -1);
        b.trace = generateWorkloadTrace(kind, *b.model,
                                        args.workload->defaultSeed,
                                        args.scale);
        const Record rec = runOnce(b);
        checks.run(rec, rec.sim, "canary run");
        pinned = rec.sim;
    }

    if (spans != nullptr) {
        const std::string path =
            args.outDir + "/spans_" + args.workload->name + ".json";
        if (!spanLog.write(path))
            checks.fail("could not write " + path);
        else
            std::printf("spans: %zu written to %s\n", spanLog.size(),
                        path.c_str());
    }

    printTable(args.trace ? "per-layer metrics (traced run):"
                          : "end-to-end metrics (timed run):",
               out);
    std::printf("failed_share: %.4f (%" PRId64 " of %" PRId64
                " runs failed a check)\n",
                checks.attempted > 0
                    ? static_cast<double>(checks.failed) /
                          static_cast<double>(checks.attempted)
                    : 0.0,
                checks.failed, checks.attempted);
    for (const std::string &f : checks.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"default_seed\": %" PRIu64 ", \"scale\": %.17g"
                ", \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"pinned\": ",
                args.workload->name, args.seed, args.workload->defaultSeed,
                args.scale, checks.attempted, checks.failed);
    printSimJson(stdout, pinned);
    std::printf(", \"metrics\": ");
    printMetricsJson(stdout, out);
    std::printf("}\n");
    return checks.failed == 0 ? 0 : 1;
}
