/**
 * @file
 * Perf smoke harness — host-side performance tracking for the
 * discrete-event core.
 *
 * Unlike the figNN / table1 binaries (which reproduce paper artifacts
 * in *virtual* time), this harness measures how fast the simulator
 * itself
 * runs on the host, in six scenarios:
 *
 *  - queue_micro:    raw EventQueue schedule/cancel/run stress, no
 *                    engine logic — isolates the queue hot path;
 *  - single_engine:  a fixed mid-size trace through one CoServe
 *                    (casual) engine;
 *  - cluster_4x:     the same trace through a 4-replica least-loaded
 *                    cluster (threaded replicas);
 *  - slo_diurnal:    an SLO-classed diurnal multi-tenant trace through
 *                    the online coordinator with admission, deadline
 *                    scheduling, stealing and autoscaling — covers the
 *                    whole SLO layer in the perf trajectory and pins
 *                    its simulated goodput for the determinism gate;
 *  - preempt_migrate: the Figure 25 dense-board preemption scenario
 *                    (deadline rescue + checkpoint/restore + live
 *                    migration) — covers the preemption layer's hot
 *                    paths and pins its rescue/checkpoint/migration
 *                    counters for the determinism gate;
 *  - preempt_migrate_telemetry: the identical scenario with full
 *                    telemetry on (span trace + metrics JSON/CSV).
 *                    It pins the SAME digests — tracing is pure
 *                    observation — and compare_bench's
 *                    --telemetry-pair gate holds its events/s
 *                    overhead under 5%.
 *
 * Each scenario reports events executed, wall time and events/sec, and
 * all three are written to BENCH_perf.json (argv[1] overrides the
 * path) so the perf trajectory of the repo is machine-trackable.
 * Build with CMAKE_BUILD_TYPE=Release for meaningful numbers.
 */

#include "bench/bench_util.h"

#include <cstdint>

#include "util/walltime.h"

#include "cluster/cluster.h"
#include "metrics/cluster_result.h"
#include "sim/event_queue.h"
#include "workload/generator.h"

using namespace coserve;

namespace {

/**
 * Self-rescheduling event storm: keeps ~1k events in flight, each
 * firing reschedules itself at a pseudo-random future time, and every
 * 8th firing also schedules-then-cancels a dummy event so the
 * cancellation path stays on the measured profile. Deterministic (LCG
 * delays, no host randomness).
 */
struct QueueMicro
{
    EventQueue eq;
    std::uint64_t budget = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;

    Time
    nextDelay()
    {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<Time>(1 + ((lcg >> 33) % 1000));
    }

    void
    tick()
    {
        if (budget == 0)
            return;
        --budget;
        if ((budget & 7) == 0) {
            const EventId id =
                eq.schedule(eq.now() + nextDelay(), [] {});
            eq.cancel(id);
        }
        eq.schedule(eq.now() + nextDelay(), [this] { tick(); });
    }

    std::uint64_t
    run(std::uint64_t totalTicks)
    {
        budget = totalTicks;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(nextDelay(), [this] { tick(); });
        eq.run();
        return eq.executed();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_perf.json";
    bench::banner("perf_smoke",
                  "Host-side events/sec of the discrete-event core");

    bench::BenchJson json;
    Table t({"Scenario", "Events", "Wall (ms)", "Events/sec",
             "Sim throughput (img/s)"});

    // ---------------------------------------------------- queue_micro
    {
        QueueMicro micro;
        const WallTimer timer;
        const std::uint64_t events = micro.run(4'000'000);
        const double wall = timer.elapsedSeconds();
        const double eps = static_cast<double>(events) / wall;
        json.scenario("queue_micro");
        json.field("events", static_cast<double>(events));
        json.field("wall_ms", wall * 1e3);
        json.field("events_per_sec", eps);
        t.addRow({"queue_micro", std::to_string(events),
                  formatDouble(wall * 1e3, 1), formatDouble(eps, 0),
                  "-"});
    }

    // The engine scenarios share one offline context and one trace:
    // board A on the NUMA device, 30k images at the paper's 4 ms
    // production cadence (mid-size: ~10x Task A2). Engines are
    // single-use, so each iteration builds a fresh one from the same
    // resolved config; runs are deterministic, iterations only reduce
    // host-timing noise.
    Harness &h = bench::harnessFor(bench::numaDevice(), bench::modelA());
    TaskSpec task = taskA2();
    task.name = "perf-smoke";
    task.numImages = 30000;
    const Trace trace = generateTrace(bench::modelA(), task);
    const EngineConfig cfg =
        h.makeConfig(SystemKind::CoServeCasual, trace, {});

    // --------------------------------------------------- single_engine
    {
        constexpr int kIters = 5;
        std::uint64_t events = 0;
        double wall = 0.0, throughput = 0.0;
        std::int64_t images = 0;
        for (int i = 0; i < kIters; ++i) {
            auto engine = makeCoServeEngine(h.context(), cfg);
            const WallTimer timer;
            const RunResult r = engine->run(trace);
            wall += timer.elapsedSeconds();
            events += r.eventsExecuted;
            // Iterations replay the identical simulation; any drift in
            // the *simulated* metrics is a determinism bug, not noise.
            if (i > 0) {
                COSERVE_CHECK(r.images == images &&
                                  r.throughput == throughput,
                              "single_engine iterations diverged");
            }
            images = r.images;
            throughput = r.throughput;
        }
        const double eps = static_cast<double>(events) / wall;
        json.scenario("single_engine");
        json.field("events", static_cast<double>(events) / kIters);
        json.field("wall_ms", wall * 1e3 / kIters);
        json.field("events_per_sec", eps);
        json.field("images", static_cast<double>(images));
        json.field("sim_throughput_img_per_sec", throughput);
        t.addRow({"single_engine", std::to_string(events / kIters),
                  formatDouble(wall * 1e3 / kIters, 1),
                  formatDouble(eps, 0), formatDouble(throughput, 1)});
    }

    // ------------------------------------------------------ cluster_4x
    {
        constexpr int kIters = 3;
        std::uint64_t events = 0;
        double wall = 0.0, throughput = 0.0;
        std::int64_t images = 0;
        std::uint64_t digest = 0;
        for (int i = 0; i < kIters; ++i) {
            ClusterEngine cluster(homogeneousCluster(
                h.context(), cfg, 4, RoutingPolicy::LeastLoaded,
                "perf-smoke"));
            const ClusterResult r = cluster.run(trace, RunOptions{});
            wall += r.wallSeconds;
            events += r.eventsExecuted;
            if (i > 0) {
                COSERVE_CHECK(r.images == images &&
                                  r.throughput == throughput &&
                                  r.decisionDigest == digest,
                              "cluster_4x iterations diverged");
            }
            images = r.images;
            throughput = r.throughput;
            digest = r.decisionDigest;
        }
        const double eps = static_cast<double>(events) / wall;
        json.scenario("cluster_4x");
        json.field("events", static_cast<double>(events) / kIters);
        json.field("wall_ms", wall * 1e3 / kIters);
        json.field("events_per_sec", eps);
        json.field("images", static_cast<double>(images));
        json.field("sim_throughput_img_per_sec", throughput);
        // 32-bit halves: exactly representable as JSON doubles, and
        // sim_-prefixed so compare_bench treats any drift as hard-fail.
        json.field("sim_digest_hi",
                   static_cast<double>(
                       static_cast<std::uint32_t>(digest >> 32)));
        json.field("sim_digest_lo",
                   static_cast<double>(
                       static_cast<std::uint32_t>(digest)));
        t.addRow({"cluster_4x", std::to_string(events / kIters),
                  formatDouble(wall * 1e3 / kIters, 1),
                  formatDouble(eps, 0), formatDouble(throughput, 1)});
    }

    // ------------------------------------------------------ slo_diurnal
    {
        // Interactive/batch/best-effort tenants over a sped-up
        // day/night cycle, served by the online coordinator with the
        // full SLO stack on. Smaller than the throughput scenarios —
        // its job is covering the SLO layer's hot paths and pinning
        // the simulated goodput, not peak events/sec.
        TenantSpec interactive;
        interactive.name = "interactive";
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 12.0;
        interactive.latencyBudget = milliseconds(350);
        interactive.diurnalAmplitude = 0.85;
        interactive.diurnalPeriod = seconds(60);
        TenantSpec batchTenant;
        batchTenant.name = "batch";
        batchTenant.cls = RequestClass::Batch;
        batchTenant.ratePerSec = 8.0;
        batchTenant.latencyBudget = seconds(2);
        batchTenant.diurnalAmplitude = 0.6;
        batchTenant.diurnalPeriod = seconds(60);
        TenantSpec bestEffort;
        bestEffort.name = "best-effort";
        bestEffort.cls = RequestClass::BestEffort;
        bestEffort.ratePerSec = 3.0;
        bestEffort.arrivals = ArrivalProcess::MMPP;
        bestEffort.mmppBurstFactor = 6.0;
        const Trace slo = generateSloTrace(
            bench::modelA(), {interactive, batchTenant, bestEffort},
            seconds(240), 0x510D);

        constexpr int kIters = 3;
        std::uint64_t events = 0;
        double wall = 0.0, throughput = 0.0, goodput = 0.0;
        std::int64_t images = 0;
        std::uint64_t digest = 0;
        for (int i = 0; i < kIters; ++i) {
            ClusterConfig cc = homogeneousCluster(
                h.context(), cfg, 4, RoutingPolicy::LeastLoaded,
                "perf-slo");
            cc.workStealing.enabled = true;
            cc.admission.enabled = true;
            cc.admission.slack = 1.25;
            cc.autoscale.enabled = true;
            cc.autoscale.interval = seconds(1);
            cc.autoscale.cooldown = seconds(2);
            ClusterEngine cluster(std::move(cc));
            const ClusterResult r =
                cluster.run(slo, runWithMode(RunMode::Online));
            wall += r.wallSeconds;
            events += r.eventsExecuted;
            if (i > 0) {
                COSERVE_CHECK(r.images == images &&
                                  r.throughput == throughput &&
                                  r.slo.goodput(r.makespan) == goodput &&
                                  r.decisionDigest == digest,
                              "slo_diurnal iterations diverged");
            }
            images = r.images;
            throughput = r.throughput;
            goodput = r.slo.goodput(r.makespan);
            digest = r.decisionDigest;
        }
        const double eps = static_cast<double>(events) / wall;
        json.scenario("slo_diurnal");
        json.field("events", static_cast<double>(events) / kIters);
        json.field("wall_ms", wall * 1e3 / kIters);
        json.field("events_per_sec", eps);
        json.field("images", static_cast<double>(images));
        json.field("sim_throughput_img_per_sec", throughput);
        json.field("sim_goodput_img_per_sec", goodput);
        json.field("sim_digest_hi",
                   static_cast<double>(
                       static_cast<std::uint32_t>(digest >> 32)));
        json.field("sim_digest_lo",
                   static_cast<double>(
                       static_cast<std::uint32_t>(digest)));
        t.addRow({"slo_diurnal", std::to_string(events / kIters),
                  formatDouble(wall * 1e3 / kIters, 1),
                  formatDouble(eps, 0), formatDouble(throughput, 1)});
    }

    // -------------------------------------------------- preempt_migrate
    {
        // Figure 25's dense resident board on the derated edge device:
        // bursty interactive over long Batch groups, preemption +
        // migration on, one mid-run crash — every preemption-layer
        // decision kind (Preempt/Checkpoint/Restore/Migrate) lands in
        // the log, and the counters are pinned as sim_ fields.
        TenantSpec interactive;
        interactive.name = "interactive";
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 30.0;
        interactive.latencyBudget = milliseconds(500);
        interactive.arrivals = ArrivalProcess::MMPP;
        interactive.mmppBurstFactor = 6.0;
        interactive.diurnalAmplitude = 0.8;
        interactive.diurnalPeriod = seconds(60);
        TenantSpec batchTenant;
        batchTenant.name = "batch";
        batchTenant.cls = RequestClass::Batch;
        batchTenant.ratePerSec = 50.0;
        batchTenant.latencyBudget = seconds(20);
        const Trace preemptTrace = generateSloTrace(
            bench::preemptDenseModel(), {interactive, batchTenant},
            seconds(60), 0x9F25);
        const EngineConfig preemptCfg = bench::preemptReplicaConfig();

        // Run the identical scenario twice: telemetry off (the
        // historical perf series) and on with every output configured
        // (trace JSON + metrics CSV/JSON). The digests are pinned to
        // the SAME values in both variants — compare_bench then proves
        // tracing is pure observation — and its --telemetry-pair gate
        // holds the events/s overhead under budget. The two variants
        // are interleaved iteration-by-iteration and timed best-of-k:
        // the 5% overhead gate is far inside run-to-run host noise, so
        // each pair must share host conditions (no off-block/on-block
        // drift), iteration 0 warms the allocator and is excluded, and
        // events/s uses the fastest counted iteration rather than a
        // mean that noise can only inflate.
        struct PreemptStats
        {
            std::uint64_t events = 0;
            double wall = 0.0, bestWall = 0.0, throughput = 0.0;
            std::int64_t images = 0, preemptions = 0, ckptBytes = 0,
                         migrated = 0;
            std::uint64_t digest = 0;
        };
        constexpr int kIters = 9;
        PreemptStats stats[2]; // [0] telemetry off, [1] on
        for (int i = -1; i < kIters; ++i) {
            for (int variant = 0; variant < 2; ++variant) {
                const bool telemetry = variant == 1;
                PreemptStats &s = stats[variant];
                ClusterConfig cc = homogeneousCluster(
                    bench::preemptHarness().context(), preemptCfg, 3,
                    RoutingPolicy::LeastLoaded, "perf-preempt");
                cc.workStealing.enabled = true;
                cc.admission.enabled = true;
                cc.admission.slack = 1.25;
                cc.autoscale.enabled = true;
                cc.autoscale.interval = seconds(1);
                cc.autoscale.cooldown = seconds(2);
                cc.autoscale.minReplicas = 1;
                cc.autoscale.startReplicas = 3;
                cc.preemption.enabled = true;
                cc.preemption.minRunQuantum = milliseconds(20);
                cc.preemption.maxPreemptionsPerGroup = 2;
                cc.preemption.migration = true;
                cc.preemption.migrationMinRemaining = milliseconds(20);
                ClusterEngine cluster(std::move(cc));
                RunOptions opts = runWithMode(RunMode::Online);
                opts.faults.crashes.push_back({2, seconds(30)});
                if (telemetry) {
                    opts.telemetry.enabled = true;
                    opts.telemetry.tracePath = "perf_smoke_trace.json";
                    opts.telemetry.metricsJsonPath =
                        "perf_smoke_metrics.json";
                    opts.telemetry.metricsCsvPath =
                        "perf_smoke_metrics.csv";
                    opts.telemetry.sampleInterval = milliseconds(500);
                }
                const ClusterResult r =
                    cluster.run(preemptTrace, opts);
                if (i >= 0) {
                    s.wall += r.wallSeconds;
                    s.events += r.eventsExecuted;
                    if (s.bestWall == 0.0 ||
                        r.wallSeconds < s.bestWall)
                        s.bestWall = r.wallSeconds;
                }
                if (i > -1) {
                    COSERVE_CHECK(
                        r.images == s.images &&
                            r.preemptions == s.preemptions &&
                            r.checkpointBytes == s.ckptBytes &&
                            r.migratedGroups == s.migrated &&
                            r.decisionDigest == s.digest,
                        "preempt_migrate iterations diverged");
                }
                s.images = r.images;
                s.throughput = r.throughput;
                s.preemptions = r.preemptions;
                s.ckptBytes = r.checkpointBytes;
                s.migrated = r.migratedGroups;
                s.digest = r.decisionDigest;
            }
            // Telemetry must be pure observation: both variants walk
            // the exact same schedule, every iteration.
            COSERVE_CHECK(stats[0].digest == stats[1].digest &&
                              stats[0].images == stats[1].images,
                          "telemetry perturbed the schedule");
        }
        const char *names[2] = {"preempt_migrate",
                                "preempt_migrate_telemetry"};
        for (int variant = 0; variant < 2; ++variant) {
            const PreemptStats &s = stats[variant];
            const double eps =
                static_cast<double>(s.events / kIters) / s.bestWall;
            json.scenario(names[variant]);
            json.field("events",
                       static_cast<double>(s.events) / kIters);
            json.field("wall_ms", s.wall * 1e3 / kIters);
            json.field("events_per_sec", eps);
            json.field("images", static_cast<double>(s.images));
            json.field("sim_throughput_img_per_sec", s.throughput);
            json.field("sim_preemptions",
                       static_cast<double>(s.preemptions));
            json.field("sim_checkpoint_bytes",
                       static_cast<double>(s.ckptBytes));
            json.field("sim_migrated_groups",
                       static_cast<double>(s.migrated));
            json.field(
                "sim_digest_hi",
                static_cast<double>(
                    static_cast<std::uint32_t>(s.digest >> 32)));
            json.field("sim_digest_lo",
                       static_cast<double>(
                           static_cast<std::uint32_t>(s.digest)));
            t.addRow({names[variant],
                      std::to_string(s.events / kIters),
                      formatDouble(s.wall * 1e3 / kIters, 1),
                      formatDouble(eps, 0),
                      formatDouble(s.throughput, 1)});
        }
        std::printf("telemetry artifacts: perf_smoke_trace.json, "
                    "perf_smoke_metrics.{json,csv}\n");
    }

    t.print();
    if (!json.writeTo(jsonPath)) {
        std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());
        return 1;
    }
    std::printf("wrote %s\n", jsonPath.c_str());
    return 0;
}
