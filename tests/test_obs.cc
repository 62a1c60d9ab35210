/**
 * @file
 * Tests for the deterministic observability layer: metrics-registry
 * primitives and snapshots, the virtual-time span tracer's Chrome
 * trace-event JSON, host-profile export, TelemetryConfig validation,
 * telemetry on/off schedule invariance (same decision digest and sim
 * metrics), trace byte-stability across repeat runs and the parallel
 * flag, the exported metric key set, the coordinator's trace instants,
 * and the epoch sampler's CSV time series (with and without a
 * mid-trace crash).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace coserve {
namespace {

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/**
 * A hardware truth covering only @p archs of the calibrated table, so
 * contexts built on it cannot serve the other architectures.
 */
LatencyModel
partialLatencyModel(const DeviceSpec &device,
                    std::initializer_list<ArchId> archs)
{
    const LatencyModel full = LatencyModel::calibrated(device);
    LatencyModel partial;
    for (ArchId arch : archs) {
        for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    return partial;
}

// ------------------------------------------------- registry primitives

TEST(ObsMetricsTest, CounterGaugeHistogramRoundTrip)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("a.count");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);
    // counter() re-registers to the same handle.
    EXPECT_EQ(&reg.counter("a.count"), &c);

    reg.gauge("b.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("b.gauge").value(), 2.5);

    obs::Histogram &h = reg.histogram("c.hist", {10, 100});
    h.record(3);
    h.record(50);
    h.record(50);
    h.record(1000);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 1103);
    EXPECT_EQ(h.bucketCount(0), 1); // <= 10
    EXPECT_EQ(h.bucketCount(1), 2); // <= 100
    EXPECT_EQ(h.bucketCount(2), 1); // overflow
}

TEST(ObsMetricsTest, SnapshotIsNameSortedWithFallbackLookup)
{
    obs::MetricsRegistry reg;
    reg.counter("zeta").add(7);
    reg.gauge("alpha").set(1.0);
    reg.counter("mid").add(2);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.rows.size(), 3u);
    EXPECT_EQ(snap.rows[0].name, "alpha");
    EXPECT_EQ(snap.rows[1].name, "mid");
    EXPECT_EQ(snap.rows[2].name, "zeta");
    EXPECT_EQ(snap.rows[0].kind, "gauge");
    EXPECT_EQ(snap.rows[2].kind, "counter");

    ASSERT_NE(snap.find("mid"), nullptr);
    EXPECT_DOUBLE_EQ(snap.find("mid")->value, 2.0);
    EXPECT_EQ(snap.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(snap.value("zeta", -1.0), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("missing", -1.0), -1.0);
    EXPECT_FALSE(snap.empty());
    EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(ObsMetricsTest, WriteJsonEmitsEveryMetric)
{
    obs::MetricsRegistry reg;
    reg.counter("cluster.images").add(42);
    reg.gauge("cluster.throughput").set(3.5);
    const std::string path = tempPath("obs_metrics.json");
    ASSERT_TRUE(reg.writeJson(path));
    const std::string json = readFileText(path);
    EXPECT_NE(json.find("\"cluster.images\""), std::string::npos);
    EXPECT_NE(json.find("\"cluster.throughput\""), std::string::npos);
    EXPECT_NE(json.find("42"), std::string::npos);
    std::remove(path.c_str());
}

// ------------------------------------------------------------- tracer

TEST(ObsTraceTest, JsonIsByteStableAndCarriesRequiredFields)
{
    const auto record = [](obs::Tracer &tracer) {
        obs::ReplicaTracer *coord = tracer.replica(0);
        coord->setProcessName("coordinator");
        coord->setThreadName(0, "coordinator");
        coord->instant("route", 0, milliseconds(2));
        obs::ReplicaTracer *rep = tracer.replica(1);
        rep->setProcessName("replica0");
        rep->setThreadName(1, "executor0");
        rep->span("batch", 1, milliseconds(1), milliseconds(3),
                  {"expert", 4});
        rep->flow("detect chain", 1, milliseconds(3), 99, true);
        rep->flow("detect chain", 1, milliseconds(4), 99, false);
    };
    obs::Tracer a(2), b(2);
    record(a);
    record(b);
    EXPECT_EQ(a.eventCount(), 4u);
    const std::string json = a.toJson();
    EXPECT_EQ(json, b.toJson());

    // Perfetto / chrome://tracing schema essentials.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    for (const char *field : {"\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"",
                              "\"name\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    EXPECT_NE(json.find("\"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"route\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"expert\":4"), std::string::npos);

    // Metadata renders before timed events; spans carry durations.
    EXPECT_LT(json.find("process_name"), json.find("\"X\""));
    EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

// ------------------------------------------------------- host profile

TEST(ObsHostProfileTest, ExportAccumulatesPerPhaseGauges)
{
    obs::HostProfile prof;
    prof.add("route_shard", 120.0);
    prof.add("route_shard", 80.0);
    prof.add("scheduling", 500.0, 16);

    obs::MetricsRegistry reg;
    prof.exportTo(reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.value("host.route_shard_us", -1), 200.0);
    EXPECT_DOUBLE_EQ(snap.value("host.route_shard_calls", -1), 2.0);
    EXPECT_DOUBLE_EQ(snap.value("host.scheduling_us", -1), 500.0);
    EXPECT_DOUBLE_EQ(snap.value("host.scheduling_calls", -1), 16.0);
}

// ------------------------------------------------------ cluster fixture

class ObsFixture : public ::testing::Test
{
  protected:
    ObsFixture()
        : device_(obsTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        // Same shape as the preempt fixture: a 10x-slower GPU so
        // batches run long enough for deadline rescues, and a DRAM
        // cache tier so checkpoints ride the fast link — the runs
        // below then exercise every counter family at once (switches,
        // preemption, migration, admission).
        TenantSpec interactive;
        interactive.name = "interactive";
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 4.0;
        interactive.latencyBudget = milliseconds(600);
        TenantSpec batch;
        batch.name = "batch";
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 10.0;
        batch.latencyBudget = seconds(30);
        batch.arrivals = ArrivalProcess::MMPP;
        batch.mmppBurstFactor = 10.0;
        trace_ = generateSloTrace(model_, {interactive, batch},
                                  seconds(20), 0x7e3);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        (void)minCount;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, maxCount),
            "replica");
        cfg_.cpuCacheTier = true;
        cfg_.cpuCacheBytes = 1536ll * 1024 * 1024;
    }

    static DeviceSpec
    obsTestDevice()
    {
        DeviceSpec d = tinyTestDevice();
        d.name = "tiny-slow-compute";
        d.gpu.computeScale = 0.1;
        return d;
    }

    ClusterConfig
    obsConfig(int replicas, bool migration, bool parallel = true) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, replicas, RoutingPolicy::LeastLoaded, "obs");
        cc.onlineRouting = true;
        cc.parallel = parallel;
        cc.preemption.enabled = true;
        cc.preemption.minRunQuantum = milliseconds(5);
        cc.preemption.migration = migration;
        cc.preemption.migrationMinRemaining = milliseconds(10);
        if (migration) {
            cc.workStealing.enabled = true;
            cc.workStealing.backlogThreshold = 2;
            cc.workStealing.minBacklog = milliseconds(20);
        }
        return cc;
    }

    /** Online RunOptions with every telemetry output under @p tag. */
    RunOptions
    telemetryOpts(const std::string &tag) const
    {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.telemetry.enabled = true;
        opts.telemetry.tracePath = tempPath(tag + "_trace.json");
        opts.telemetry.metricsJsonPath =
            tempPath(tag + "_metrics.json");
        opts.telemetry.metricsCsvPath = tempPath(tag + "_metrics.csv");
        opts.telemetry.sampleInterval = milliseconds(500);
        return opts;
    }

    static void
    removeOutputs(const RunOptions &opts)
    {
        std::remove(opts.telemetry.tracePath.c_str());
        std::remove(opts.telemetry.metricsJsonPath.c_str());
        std::remove(opts.telemetry.metricsCsvPath.c_str());
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// ---------------------------------------------------- config validation

TEST_F(ObsFixture, ValidateCoversTelemetryKnobs)
{
    // Output paths without the master switch are refused.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.telemetry.tracePath = "x.json";
    EXPECT_FALSE(obsConfig(2, false).validate(opts).empty());

    // A non-positive sample interval is refused.
    RunOptions bad = runWithMode(RunMode::Online);
    bad.telemetry.enabled = true;
    bad.telemetry.sampleInterval = 0;
    EXPECT_FALSE(obsConfig(2, false).validate(bad).empty());

    // Epoch sampling needs the coordinator's stepping loop: a static
    // clean run has none, a static run with a fault plan does.
    ClusterConfig stat = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    RunOptions csv;
    csv.telemetry.enabled = true;
    csv.telemetry.metricsCsvPath = "x.csv";
    EXPECT_FALSE(stat.validate(csv).empty());
    RunOptions faulty = csv;
    faulty.faults.crashes.push_back({1, seconds(1)});
    EXPECT_TRUE(stat.validate(faulty).empty());

    // The fixture's own full-output config is clean.
    EXPECT_TRUE(obsConfig(3, true)
                    .validate(telemetryOpts("obs_validate"))
                    .empty());
}

// -------------------------------------------- on/off schedule identity

TEST_F(ObsFixture, TelemetryOnLeavesScheduleByteIdentical)
{
    ClusterEngine off(obsConfig(3, /*migration=*/true));
    const ClusterResult roff =
        off.run(trace_, runWithMode(RunMode::Online));

    RunOptions on = telemetryOpts("obs_onoff");
    ClusterEngine onEng(obsConfig(3, /*migration=*/true));
    const ClusterResult ron = onEng.run(trace_, on);

    // Tracing and sampling are pure observation: the decision digest
    // (which subsumes every route/steal/preempt choice) and all sim
    // metrics must not move.
    EXPECT_EQ(roff.decisionDigest, ron.decisionDigest);
    EXPECT_EQ(roff.decisionCount, ron.decisionCount);
    EXPECT_EQ(roff.images, ron.images);
    EXPECT_EQ(roff.inferences, ron.inferences);
    EXPECT_EQ(roff.makespan, ron.makespan);
    EXPECT_EQ(roff.eventsExecuted, ron.eventsExecuted);
    EXPECT_EQ(roff.preemptions, ron.preemptions);
    EXPECT_EQ(roff.checkpointBytes, ron.checkpointBytes);
    EXPECT_EQ(roff.migratedGroups, ron.migratedGroups);
    EXPECT_EQ(roff.stolenRequests, ron.stolenRequests);
    EXPECT_GT(ron.preemptions, 0);

    // summarize() sources from the registry snapshot in both runs, so
    // the rendered reports agree too (wall time is host-side and
    // intentionally not part of summarize()).
    EXPECT_EQ(summarize(roff), summarize(ron));

    // The enabled run wrote its three artifacts.
    EXPECT_FALSE(readFileText(on.telemetry.tracePath).empty());
    EXPECT_FALSE(readFileText(on.telemetry.metricsJsonPath).empty());
    EXPECT_FALSE(readFileText(on.telemetry.metricsCsvPath).empty());
    removeOutputs(on);
}

TEST_F(ObsFixture, TraceJsonIsByteIdenticalAcrossRunsAndParallelFlag)
{
    RunOptions a = telemetryOpts("obs_rep_a");
    RunOptions b = telemetryOpts("obs_rep_b");
    RunOptions c = telemetryOpts("obs_rep_c");

    ClusterEngine ea(obsConfig(3, true, /*parallel=*/true));
    ClusterEngine eb(obsConfig(3, true, /*parallel=*/true));
    ClusterEngine ec(obsConfig(3, true, /*parallel=*/false));
    ea.run(trace_, a);
    eb.run(trace_, b);
    ec.run(trace_, c);

    const std::string traceA = readFileText(a.telemetry.tracePath);
    ASSERT_FALSE(traceA.empty());
    // Same run twice: byte-identical artifact.
    EXPECT_EQ(traceA, readFileText(b.telemetry.tracePath));
    // Spans carry virtual time into per-replica buffers merged in pid
    // order, so host threading cannot reorder the JSON either.
    EXPECT_EQ(traceA, readFileText(c.telemetry.tracePath));
    // The sampler observes only virtual-clock state: same rows too.
    const std::string csvA = readFileText(a.telemetry.metricsCsvPath);
    EXPECT_EQ(csvA, readFileText(b.telemetry.metricsCsvPath));
    EXPECT_EQ(csvA, readFileText(c.telemetry.metricsCsvPath));

    // Trace schema essentials survive end-to-end.
    for (const char *field : {"\"traceEvents\"", "\"ph\"", "\"ts\"",
                              "\"pid\"", "\"tid\"", "\"name\""})
        EXPECT_NE(traceA.find(field), std::string::npos) << field;
    // Lifecycle spans from both sides of the coordinator.
    for (const char *name :
         {"\"queue wait\"", "\"batch\"", "\"route\"", "\"coordinator\""})
        EXPECT_NE(traceA.find(name), std::string::npos) << name;

    removeOutputs(a);
    removeOutputs(b);
    removeOutputs(c);
}

// ------------------------------------------------------ exported keys

TEST_F(ObsFixture, ExportedMetricKeySetIsPinned)
{
    // The registry is written once, at collection, from the result
    // fields: pin exactly which keys a static and a coordinated run
    // export, so a counter dropped from (or added to) the export shows
    // up here. host.* wall-time gauges vary with the phases timed, so
    // only two of them are checked, by presence.
    const std::vector<std::string> staticKeys = {
        "cluster.decision_count",
        "cluster.events_executed",
        "cluster.images",
        "cluster.imbalance",
        "cluster.inferences",
        "cluster.makespan_ns",
        "cluster.throughput",
        "cluster.wall_seconds",
        "preempt.checkpoint_bytes",
        "preempt.checkpointed_groups",
        "preempt.rescues",
        "preempt.restored_groups",
        "slo.batch.completed",
        "slo.batch.downgraded",
        "slo.batch.p50_ms",
        "slo.batch.p95_ms",
        "slo.batch.p99_ms",
        "slo.batch.rejected",
        "slo.batch.violated",
        "slo.downgraded",
        "slo.goodput_img_per_s",
        "slo.interactive.completed",
        "slo.interactive.downgraded",
        "slo.interactive.p50_ms",
        "slo.interactive.p95_ms",
        "slo.interactive.p99_ms",
        "slo.interactive.rejected",
        "slo.interactive.violated",
        "slo.met",
        "slo.rejected",
        "slo.violated",
        "slo.violation_rate",
        "switch.bytes_loaded",
        "switch.demotions",
        "switch.evictions",
        "switch.loads_cache",
        "switch.loads_ssd",
        "switch.prefetch_loads",
        "tier.cpu.cache.accesses",
        "tier.cpu.cache.capacity_bytes",
        "tier.cpu.cache.evictions",
        "tier.cpu.cache.hit_rate",
        "tier.cpu.cache.hits",
        "tier.cpu.cache.used_bytes",
        "tier.disk.accesses",
        "tier.disk.capacity_bytes",
        "tier.disk.evictions",
        "tier.disk.hit_rate",
        "tier.disk.hits",
        "tier.disk.used_bytes",
        "tier.gpu.pool.accesses",
        "tier.gpu.pool.capacity_bytes",
        "tier.gpu.pool.evictions",
        "tier.gpu.pool.hit_rate",
        "tier.gpu.pool.hits",
        "tier.gpu.pool.used_bytes",
    };
    // A coordinated run adds the coordinator's counters (all of them,
    // whatever features ran) and, with preemption on, the quiesce-drain
    // gauges.
    std::vector<std::string> coordinatedKeys = {
        "cluster.autoscale_activations",
        "cluster.autoscale_evacuated",
        "cluster.autoscale_quiesces",
        "cluster.brownouts",
        "cluster.crash_lost",
        "cluster.crash_rehomed",
        "cluster.crashes",
        "cluster.downgraded",
        "cluster.migrated_groups",
        "cluster.migrated_requests",
        "cluster.quiesce_drain_max_ns",
        "cluster.quiesce_drain_total_ns",
        "cluster.quiesce_drains",
        "cluster.rejected",
        "cluster.stolen_requests",
        "cluster.stragglers",
    };
    coordinatedKeys.insert(coordinatedKeys.end(), staticKeys.begin(),
                           staticKeys.end());
    std::sort(coordinatedKeys.begin(), coordinatedKeys.end());

    const auto checkKeys = [](const ClusterResult &r,
                              const std::vector<std::string> &want) {
        std::vector<std::string> got;
        for (const obs::MetricSample &s : r.metrics.rows) {
            if (s.name.rfind("host.", 0) != 0)
                got.push_back(s.name);
        }
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        EXPECT_EQ(got, want);
    };

    ClusterEngine stat(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::LeastLoaded, "obs"));
    checkKeys(stat.run(trace_, RunOptions{}), staticKeys);

    // Crash + migration exercises every counter family at once.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back(
        {1, trace_.arrivals[trace_.size() / 2].time});
    ClusterEngine cluster(obsConfig(3, /*migration=*/true));
    const ClusterResult r = cluster.run(trace_, opts);
    checkKeys(r, coordinatedKeys);
    EXPECT_NE(r.metrics.find("host.coordinate_us"), nullptr);
    EXPECT_NE(r.metrics.find("host.build_us"), nullptr);
    // The run actually exercised what the test claims it did.
    EXPECT_GT(r.preemptions, 0);
    EXPECT_GT(r.migratedGroups, 0);
    EXPECT_EQ(r.crashesInjected, 1);
}

// ------------------------------------------ coordinator trace instants

TEST_F(ObsFixture, CoordinatorTraceInstantsArePinned)
{
    // Three runs that between them emit every coordinator instant:
    // an online run with stealing, migration, rejecting admission,
    // autoscale and every fault kind; an online run whose admission
    // downgrades; and a static run on a heterogeneous cluster whose
    // only YoloV5l-capable replica crashes, so arrivals are lost.
    ClusterConfig everything = obsConfig(4, /*migration=*/true);
    everything.admission.enabled = true;
    everything.admission.downgrade = false;
    everything.autoscale.enabled = true;
    everything.autoscale.interval = seconds(1);
    everything.autoscale.cooldown = seconds(1);
    everything.autoscale.startReplicas = 2;
    // Quiesce whenever the backlog is low, whatever the violation
    // rate, so a quiesced replica still has queued work to evacuate.
    everything.autoscale.backlogLow = 6;
    everything.autoscale.violationLow = 1.0;
    RunOptions a = telemetryOpts("obs_instants_a");
    a.faults.stragglers.push_back({0, seconds(2), seconds(6), 3.0});
    a.faults.brownouts.push_back({1, seconds(3), seconds(8), 0.25});
    a.faults.crashes.push_back({3, seconds(10)});

    ClusterConfig downgrade = obsConfig(3, /*migration=*/false);
    downgrade.admission.enabled = true;
    downgrade.admission.downgrade = true;
    RunOptions b = telemetryOpts("obs_instants_b");

    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::ResNet101, ArchId::YoloV5m}),
        {});
    ClusterConfig lost = heterogeneousCluster(
        {{&partialCtx, cfg_}, {&ctx_, cfg_}}, RoutingPolicy::LeastLoaded,
        "obs-lost");
    RunOptions c = telemetryOpts("obs_instants_c");
    c.mode = RunMode::Static;
    c.faults.crashes.push_back({1, seconds(10)});

    std::map<std::string, int> counts;
    std::uint64_t hash = 0xcbf29ce484222325ull; // FNV-1a-64
    const auto scan = [&](ClusterConfig cc, const RunOptions &opts) {
        ClusterEngine cluster(std::move(cc));
        cluster.run(trace_, opts);
        std::istringstream in(readFileText(opts.telemetry.tracePath));
        removeOutputs(opts);
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"pid\":0,") == std::string::npos ||
                line.find("\"ph\":\"i\"") == std::string::npos)
                continue;
            for (const char ch : line + "\n") {
                hash ^= static_cast<unsigned char>(ch);
                hash *= 0x100000001b3ull;
            }
            const std::size_t from = line.find("\"name\":\"") + 8;
            counts[line.substr(from, line.find('"', from) - from)] += 1;
        }
    };
    scan(std::move(everything), a);
    scan(std::move(downgrade), b);
    scan(std::move(lost), c);

    const std::map<std::string, int> want = {
        {"route", 1478},
        {"route (lost)", 24},
        {"admission reject", 37},
        {"admission downgrade", 44},
        {"steal", 5},
        {"migrate", 1},
        {"crash", 2},
        {"scale-up", 4},
        {"quiesce", 3},
        {"evacuate", 1},
        {"straggler on", 1},
        {"straggler off", 1},
        {"brownout on", 1},
        {"brownout off", 1},
    };
    for (const auto &[name, count] : want)
        EXPECT_GT(counts[name], 0) << name;
    EXPECT_EQ(counts, want);
    EXPECT_EQ(hash, 0xd48d4777562dcf1full) << std::hex << "0x" << hash;
}

// ------------------------------------------------------- epoch sampler

TEST_F(ObsFixture, EpochSamplerWritesMonotonicCsv)
{
    // Without and with a mid-trace crash: the cumulative columns sum
    // every replica's completions, a crashed one's included, so they
    // never step back when a replica dies.
    for (const bool crash : {false, true}) {
        SCOPED_TRACE(crash ? "mid-trace crash" : "no fault");
        RunOptions on = telemetryOpts(crash ? "obs_sampler_crash"
                                            : "obs_sampler");
        if (crash) {
            on.faults.crashes.push_back(
                {1, trace_.arrivals[trace_.size() / 2].time});
        }
        ClusterEngine cluster(obsConfig(3, /*migration=*/true));
        const ClusterResult r = cluster.run(trace_, on);
        EXPECT_EQ(r.crashesInjected, crash ? 1 : 0);

        std::ifstream in(on.telemetry.metricsCsvPath);
        ASSERT_TRUE(in);
        std::string header;
        ASSERT_TRUE(std::getline(in, header));
        EXPECT_EQ(header,
                  "t_s,queue_depth,active_replicas,images,inferences,"
                  "goodput_img_per_s,preemptions,gpu_hit_rate,"
                  "cpu_hit_rate");

        double prevT = 0.0;
        std::int64_t lastImages = 0, lastPreempts = 0;
        int rows = 0;
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::string cell;
            std::vector<std::string> cells;
            while (std::getline(ls, cell, ','))
                cells.push_back(cell);
            ASSERT_EQ(cells.size(), 9u) << line;
            const double t = std::stod(cells[0]);
            EXPECT_GT(t, prevT) << "sample times must advance";
            prevT = t;
            const int active = std::stoi(cells[2]);
            EXPECT_GE(active, 0);
            EXPECT_LE(active, 3);
            const std::int64_t images = std::stoll(cells[3]);
            EXPECT_GE(images, lastImages) << "images are cumulative";
            lastImages = images;
            lastPreempts = std::stoll(cells[6]);
            const double gpuHit = std::stod(cells[7]);
            EXPECT_GE(gpuHit, 0.0);
            EXPECT_LE(gpuHit, 1.0);
            ++rows;
        }
        // 20 s of trace sampled at 500 ms: the series is dense,
        // cumulative columns end at (or just below) the final totals.
        EXPECT_GE(rows, 30);
        EXPECT_LE(lastImages, r.images);
        EXPECT_GE(lastImages, r.images / 2);
        EXPECT_LE(lastPreempts, r.preemptions);
        removeOutputs(on);
    }
}

} // namespace
} // namespace coserve
