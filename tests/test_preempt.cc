/**
 * @file
 * Tests for preemptive checkpoint/restore and live migration: the
 * CheckpointModel pricing, config validation, deadline-rescue
 * preemption counters, on/off and repeat-run determinism,
 * record→replay with the v2 decision kinds, forced divergence on a
 * preemption mismatch, the v1-log version gate, and crash + migration
 * request reconciliation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "core/coserve.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "model/footprint_model.h"
#include "preempt/checkpoint_model.h"
#include "replay/decision_log.h"
#include "workload/generator.h"

namespace coserve {
namespace {

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_TRUE(in) << path;
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(bytes.data()), size);
    return bytes;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// -------------------------------------------------- checkpoint pricing

TEST(CheckpointModelTest, StateBytesScaleWithBatchAndFloorAtDescriptor)
{
    const FootprintModel footprint =
        FootprintModel::calibrated(tinyTestDevice());
    const CheckpointModel model(footprint);

    // Monotone in batch size, one activation set per in-flight image,
    // plus the fixed descriptor.
    const std::int64_t one =
        model.stateBytes(ArchId::ResNet101, ProcKind::GPU, 1);
    const std::int64_t eight =
        model.stateBytes(ArchId::ResNet101, ProcKind::GPU, 8);
    EXPECT_GT(one, CheckpointModel::kDescriptorBytes);
    EXPECT_EQ(eight - CheckpointModel::kDescriptorBytes,
              8 * (one - CheckpointModel::kDescriptorBytes));
}

// ------------------------------------------------------ cluster fixture

class PreemptFixture : public ::testing::Test
{
  protected:
    PreemptFixture()
        : device_(preemptTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        // The rescue window needs batches that run long relative to
        // expert loads (a 10x-slower GPU), and a DRAM cache tier so the
        // checkpoint state rides the fast link instead of storage —
        // otherwise the save alone blows any feasible deadline and the
        // engine (correctly) refuses every rescue.
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
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, maxCount),
            "replica");
        cfg_.cpuCacheTier = true;
        cfg_.cpuCacheBytes = 1536ll * 1024 * 1024;
    }

    static DeviceSpec
    preemptTestDevice()
    {
        DeviceSpec d = tinyTestDevice();
        d.name = "tiny-slow-compute";
        d.gpu.computeScale = 0.1;
        return d;
    }

    ClusterConfig
    preemptConfig(int replicas, bool migration) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, replicas, RoutingPolicy::LeastLoaded, "preempt");
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

    /** Arrival time of the @p i-th image, for virtual fault times. */
    Time
    at(std::size_t i) const
    {
        return trace_.arrivals[i].time;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// ---------------------------------------------------- config validation

TEST_F(PreemptFixture, ValidateCoversPreemptionKnobs)
{
    ClusterConfig cc = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    cc.preemption.enabled = true;
    cc.preemption.minRunQuantum = 0;
    cc.preemption.maxPreemptionsPerGroup = 0;
    cc.preemption.migrationMinRemaining = -1;
    const std::vector<std::string> errors =
        cc.validate(runWithMode(RunMode::Online));
    ASSERT_EQ(errors.size(), 3u);

    // Migration without the master switch is refused.
    ClusterConfig solo = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    solo.preemption.migration = true;
    EXPECT_FALSE(solo.validate(runWithMode(RunMode::Online)).empty());

    // Migration is valid in every static run, clean or with faults
    // (a crash migrates the dead replica's checkpoints).
    ClusterConfig stat = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    stat.preemption.enabled = true;
    stat.preemption.migration = true;
    EXPECT_TRUE(stat.validate({}).empty());
    RunOptions faulty;
    faulty.faults.crashes.push_back({1, seconds(1)});
    EXPECT_TRUE(stat.validate(faulty).empty());

    // The rescue fixture's own configs are clean.
    EXPECT_TRUE(preemptConfig(3, false)
                    .validate(runWithMode(RunMode::Online))
                    .empty());
    EXPECT_TRUE(preemptConfig(3, true)
                    .validate(runWithMode(RunMode::Online))
                    .empty());
}

// ------------------------------------------------- deadline rescue path

TEST_F(PreemptFixture, DeadlineRescuePreemptsAndRestores)
{
    ClusterEngine cluster(preemptConfig(2, /*migration=*/false));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));

    EXPECT_TRUE(r.preemptionEnabled);
    EXPECT_EQ(r.images + r.slo.rejected(),
              static_cast<std::int64_t>(trace_.size()));
    // The bursty Interactive tenant must have forced rescues, every
    // paused group must have been checkpointed, and every checkpoint
    // restored (no migration: nothing leaves its replica).
    EXPECT_GT(r.preemptions, 0);
    EXPECT_EQ(r.checkpointedGroups, r.preemptions);
    EXPECT_EQ(r.restoredGroups, r.checkpointedGroups);
    EXPECT_GT(r.checkpointBytes, 0);
    EXPECT_EQ(r.migratedGroups, 0);

    // The decision stream carries the new kinds.
    std::int64_t preempts = 0, restores = 0;
    ClusterEngine recorder(preemptConfig(2, false));
    const std::string log = tempPath("preempt_kinds.bin");
    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = log;
    recorder.run(trace_, rec);
    const DecisionLog recorded = DecisionLog::load(log);
    for (const DecisionRecord &d : recorded.records()) {
        preempts += d.kind == DecisionKind::Preempt ? 1 : 0;
        restores += d.kind == DecisionKind::Restore ? 1 : 0;
    }
    EXPECT_EQ(preempts, r.preemptions);
    EXPECT_EQ(restores, r.restoredGroups);
    std::remove(log.c_str());

    // The report grows a preemption section; legacy output does not.
    const std::string report = summarize(r);
    EXPECT_NE(report.find("preemption"), std::string::npos);
    ClusterEngine plain(preemptConfig(2, false));
    ClusterConfig off = preemptConfig(2, false);
    off.preemption = {};
    ClusterEngine legacy(std::move(off));
    const ClusterResult rl =
        legacy.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(summarize(rl).find("preemption"), std::string::npos);
}

TEST_F(PreemptFixture, PreemptionChangesTheScheduleOnlyWhenOn)
{
    // Off-path runs must not be perturbed by the feature existing.
    ClusterConfig off = preemptConfig(3, false);
    off.preemption = {};
    ClusterEngine a(std::move(off));
    const ClusterResult ra = a.run(trace_, runWithMode(RunMode::Online));
    EXPECT_FALSE(ra.preemptionEnabled);
    EXPECT_EQ(ra.preemptions, 0);
    EXPECT_EQ(ra.checkpointBytes, 0);

    ClusterEngine b(preemptConfig(3, false));
    const ClusterResult rb = b.run(trace_, runWithMode(RunMode::Online));
    EXPECT_NE(ra.decisionDigest, rb.decisionDigest);
}

TEST_F(PreemptFixture, ClusterPolicyReachesEveryReplica)
{
    // The cluster's preemption policy is copied into every replica, off
    // included: a replica spec that turns preemption on in a cluster
    // with it off must not pause batches whose decisions the log would
    // never see.
    ClusterConfig off = preemptConfig(2, false);
    off.preemption = {};
    ClusterConfig mixed = off;
    for (ReplicaSpec &r : mixed.replicas)
        r.cfg.preemption = preemptConfig(2, false).preemption;
    ClusterEngine a(std::move(off));
    ClusterEngine b(std::move(mixed));
    const ClusterResult ra = a.run(trace_, runWithMode(RunMode::Online));
    const ClusterResult rb = b.run(trace_, runWithMode(RunMode::Online));
    EXPECT_FALSE(rb.preemptionEnabled);
    EXPECT_EQ(rb.preemptions, 0);
    EXPECT_EQ(rb.checkpointedGroups, 0);
    EXPECT_EQ(rb.decisionDigest, ra.decisionDigest);
}

TEST_F(PreemptFixture, EngineAdmissionRescueIsPinned)
{
    // Deadline rescue runs at admission (admitTimed), the only caller
    // of tryPreemptFor: one preemption-on engine takes the whole SLO
    // trace through admitArrival, stepped as a coordinator steps a
    // replica, so every rescue starts inside an admission. Pinned with
    // online arrivals scheduled as heap events, which the step after
    // admitArrival ran.
    EngineConfig cfg = cfg_;
    cfg.preemption = preemptConfig(1, false).preemption;
    const std::unique_ptr<ServingEngine> engine =
        makeCoServeEngine(ctx_, cfg);
    engine->beginOnline(0, 1);
    std::vector<PreemptEvent> events;
    for (const ImageArrival &a : trace_.arrivals) {
        engine->stepUntil(a.time);
        engine->admitArrival(a);
        EXPECT_GE(engine->stepUntil(a.time), 1u);
        engine->drainPreemptEvents(events);
    }
    engine->stepUntil(kTimeNever);
    engine->drainPreemptEvents(events);
    const RunResult r = engine->finishOnline();

    std::int64_t preempts = 0, restores = 0;
    for (const PreemptEvent &e : events) {
        preempts += e.what == PreemptEvent::What::Preempt ? 1 : 0;
        restores += e.what == PreemptEvent::What::Restore ? 1 : 0;
    }
    EXPECT_GT(r.preemptions, 0);
    EXPECT_EQ(preempts, r.preemptions);
    EXPECT_EQ(restores, r.preemptions);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.preemptions, 28);
    EXPECT_EQ(r.eventsExecuted, 988u);
    EXPECT_EQ(r.makespan, 56382340582);
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const auto fold = [&digest](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xFF;
            digest *= 0x100000001b3ull;
        }
    };
    for (int exec : r.assignments)
        fold(static_cast<std::uint64_t>(exec));
    for (double ms : r.requestLatencyMs.raw()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &ms, sizeof bits);
        fold(bits);
    }
    EXPECT_EQ(digest, 0x4dbbd56754d9107cull);
}

// --------------------------------------------------------- determinism

TEST_F(PreemptFixture, PreemptionDeterministicAcrossRuns)
{
    // The same config run twice gives the same decisions and metrics.
    for (bool migration : {false, true}) {
        ClusterEngine a(preemptConfig(3, migration));
        ClusterEngine b(preemptConfig(3, migration));
        const ClusterResult ra =
            a.run(trace_, runWithMode(RunMode::Online));
        const ClusterResult rb =
            b.run(trace_, runWithMode(RunMode::Online));
        EXPECT_EQ(ra.decisionDigest, rb.decisionDigest)
            << "migration=" << migration;
        EXPECT_EQ(ra.decisionCount, rb.decisionCount);
        EXPECT_EQ(ra.images, rb.images);
        EXPECT_EQ(ra.makespan, rb.makespan);
        EXPECT_EQ(ra.preemptions, rb.preemptions);
        EXPECT_EQ(ra.checkpointedGroups, rb.checkpointedGroups);
        EXPECT_EQ(ra.restoredGroups, rb.restoredGroups);
        EXPECT_EQ(ra.checkpointBytes, rb.checkpointBytes);
        EXPECT_EQ(ra.migratedGroups, rb.migratedGroups);
        EXPECT_EQ(ra.migratedRequests, rb.migratedRequests);
    }
}

TEST_F(PreemptFixture, RecordThenReplayWithPreemptionIsByteIdentical)
{
    const std::string logA = tempPath("preempt_replay_a.bin");
    const std::string logB = tempPath("preempt_replay_b.bin");

    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = logA;
    ClusterEngine first(preemptConfig(3, /*migration=*/true));
    const ClusterResult r1 = first.run(trace_, rec);
    EXPECT_GT(r1.preemptions, 0);

    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = logA;
    rep.recordPath = logB;
    ClusterEngine second(preemptConfig(3, /*migration=*/true));
    const ClusterResult r2 = second.run(trace_, rep);

    EXPECT_EQ(r1.decisionDigest, r2.decisionDigest);
    EXPECT_EQ(r1.images, r2.images);
    EXPECT_EQ(r1.preemptions, r2.preemptions);
    EXPECT_EQ(r1.migratedGroups, r2.migratedGroups);
    const std::vector<std::uint8_t> a = readFile(logA);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, readFile(logB));
    std::remove(logA.c_str());
    std::remove(logB.c_str());
}

TEST_F(PreemptFixture, PreemptionMismatchDivergesFatally)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string log = tempPath("preempt_diverge.bin");
    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = log;
    ClusterEngine recorder(preemptConfig(3, /*migration=*/false));
    const ClusterResult r = recorder.run(trace_, rec);
    ASSERT_GT(r.preemptions, 0);

    // Replaying with preemption off drops the Preempt/Restore records
    // from the re-execution; the replay must die on the mismatch, not
    // silently skip them.
    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = log;
    EXPECT_EXIT(
        {
            ClusterConfig off = preemptConfig(3, false);
            off.preemption = {};
            ClusterEngine diverged(std::move(off));
            diverged.run(trace_, rep);
        },
        ::testing::ExitedWithCode(1), "replay divergence");
    std::remove(log.c_str());
}

// ----------------------------------------------------------- log format

TEST(DecisionLogV2Test, CodecRoundTripsPreemptionKinds)
{
    DecisionLog log;
    log.append({milliseconds(1), DecisionKind::Preempt, 0, 1, 4});
    log.append({milliseconds(2), DecisionKind::Checkpoint, 1, 0, 8});
    log.append({milliseconds(3), DecisionKind::Restore, 1, 2, 8});
    log.append({milliseconds(4), DecisionKind::Migrate, 0, 2, 8});

    const std::vector<std::uint8_t> bytes = log.encode();
    const DecisionLog back = DecisionLog::decode(bytes);
    ASSERT_EQ(back.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(back.records()[i], log.records()[i]) << "record " << i;
    EXPECT_EQ(back.digest(), log.digest());
    EXPECT_EQ(back.encode(), bytes);

    EXPECT_STREQ(toString(DecisionKind::Preempt), "preempt");
    EXPECT_STREQ(toString(DecisionKind::Checkpoint), "checkpoint");
    EXPECT_STREQ(toString(DecisionKind::Restore), "restore");
    EXPECT_STREQ(toString(DecisionKind::Migrate), "migrate");
}

TEST(DecisionLogV2Test, StaleV1HeaderIsRejectedWithVersionMessage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 1, 0});
    // A PR 6-era recording: same magic, version byte 1.
    std::vector<std::uint8_t> stale = log.encode();
    stale[4] = 1;
    EXPECT_EXIT(DecisionLog::decode(stale),
                ::testing::ExitedWithCode(1),
                "decision log format version 1, expected 2");
}

// ------------------------------------------------- crash + migration

TEST_F(PreemptFixture, CrashWithMigrationResumesInFlightWork)
{
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({1, at(trace_.size() / 2)});
    ClusterEngine cluster(preemptConfig(3, /*migration=*/true));
    const ClusterResult r = cluster.run(trace_, opts);

    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.crashesInjected, 1);
    // Reconciliation with in-flight groups moving between replicas:
    // nothing is double-counted, nothing vanishes.
    EXPECT_EQ(r.images + r.slo.rejected() + r.crashLost,
              static_cast<std::int64_t>(trace_.size()));
    // Homogeneous cluster: the crashed replica's checkpointed
    // in-flight groups must land on survivors and resume.
    EXPECT_GT(r.checkpointedGroups, 0);
    EXPECT_GT(r.migratedGroups, 0);
    EXPECT_GT(r.restoredGroups, 0);
    EXPECT_EQ(r.crashLost, 0);
}

TEST_F(PreemptFixture, CrashWithMigrationIsReplayable)
{
    const std::string log = tempPath("preempt_crash.bin");
    const auto run = [&](const std::string &record,
                         const std::string &replay) {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.faults.crashes.push_back({0, at(trace_.size() / 2)});
        opts.recordPath = record;
        opts.replayPath = replay;
        ClusterEngine cluster(preemptConfig(3, /*migration=*/true));
        return cluster.run(trace_, opts);
    };
    const ClusterResult a = run(log, "");
    const ClusterResult b = run("", log);
    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.migratedGroups, b.migratedGroups);
    EXPECT_EQ(a.restoredGroups, b.restoredGroups);
    std::remove(log.c_str());
}

// ----------------------------------------------- quiesce without drain

TEST_F(PreemptFixture, AutoscaleQuiesceMigratesInFlightGroups)
{
    ClusterConfig cc = preemptConfig(3, /*migration=*/true);
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(500);
    cc.autoscale.minReplicas = 1;
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));

    EXPECT_EQ(r.images + r.slo.rejected(),
              static_cast<std::int64_t>(trace_.size()));
    // Whether the autoscaler actually quiesced depends on load; the
    // invariant is that any completed drain was measured.
    if (r.autoscaleQuiesces > 0 && r.quiesceDrains > 0) {
        EXPECT_GT(r.quiesceDrainMax, 0);
        EXPECT_GE(r.quiesceDrainTotal, r.quiesceDrainMax);
    }
}

} // namespace
} // namespace coserve
