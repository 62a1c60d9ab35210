/**
 * @file
 * Tests for deterministic record/replay and fault injection: the
 * decision-log codec and digest, digest-only decision streams against
 * recording ones, record→replay byte-equality (online, and static with
 * a shared CPU tier), forced divergence detection (online, and static
 * beside the replica threads), config validation, crash-mid-run request
 * reconciliation, straggler/brownout determinism, a pinned static
 * fault-plan digest, and the refusal of unsorted traces on every path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
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

// ------------------------------------------------------ codec + digest

TEST(DecisionLogTest, CodecRoundTripsRecordsAndDigest)
{
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 3, 0});
    log.append({0, DecisionKind::Route, 1, 0, 0});
    log.append({milliseconds(7), DecisionKind::Reject, 2, 1, 0});
    log.append({milliseconds(7), DecisionKind::Steal, 3, 1, 12});
    log.append({seconds(5), DecisionKind::Crash, 2, 40, 1});
    log.append(
        {seconds(5), DecisionKind::StragglerOn, 1, 2500000, 0});
    log.append({seconds(9), DecisionKind::Quiesce, 3, 0, 0});

    const std::vector<std::uint8_t> bytes = log.encode();
    const DecisionLog back = DecisionLog::decode(bytes);
    ASSERT_EQ(back.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(back.records()[i], log.records()[i]) << "record " << i;
    EXPECT_EQ(back.digest(), log.digest());
    // Re-encoding the decoded log must be byte-identical.
    EXPECT_EQ(back.encode(), bytes);
}

TEST(DecisionLogTest, DigestSeesEveryField)
{
    const DecisionRecord base{milliseconds(3), DecisionKind::Route, 1,
                              2, 3};
    DecisionLog ref;
    ref.append(base);
    const auto digestOf = [&](DecisionRecord rec) {
        DecisionLog log;
        log.append(rec);
        return log.digest();
    };
    DecisionRecord t = base;
    t.time += 1;
    DecisionRecord k = base;
    k.kind = DecisionKind::Steal;
    DecisionRecord a = base;
    a.a += 1;
    DecisionRecord b = base;
    b.b += 1;
    DecisionRecord c = base;
    c.c += 1;
    for (const DecisionRecord &rec : {t, k, a, b, c})
        EXPECT_NE(digestOf(rec), ref.digest()) << toString(rec);
    // Order matters: swapping two records must not cancel out.
    DecisionLog ab, ba;
    ab.append(base);
    ab.append(t);
    ba.append(t);
    ba.append(base);
    EXPECT_NE(ab.digest(), ba.digest());
}

TEST(DecisionLogTest, DigestOnlyTraceMatchesRecordingTrace)
{
    // A trace that keeps no records folds the same digest and count as
    // one that records, and both equal the log's own.
    const DecisionRecord stream[] = {
        {0, DecisionKind::Route, 0, 2, 0},
        {0, DecisionKind::Route, 1, 0, 0},
        {milliseconds(4), DecisionKind::Preempt, 1, 0, 3},
        {seconds(2), DecisionKind::Crash, 2, 17, 1},
        {seconds(2), DecisionKind::Evacuate, 2, 0, 9},
        {seconds(3), DecisionKind::Route, 2, 1, 0},
    };
    DecisionTrace digestOnly(false);
    DecisionTrace recording(true);
    for (const DecisionRecord &rec : stream) {
        digestOnly.note(rec);
        recording.note(rec);
    }
    EXPECT_EQ(digestOnly.count(), std::size(stream));
    EXPECT_EQ(recording.count(), std::size(stream));
    EXPECT_EQ(digestOnly.digest(), recording.digest());
    EXPECT_EQ(recording.log().size(), std::size(stream));
    EXPECT_EQ(recording.log().digest(), recording.digest());
    EXPECT_NE(digestOnly.digest(), DecisionLog{}.digest());
}

TEST(DecisionLogTest, DeferredDivergenceWaitsForCheck)
{
    // noteDeferred() keeps the first divergence without exiting; the
    // next check() reports it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DecisionLog reference;
    reference.append({0, DecisionKind::Route, 0, 1, 0});
    reference.append({0, DecisionKind::Route, 1, 1, 0});
    DecisionTrace replay(false);
    replay.beginReplay(&reference);
    replay.noteDeferred({0, DecisionKind::Route, 0, 1, 0});
    replay.check();
    replay.noteDeferred({0, DecisionKind::Route, 1, 2, 0});
    replay.noteDeferred({0, DecisionKind::Route, 2, 0, 0});
    EXPECT_EQ(replay.count(), 3u);
    EXPECT_EXIT(replay.check(), ::testing::ExitedWithCode(1),
                "replay divergence at decision #1: got t=0 route a=1 "
                "b=2 c=0, log has t=0 route a=1 b=1 c=0");
}

TEST(DecisionLogTest, DecodeRejectsCorruption)
{
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 1, 0});
    std::vector<std::uint8_t> bytes = log.encode();
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Flip a payload byte: the trailing digest no longer matches.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[6] ^= 0x01;
    EXPECT_EXIT(DecisionLog::decode(corrupt),
                ::testing::ExitedWithCode(1), "digest mismatch");
    // Bad magic is rejected before anything else.
    std::vector<std::uint8_t> notLog = bytes;
    notLog[0] = 'X';
    EXPECT_EXIT(DecisionLog::decode(notLog),
                ::testing::ExitedWithCode(1), "bad magic");
    // Truncation and trailing garbage are user errors too (exit 1),
    // not internal-bug panics.
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.end() - 1);
    EXPECT_EXIT(DecisionLog::decode(truncated),
                ::testing::ExitedWithCode(1), "truncated");
    std::vector<std::uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_EXIT(DecisionLog::decode(trailing),
                ::testing::ExitedWithCode(1), "trailing bytes");
    // Two records with time delta INT64_MAX each: the second record's
    // absolute time would overflow.
    std::vector<std::uint8_t> overflow(bytes.begin(), bytes.begin() + 5);
    const auto putVarint = [&overflow](std::uint64_t v) {
        for (; v >= 0x80; v >>= 7)
            overflow.push_back(static_cast<std::uint8_t>(v) | 0x80);
        overflow.push_back(static_cast<std::uint8_t>(v));
    };
    putVarint(2); // record count
    for (int i = 0; i < 2; ++i) {
        putVarint(~std::uint64_t{1}); // zigzag(INT64_MAX)
        overflow.insert(overflow.end(), {0, 0, 0, 0}); // route 0 0 0
    }
    overflow.insert(overflow.end(), 8, 0); // digest
    EXPECT_EXIT(DecisionLog::decode(overflow),
                ::testing::ExitedWithCode(1), "time overflows");
}

TEST(DecisionLogTest, DecodeRejectsEveryTruncationAndBitFlip)
{
    // A pinned log of mixed kinds. Every proper prefix and every
    // single-bit flip of it is a user error: exit 1 with a message
    // naming the decision log, never a signal. The trailing digest
    // makes every flip detectable.
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 1, 0});
    log.append({milliseconds(3), DecisionKind::Steal, 2, 0, 7});
    log.append({milliseconds(3), DecisionKind::Crash, 1, 300, 2});
    log.append({seconds(2), DecisionKind::Migrate, 0, 3, 128});
    const std::vector<std::uint8_t> bytes = log.encode();
    ASSERT_EQ(bytes.size(), 43u);
    ::testing::FLAGS_gtest_death_test_style = "fast";
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + n);
        EXPECT_EXIT(DecisionLog::decode(prefix),
                    ::testing::ExitedWithCode(1), "decision log")
            << "prefix of " << n << " bytes";
    }
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_EXIT(DecisionLog::decode(flipped),
                    ::testing::ExitedWithCode(1), "decision log")
            << "bit " << bit << " flipped";
    }
}

TEST(DecisionLogTest, LoadRejectsDirectory)
{
    // A directory opens like a file but is no log: exit 1 naming the
    // path, not an allocation failure from a bogus size.
    const std::string dir = tempPath("decision_log_dir");
    std::filesystem::create_directories(dir);
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(DecisionLog::load(dir), ::testing::ExitedWithCode(1),
                "not a regular file: .*decision_log_dir");
    std::filesystem::remove(dir);
}

// ------------------------------------------------------ cluster fixture

class ReplayFixture : public ::testing::Test
{
  protected:
    ReplayFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-replay";
        task.numImages = 400;
        task.seed = 11;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    ClusterConfig
    onlineConfig(int replicas,
                 RoutingPolicy policy = RoutingPolicy::LeastLoaded) const
    {
        ClusterConfig cc = homogeneousCluster(ctx_, cfg_, replicas,
                                              policy, "replay");
        cc.workStealing.enabled = true;
        cc.workStealing.backlogThreshold = 2;
        cc.workStealing.minBacklog = milliseconds(20);
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

// -------------------------------------------------- record and replay

TEST_F(ReplayFixture, RecordThenReplayIsByteIdentical)
{
    const std::string logA = tempPath("replay_a.bin");
    const std::string logB = tempPath("replay_b.bin");

    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = logA;
    ClusterEngine first(onlineConfig(3));
    const ClusterResult r1 = first.run(trace_, rec);
    EXPECT_GT(r1.decisionCount, 0);

    // Replay the log while re-recording: the verified decision stream
    // must serialize to the exact bytes of the original log.
    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = logA;
    rep.recordPath = logB;
    ClusterEngine second(onlineConfig(3));
    const ClusterResult r2 = second.run(trace_, rep);

    EXPECT_EQ(r1.decisionDigest, r2.decisionDigest);
    EXPECT_EQ(r1.images, r2.images);
    EXPECT_EQ(r1.makespan, r2.makespan);
    const std::vector<std::uint8_t> a = readFile(logA);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, readFile(logB));
    std::remove(logA.c_str());
    std::remove(logB.c_str());
}

TEST_F(ReplayFixture, SharedTierStaticRunRecordsAndReplays)
{
    // A static run whose replicas share one CPU tier executes them in
    // replica order, so default options record it, the replay
    // verifies it, and the replay run reproduces every tier counter
    // and per-replica result of the recording. The smallest GPU pool
    // makes experts cycle through the shared tier. Under a crash plan
    // the replicas run in replica order before and after the crash,
    // which must be just as reproducible.
    const int minCount = gpuExpertCountBounds(ctx_, 1, 0).first;
    const EngineConfig small = coserveConfig(
        ctx_, coserveExecutorLayout(ctx_, 1, 0, minCount), "replica");
    const auto sharedConfig = [this, &small] {
        ClusterConfig cc = homogeneousCluster(
            ctx_, small, 3, RoutingPolicy::LeastLoaded, "shared-static");
        cc.sharedCpu.enabled = true;
        cc.sharedCpu.bytes = 512ll * 1024 * 1024;
        return cc;
    };
    FaultPlan crash;
    crash.crashes.push_back({1, at(150)});
    for (const FaultPlan &faults : {FaultPlan{}, crash}) {
        SCOPED_TRACE(faults.any() ? "crash plan" : "clean");
        const std::string log = tempPath("replay_shared_static.bin");
        RunOptions rec;
        rec.recordPath = log;
        rec.faults = faults;
        ClusterEngine recorder(sharedConfig());
        const ClusterResult r1 = recorder.run(trace_, rec);

        RunOptions rep;
        rep.replayPath = log;
        rep.faults = faults;
        ClusterEngine replayer(sharedConfig());
        const ClusterResult r2 = replayer.run(trace_, rep);
        std::remove(log.c_str());

        EXPECT_EQ(r1.decisionDigest, r2.decisionDigest);
        EXPECT_EQ(r1.decisionCount, r2.decisionCount);
        if (!faults.any()) {
            EXPECT_EQ(r1.decisionCount,
                      static_cast<std::int64_t>(trace_.size()));
        }
        EXPECT_EQ(r1.crashesInjected, faults.any() ? 1 : 0);
        EXPECT_EQ(r1.crashRehomed > 0, faults.any());
        EXPECT_EQ(r1.images, static_cast<std::int64_t>(trace_.size()));

        const TierStats *t1 = findTierStats(r1.tiers, "cpu.shared");
        const TierStats *t2 = findTierStats(r2.tiers, "cpu.shared");
        ASSERT_NE(t1, nullptr);
        ASSERT_NE(t2, nullptr);
        EXPECT_GT(t1->counters.hits, 0);
        EXPECT_GT(t1->counters.evictions, 0);
        EXPECT_EQ(t1->counters.hits, t2->counters.hits);
        EXPECT_EQ(t1->counters.misses, t2->counters.misses);
        EXPECT_EQ(t1->counters.evictions, t2->counters.evictions);
        EXPECT_EQ(t1->counters.insertions, t2->counters.insertions);
        EXPECT_EQ(t1->usedBytes, t2->usedBytes);

        ASSERT_EQ(r1.replicas.size(), 3u);
        ASSERT_EQ(r2.replicas.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            const RunResult &a = r1.replicas[i];
            const RunResult &b = r2.replicas[i];
            EXPECT_EQ(a.images, b.images) << "replica " << i;
            EXPECT_EQ(a.makespan, b.makespan) << "replica " << i;
            EXPECT_EQ(a.eventsExecuted, b.eventsExecuted) << "replica " << i;
            EXPECT_EQ(a.switches.loadsFromSsd, b.switches.loadsFromSsd);
            EXPECT_EQ(a.switches.loadsFromCache, b.switches.loadsFromCache);
            EXPECT_EQ(a.switches.bytesLoaded, b.switches.bytesLoaded);
            EXPECT_EQ(a.assignments, b.assignments) << "replica " << i;
            // assignments is indexed by request id: a survivor records
            // one entry per inference it served, re-homed work
            // included, so re-homed requests need ids of its own.
            if (faults.any() && i == 1)
                continue;
            EXPECT_EQ(std::count_if(a.assignments.begin(),
                                    a.assignments.end(),
                                    [](int e) { return e >= 0; }),
                      a.inferences)
                << "replica " << i;
        }
    }
}

TEST_F(ReplayFixture, ReplayDivergenceIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string log = tempPath("replay_diverge.bin");
    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = log;
    ClusterEngine recorder(onlineConfig(3, RoutingPolicy::LeastLoaded));
    recorder.run(trace_, rec);

    // A different routing policy computes different decisions; the
    // replay must die on the first mismatch, not drift silently.
    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = log;
    EXPECT_EXIT(
        {
            ClusterEngine diverged(
                onlineConfig(3, RoutingPolicy::RoundRobin));
            diverged.run(trace_, rep);
        },
        ::testing::ExitedWithCode(1), "replay divergence");
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, StaticReplayDivergenceIsFatal)
{
    // Private tiers: the replicas step on threads while the caller
    // notes the pinned Route records, so the divergence is met beside
    // the threads and reported after the join.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string log = tempPath("replay_static_diverge.bin");
    RunOptions rec;
    rec.recordPath = log;
    ClusterEngine recorder(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    recorder.run(trace_, rec);

    RunOptions rep;
    rep.replayPath = log;
    EXPECT_EXIT(
        {
            ClusterEngine diverged(homogeneousCluster(
                ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
            diverged.run(trace_, rep);
        },
        ::testing::ExitedWithCode(1), "replay divergence");
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, DigestOnlyRunsMatchRecordingRuns)
{
    // A run without recordPath keeps no records, only the digest and
    // count: both must equal a recording run's, and the recorded log
    // must decode to that count. A threaded static run, a static run
    // with a crash plan (its notes come before the threads) and an
    // online run.
    FaultPlan crash;
    crash.crashes.push_back({1, at(150)});
    struct Case
    {
        const char *name;
        RunMode mode;
        FaultPlan faults;
    };
    const Case cases[] = {
        {"static", RunMode::Static, {}},
        {"static crash", RunMode::Static, crash},
        {"online", RunMode::Online, {}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const auto run = [&](const std::string &record) {
            RunOptions opts = runWithMode(c.mode);
            opts.faults = c.faults;
            opts.recordPath = record;
            ClusterEngine cluster(c.mode == RunMode::Online
                                      ? onlineConfig(3)
                                      : homogeneousCluster(
                                            ctx_, cfg_, 3,
                                            RoutingPolicy::LeastLoaded));
            return cluster.run(trace_, opts);
        };
        const std::string log = tempPath("replay_digest_only.bin");
        const ClusterResult recorded = run(log);
        const ClusterResult digestOnly = run("");
        EXPECT_GE(recorded.decisionCount,
                  static_cast<std::int64_t>(trace_.size()));
        EXPECT_EQ(digestOnly.decisionDigest, recorded.decisionDigest);
        EXPECT_EQ(digestOnly.decisionCount, recorded.decisionCount);
        const DecisionLog back = DecisionLog::load(log);
        EXPECT_EQ(static_cast<std::int64_t>(back.size()),
                  recorded.decisionCount);
        EXPECT_EQ(back.digest(), recorded.decisionDigest);
        std::remove(log.c_str());
    }
}

// ---------------------------------------------------- config validation

TEST_F(ReplayFixture, ValidateReportsHumanReadableErrors)
{
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::LeastLoaded);
    // Online-only policies in (resolved) static mode.
    cc.workStealing.enabled = true;
    cc.admission.enabled = true;
    cc.autoscale.enabled = true;
    cc.autoscale.interval = 0;
    cc.autoscale.minReplicas = 5;
    std::vector<std::string> errors = cc.validate({});
    ASSERT_GE(errors.size(), 4u);

    // The same config is clean once the run is online and the
    // autoscaler knobs are sane.
    cc.autoscale.interval = seconds(1);
    cc.autoscale.minReplicas = 1;
    EXPECT_TRUE(cc.validate(runWithMode(RunMode::Online)).empty());

    // Fault-plan bounds.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({7, seconds(1)});     // out of range
    opts.faults.crashes.push_back({0, seconds(1)});
    opts.faults.crashes.push_back({0, seconds(2)});     // twice
    opts.faults.stragglers.push_back({1, seconds(2), seconds(1), 0.5});
    opts.faults.brownouts.push_back({1, seconds(1), seconds(2), 1.5});
    errors = cc.validate(opts);
    ASSERT_GE(errors.size(), 5u);

    // NaN factors fail every comparison; they must still be reported,
    // not reach the engine's run-time checks.
    RunOptions nan = runWithMode(RunMode::Online);
    nan.faults.stragglers.push_back(
        {0, seconds(1), seconds(2), std::nan("")});
    nan.faults.brownouts.push_back(
        {1, seconds(1), seconds(2), std::nan("")});
    errors = cc.validate(nan);
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_NE(errors[0].find("straggler slowdown"), std::string::npos);
    EXPECT_NE(errors[1].find("brownout factor"), std::string::npos);

    // A negative shared-tier capacity is a config error, not an
    // internal check failure at run time.
    ClusterConfig negative = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    negative.sharedCpu.enabled = true;
    negative.sharedCpu.bytes = -1;
    errors = negative.validate({});
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("sharedCpu.bytes"), std::string::npos);

    // Same record and replay path.
    RunOptions paths;
    paths.recordPath = "x.bin";
    paths.replayPath = "x.bin";
    EXPECT_FALSE(
        homogeneousCluster(ctx_, cfg_, 2, RoutingPolicy::LeastLoaded)
            .validate(paths)
            .empty());
}

TEST_F(ReplayFixture, RunRejectsInvalidConfig)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::LeastLoaded);
    cc.workStealing.enabled = true; // static mode: invalid
    EXPECT_EXIT(
        {
            ClusterEngine cluster(std::move(cc));
            cluster.run(trace_, {});
        },
        ::testing::ExitedWithCode(1),
        "invalid cluster run configuration");
}

// ------------------------------------------------------ fault injection

TEST_F(ReplayFixture, CrashMidRunReconcilesEveryRequest)
{
    // Crash one of three replicas at peak load: its queued + running
    // work must re-home onto the survivors with nothing unaccounted.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({1, at(200)});
    ClusterEngine cluster(onlineConfig(3));
    const ClusterResult r = cluster.run(trace_, opts);

    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.crashesInjected, 1);
    EXPECT_GT(r.crashRehomed, 0);
    // Homogeneous cluster: every survivor can serve everything.
    EXPECT_EQ(r.crashLost, 0);
    EXPECT_EQ(r.images + r.slo.rejected() + r.crashLost,
              static_cast<std::int64_t>(trace_.size()));
    // The dead replica completed some prefix and then nothing more.
    ASSERT_EQ(r.replicas.size(), 3u);
    EXPECT_LT(r.imagesPerReplica[1], r.imagesPerReplica[0]);
    // The report grows a failure section.
    EXPECT_NE(summarize(r).find("faults: 1 crash"), std::string::npos);
}

TEST_F(ReplayFixture, CrashIsDeterministicAndReplayable)
{
    const std::string log = tempPath("replay_crash.bin");
    const auto run = [&](const std::string &record,
                         const std::string &replay) {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.faults.crashes.push_back({0, at(150)});
        opts.recordPath = record;
        opts.replayPath = replay;
        ClusterEngine cluster(onlineConfig(3));
        return cluster.run(trace_, opts);
    };
    const ClusterResult a = run(log, "");
    const ClusterResult b = run("", log);
    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.crashRehomed, b.crashRehomed);
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, StaticModeSupportsFaultsWithPinnedRouting)
{
    // A static run under faults keeps routing pinned to the offline
    // assignment; only arrivals whose assigned replica died re-home.
    ClusterEngine clean(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult base = clean.run(trace_, {});

    RunOptions opts; // static by default
    opts.faults.crashes.push_back({2, at(100)});
    ClusterEngine cluster(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult r = cluster.run(trace_, opts);
    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.images + r.crashLost,
              static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.crashLost, 0);
    // The fault changed the schedule; the digest must say so.
    EXPECT_NE(r.decisionDigest, base.decisionDigest);
}

TEST_F(ReplayFixture, StaticFaultPlanDigestIsPinned)
{
    // A static run under a plan with every fault kind and no
    // migration: pinned routing, round-robin re-homing of the crashed
    // replica's drained work, later arrivals re-homed off it, and all
    // four fault toggles. Any change to those coordinator paths moves
    // the digest.
    const std::size_t crashAt = 150;
    RunOptions opts; // static by default
    opts.faults.crashes.push_back({1, at(crashAt)});
    opts.faults.stragglers.push_back({0, at(50), at(250), 3.0});
    opts.faults.brownouts.push_back({2, at(100), at(300), 0.25});
    ClusterEngine cluster(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);
    const ClusterResult r = cluster.run(trace_, opts);

    // Some later arrivals were assigned to the dead replica.
    EXPECT_NE(std::find(assignment.begin() + crashAt + 1,
                        assignment.end(), 1u),
              assignment.end());
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.crashesInjected, 1);
    EXPECT_EQ(r.crashLost, 0);
    EXPECT_EQ(r.stragglersInjected, 1);
    EXPECT_EQ(r.brownoutsInjected, 1);
    EXPECT_EQ(r.crashRehomed, 46);
    EXPECT_EQ(r.decisionDigest, 0x632ee3ccc99829c2ull)
        << std::hex << "0x" << r.decisionDigest;
    EXPECT_EQ(r.decisionCount, 407);
}

TEST_F(ReplayFixture, UnsortedTraceFailsCleanlyOnTheCoordinatorPath)
{
    // Two arrivals out of time order. Every run serves a time-ordered
    // stream, so each path refuses the trace up front with a user error
    // naming the first out-of-order arrival: a standalone engine, and a
    // clean static, a faulted static and an online cluster run.
    Trace unsorted = trace_;
    ASSERT_LT(unsorted.arrivals[10].time, unsorted.arrivals[11].time);
    std::swap(unsorted.arrivals[10], unsorted.arrivals[11]);

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(makeCoServeEngine(ctx_, cfg_)->run(unsorted),
                ::testing::ExitedWithCode(1),
                "time-sorted arrivals: arrival 11 is earlier than arrival 10");
    EXPECT_EXIT(
        {
            ClusterEngine cluster(homogeneousCluster(
                ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
            cluster.run(unsorted, {});
        },
        ::testing::ExitedWithCode(1),
        "time-sorted arrivals: arrival 11 is earlier than arrival 10");
    EXPECT_EXIT(
        {
            ClusterEngine cluster(onlineConfig(3));
            cluster.run(unsorted, runWithMode(RunMode::Online));
        },
        ::testing::ExitedWithCode(1),
        "time-sorted arrivals: arrival 11 is earlier than arrival 10");
    EXPECT_EXIT(
        {
            RunOptions opts; // static, with a fault plan
            opts.faults.stragglers.push_back({0, at(50), at(250), 3.0});
            ClusterEngine cluster(homogeneousCluster(
                ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
            cluster.run(unsorted, opts);
        },
        ::testing::ExitedWithCode(1),
        "time-sorted arrivals: arrival 11 is earlier than arrival 10");
}

TEST_F(ReplayFixture, StragglerSlowsDeterministically)
{
    const auto run = [&](FaultPlan faults) {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.faults = std::move(faults);
        ClusterEngine cluster(onlineConfig(3));
        return cluster.run(trace_, opts);
    };
    const ClusterResult clean = run({});

    FaultPlan slow;
    slow.stragglers.push_back({0, at(50), at(350), 4.0});
    const ClusterResult a = run(slow);
    const ClusterResult b = run(slow);

    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.stragglersInjected, 1);
    EXPECT_EQ(a.images, static_cast<std::int64_t>(trace_.size()));
    // A 4x-slower replica must change the schedule.
    EXPECT_NE(a.decisionDigest, clean.decisionDigest);
}

TEST_F(ReplayFixture, BrownoutThrottlesStorageAndReconciles)
{
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.brownouts.push_back({1, at(50), at(350), 0.25});
    ClusterEngine cluster(onlineConfig(3));
    const ClusterResult r = cluster.run(trace_, opts);
    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.brownoutsInjected, 1);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
}

} // namespace
} // namespace coserve
