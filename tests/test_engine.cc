/**
 * @file
 * Integration tests for the serving engine on a small board and a tiny
 * device: completion, determinism, prefetch overlap, cache tier, the
 * effect of grouped scheduling on switch counts, pinned schedules for
 * traces with tied and out-of-order arrival times (run() and the same
 * trace stepped through the lifecycle calls), planned arrivals, and
 * online admission (admitArrival) at its reserved slot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "baselines/evictions.h"
#include "baselines/schedulers.h"
#include "coe/board_builder.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/engine.h"
#include "workload/generator.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

/** Shared fixture: tiny board on the tiny NUMA test device. */
class EngineFixture : public ::testing::Test
{
  protected:
    EngineFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          truth_(LatencyModel::calibrated(device_)),
          footprint_(FootprintModel::calibrated(device_)),
          usage_(UsageProfile::exact(model_))
    {
        TaskSpec task;
        task.name = "tiny";
        task.numImages = 300;
        task.seed = 5;
        trace_ = generateTrace(model_, task);
    }

    EngineConfig
    smallConfig(int gpuExecs, std::int64_t gpuPoolMB) const
    {
        EngineConfig cfg;
        cfg.label = "test";
        cfg.device = device_;
        for (int i = 0; i < gpuExecs; ++i) {
            ExecutorConfig e;
            e.kind = ProcKind::GPU;
            e.poolBytes = gpuPoolMB * kMB / gpuExecs;
            e.batchMemBytes = 800 * kMB / gpuExecs;
            cfg.executors.push_back(e);
        }
        EngineConfig tmp = cfg;
        fillMaxBatchTable(cfg, truth_);
        return cfg;
    }

    RunResult
    runWith(EngineConfig cfg, std::unique_ptr<Scheduler> sched,
            std::unique_ptr<EvictionPolicy> evict)
    {
        ServingEngine engine(std::move(cfg), model_, truth_, footprint_,
                             usage_, std::move(sched), std::move(evict));
        return engine.run(trace_);
    }

    DeviceSpec device_;
    CoEModel model_;
    LatencyModel truth_;
    FootprintModel footprint_;
    UsageProfile usage_;
    Trace trace_;
};

TEST_F(EngineFixture, AllImagesComplete)
{
    const RunResult r =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.images, 300);
    EXPECT_GE(r.inferences, r.images);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GE(r.makespan, trace_.arrivals.back().time);
}

TEST_F(EngineFixture, NoSwitchesWhenEverythingFits)
{
    // 15 experts * ~190 MiB < 4 GiB: the preload holds the whole pool.
    const RunResult r =
        runWith(smallConfig(1, 4000),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.switches.total(), 0);
    EXPECT_EQ(r.switches.evictions, 0);
}

TEST_F(EngineFixture, SwitchesHappenUnderPressure)
{
    const RunResult r =
        runWith(smallConfig(1, 800), // ~4 experts of 15 fit
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_GT(r.switches.total(), 0);
    EXPECT_GT(r.switches.evictions, 0);
    EXPECT_GT(r.switches.bytesLoaded, 0);
}

TEST_F(EngineFixture, DeterministicAcrossRuns)
{
    const RunResult a =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    const RunResult b =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.switches.total(), b.switches.total());
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.assignments, b.assignments);
}

TEST_F(EngineFixture, GroupedInsertionReducesSwitches)
{
    const RunResult plain =
        runWith(smallConfig(1, 800),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    const RunResult grouped =
        runWith(smallConfig(1, 800),
                std::make_unique<RoundRobinScheduler>(true),
                std::make_unique<LruEviction>());
    EXPECT_LT(grouped.switches.total(), plain.switches.total());
    EXPECT_LT(grouped.makespan, plain.makespan);
}

TEST_F(EngineFixture, PrefetchOverlapsLoads)
{
    EngineConfig withPf = smallConfig(1, 800);
    withPf.prefetch = true;
    EngineConfig noPf = smallConfig(1, 800);
    noPf.prefetch = false;

    const RunResult a = runWith(std::move(withPf),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<TwoStageEviction>());
    const RunResult b = runWith(std::move(noPf),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<TwoStageEviction>());
    EXPECT_GT(a.switches.prefetchLoads, 0);
    EXPECT_EQ(b.switches.prefetchLoads, 0);
    // Overlapping switches with execution shortens the run.
    EXPECT_LE(a.makespan, b.makespan);
}

TEST_F(EngineFixture, CacheTierServesRepeatLoads)
{
    EngineConfig cfg = smallConfig(1, 800);
    cfg.cpuCacheTier = true;
    cfg.cpuCacheBytes = 2000 * kMB;
    const RunResult r = runWith(std::move(cfg),
                                std::make_unique<FcfsSingleScheduler>(),
                                std::make_unique<LruEviction>());
    EXPECT_GT(r.switches.loadsFromCache, 0);
    EXPECT_GT(r.switches.demotions, 0);

    const RunResult noCache =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_LT(r.makespan, noCache.makespan);
}

TEST_F(EngineFixture, BatchingDisabledMeansSingletons)
{
    EngineConfig cfg = smallConfig(1, 1200);
    cfg.batching = false;
    const RunResult r = runWith(std::move(cfg),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<LruEviction>());
    for (const ExecutorStats &es : r.executors)
        EXPECT_LE(es.avgBatchSize, 1.0 + 1e-9);
}

TEST_F(EngineFixture, LatencySamplesMatchInferences)
{
    const RunResult r =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.requestLatencyMs.count(),
              static_cast<std::size_t>(r.inferences));
    EXPECT_EQ(r.inferenceLatencyMs.count(),
              static_cast<std::size_t>(r.inferences));
    EXPECT_GT(r.requestLatencyMs.mean(), 0.0);
}

TEST_F(EngineFixture, ExecutorStatsConsistent)
{
    const RunResult r =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    std::int64_t requests = 0, switches = 0;
    for (const ExecutorStats &es : r.executors) {
        requests += es.requests;
        switches += es.switches.total();
        EXPECT_GE(es.busyTime, 0);
    }
    EXPECT_EQ(requests, r.inferences);
    EXPECT_EQ(switches, r.switches.total());
}

TEST_F(EngineFixture, EngineIsSingleUse)
{
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.run(trace_);
    EXPECT_DEATH(engine.run(trace_), "single-use");
}

TEST_F(EngineFixture, DependencyAwareBeatsFcfsUnderPressure)
{
    EngineConfig cfgA = smallConfig(2, 1200);
    cfgA.prefetch = true;
    const RunResult coserve =
        runWith(std::move(cfgA),
                std::make_unique<DependencyAwareScheduler>(),
                std::make_unique<TwoStageEviction>());

    EngineConfig cfgB = smallConfig(2, 1200);
    cfgB.prefetch = false;
    cfgB.preloadByUsage = false;
    const RunResult fcfs =
        runWith(std::move(cfgB),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());

    EXPECT_GT(coserve.throughput, fcfs.throughput);
    EXPECT_LT(coserve.switches.total(), fcfs.switches.total());
}

TEST_F(EngineFixture, PredictLoadTimeSemantics)
{
    ServingEngine engine(smallConfig(1, 4000), model_, truth_,
                         footprint_, usage_,
                         std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.run(trace_); // preloads everything (pool holds all experts)
    // Resident expert: zero switch latency (Section 4.2).
    EXPECT_EQ(engine.predictLoadTime(0, 0), 0);
}

/**
 * Scheduler wrapper that folds every dispatch — (request id, stage,
 * virtual time) — into an FNV-1a digest before delegating. A detect
 * child is dispatched at its parent's completion time; with the
 * completion-order latencies folded in after the run, the digest pins
 * each request's id and dispatch time and the sequence of completions.
 */
class DigestScheduler : public Scheduler
{
  public:
    DigestScheduler(std::unique_ptr<Scheduler> inner, std::uint64_t *digest)
        : inner_(std::move(inner)), digest_(digest)
    {
    }

    const char *name() const override { return inner_->name(); }

    void
    dispatch(ServingEngine &engine, const Request &req) override
    {
        fold(digest_, static_cast<std::uint64_t>(req.id));
        fold(digest_, static_cast<std::uint64_t>(req.stage));
        fold(digest_, static_cast<std::uint64_t>(engine.now()));
        inner_->dispatch(engine, req);
    }

    void reset() override { inner_->reset(); }

    static void
    fold(std::uint64_t *h, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            *h ^= (v >> (8 * i)) & 0xFF;
            *h *= 0x100000001b3ull;
        }
    }

  private:
    std::unique_ptr<Scheduler> inner_;
    std::uint64_t *digest_;
};

class EngineTraceOrderTest : public EngineFixture
{
  protected:
    /**
     * Dependency-aware run of @p trace; @return the schedule digest.
     * With @p stepped the trace is driven through the lifecycle calls
     * (admitPlanned + uneven stepUntil chunks) instead of run().
     */
    std::uint64_t
    digestRun(const Trace &trace, RunResult &out, bool stepped = false)
    {
        std::uint64_t digest = 0xcbf29ce484222325ull;
        EngineConfig cfg = smallConfig(2, 1200);
        cfg.prefetch = true;
        ServingEngine engine(
            std::move(cfg), model_, truth_, footprint_, usage_,
            std::make_unique<DigestScheduler>(
                std::make_unique<DependencyAwareScheduler>(), &digest),
            std::make_unique<TwoStageEviction>());
        if (stepped) {
            engine.beginOnline(0, 1);
            engine.admitPlanned(trace.arrivals.data(), trace.size(), trace.size(),
                                true);
            // Every fifth arrival instant, in trace order, each
            // followed by a point just past the next event (which may
            // be past the next instant, so a step may go backwards,
            // which must do nothing); then between events to the end,
            // and past the end.
            for (std::size_t i = 0; i < trace.arrivals.size(); i += 5) {
                engine.stepUntil(trace.arrivals[i].time);
                const Time next = engine.nextEventTime();
                if (next != kTimeNever)
                    engine.stepUntil(next + 1);
            }
            for (Time t; (t = engine.nextEventTime()) != kTimeNever;)
                engine.stepUntil(t + 1);
            engine.stepUntil(engine.now() + seconds(1));
            out = engine.finishOnline();
        } else {
            out = engine.run(trace);
        }
        for (double ms : out.requestLatencyMs.raw()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &ms, sizeof bits);
            DigestScheduler::fold(&digest, bits);
        }
        return digest;
    }

    /** trace_ with every run of four arrivals sharing one timestamp. */
    Trace
    tiedTrace() const
    {
        Trace t = trace_;
        for (std::size_t i = 0; i < t.arrivals.size(); ++i)
            t.arrivals[i].time = trace_.arrivals[i - i % 4].time;
        return t;
    }
};

// The expected values below were recorded with arrivals scheduled as
// heap events before the run; feeding them from the trace must
// reproduce the schedule exactly.

TEST_F(EngineTraceOrderTest, TiedArrivalsKeepIndexOrder)
{
    const Trace tied = tiedTrace();
    ASSERT_TRUE(std::is_sorted(
        tied.arrivals.begin(), tied.arrivals.end(),
        [](const ImageArrival &a, const ImageArrival &b) {
            return a.time < b.time;
        }));
    for (const bool stepped : {false, true}) {
        RunResult r;
        const std::uint64_t digest = digestRun(tied, r, stepped);
        EXPECT_EQ(r.images, 300) << "stepped " << stepped;
        EXPECT_EQ(r.eventsExecuted, 697u) << "stepped " << stepped;
        EXPECT_EQ(digest, 0xe1d813e3b8e558c0ull) << "stepped " << stepped;
    }
}

TEST_F(EngineTraceOrderTest, AppendedPlanMatchesRun)
{
    // The plan arrives in chunks of seven arrivals, and the engine
    // steps to just before the first arrival not yet planned; chunk
    // boundaries split runs of same-time arrivals. Detect children
    // spawned while the plan is open draw provisional ids, so the
    // schedule digest (which reads ids) is not compared; assignments,
    // indexed by final id, are.
    const Trace trace = tiedTrace();
    RunResult whole;
    digestRun(trace, whole);
    ServingEngine engine(smallConfig(2, 1200), model_, truth_, footprint_,
                         usage_, std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    engine.beginOnline(0, 1);
    for (std::size_t k = 0; k < trace.size();) {
        k = std::min(k + 7, trace.size());
        engine.admitPlanned(trace.arrivals.data(), k, trace.size(),
                            k == trace.size());
        if (k < trace.size())
            engine.stepUntil(trace.arrivals[k].time - 1);
    }
    engine.stepUntil(kTimeNever);
    const RunResult chunked = engine.finishOnline();
    EXPECT_EQ(chunked.images, whole.images);
    EXPECT_EQ(chunked.eventsExecuted, whole.eventsExecuted);
    EXPECT_EQ(chunked.makespan, whole.makespan);
    EXPECT_EQ(chunked.assignments, whole.assignments);
    EXPECT_EQ(chunked.requestLatencyMs.raw(), whole.requestLatencyMs.raw());
}

TEST_F(EngineTraceOrderTest, OutOfOrderAppendedChunkFailsCleanly)
{
    // The first chunk is in order; the second starts earlier than the
    // first ends. The engine refuses the plan with a user error naming
    // the first out-of-order arrival, counted from the plan's start.
    Trace late = tiedTrace();
    ASSERT_LT(late.arrivals[7].time, late.arrivals[11].time);
    late.arrivals[12].time = late.arrivals[7].time;
    ServingEngine engine(smallConfig(2, 1200), model_, truth_, footprint_,
                         usage_, std::make_unique<DependencyAwareScheduler>(),
                         std::make_unique<TwoStageEviction>());
    engine.beginOnline(0, 1);
    engine.admitPlanned(late.arrivals.data(), 10, late.size(), false);
    engine.stepUntil(late.arrivals[10].time - 1);
    EXPECT_EXIT(engine.admitPlanned(late.arrivals.data(), 20, late.size(),
                                    false),
                ::testing::ExitedWithCode(1),
                "time-sorted arrivals: arrival 12 is earlier than "
                "arrival 11");
}

/**
 * One online engine admitting arrivals one at a time, as a cluster
 * coordinator does (admitArrival, then stepUntil the arrival instant),
 * over trace_ reshaped so that every four arrivals share one instant
 * and every eighth lands on the engine's own next pending event (a
 * batch or load completion). Before such a tied arrival the engine
 * steps only to just before it, so the tied event is still pending
 * when the arrival is admitted; the rest are admitted at the engine's
 * clock.
 */
class OnlineAdmissionTest : public EngineFixture
{
  protected:
    struct Drive
    {
        RunResult result;
        /** DigestScheduler's dispatch digest plus the latencies. */
        std::uint64_t digest = 0xcbf29ce484222325ull;
        /** FNV-1a over RunResult::assignments. */
        std::uint64_t assignDigest = 0xcbf29ce484222325ull;
        /** Admissions with an event at their instant still pending. */
        int tiedPending = 0;
        /** Smallest stepUntil() count right after an admission. */
        std::uint64_t minRanAfterAdmit = UINT64_MAX;
        /**
         * Admissions after which that step ran exactly one event (the
         * admission) and left nothing pending at the instant: the
         * dispatch scheduled nothing there.
         */
        int soleAdmissions = 0;
    };

    Drive
    drive()
    {
        Drive d;
        EngineConfig cfg = smallConfig(2, 1200);
        cfg.prefetch = true;
        ServingEngine engine(
            std::move(cfg), model_, truth_, footprint_, usage_,
            std::make_unique<DigestScheduler>(
                std::make_unique<DependencyAwareScheduler>(), &d.digest),
            std::make_unique<TwoStageEviction>());
        // Replica 1 of 3: strided request ids, as online replicas use.
        engine.beginOnline(1, 3);
        Time t = 0;
        for (std::size_t k = 0; k < trace_.size(); ++k) {
            ImageArrival a = trace_.arrivals[k];
            const bool tied = k % 8 == 4;
            if (k % 4 != 0) {
                a.time = t;
            } else if (tied) {
                const Time next = engine.nextEventTime();
                a.time = std::max(t, next != kTimeNever ? next : a.time);
            } else {
                a.time = std::max(t, a.time);
            }
            t = a.time;
            engine.stepUntil(tied ? a.time - 1 : a.time);
            d.tiedPending += engine.nextEventTime() == a.time ? 1 : 0;
            engine.admitArrival(a);
            const std::uint64_t ran = engine.stepUntil(a.time);
            d.minRanAfterAdmit = std::min(d.minRanAfterAdmit, ran);
            if (ran == 1 && engine.nextEventTime() > a.time)
                d.soleAdmissions += 1;
        }
        engine.stepUntil(kTimeNever);
        d.result = engine.finishOnline();
        for (double ms : d.result.requestLatencyMs.raw()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &ms, sizeof bits);
            DigestScheduler::fold(&d.digest, bits);
        }
        for (int exec : d.result.assignments) {
            DigestScheduler::fold(&d.assignDigest,
                                  static_cast<std::uint64_t>(exec));
        }
        return d;
    }
};

// Recorded with online arrivals scheduled as heap events, which the
// next step ran; admitting each at its reserved slot must reproduce
// the schedule exactly.
TEST_F(OnlineAdmissionTest, BurstsAndCompletionTiesArePinned)
{
    const Drive d = drive();
    EXPECT_EQ(d.result.images, 300);
    EXPECT_GT(d.tiedPending, 0) << "no arrival met a pending event";
    EXPECT_EQ(d.result.eventsExecuted, 697u);
    EXPECT_EQ(d.result.assignments.size(), 1094u);
    EXPECT_EQ(d.digest, 0x4045ae85c90c795full);
    EXPECT_EQ(d.assignDigest, 0xa12d3176e96f10ddull);
}

TEST_F(OnlineAdmissionTest, StepAfterAdmissionCountsIt)
{
    // The admission is one executed event, and the step after it
    // reports it even when the dispatch scheduled nothing at the
    // instant: a coordinator that refreshes a replica's view only on
    // a non-zero step count must see the queued arrival.
    const Drive d = drive();
    EXPECT_GE(d.minRanAfterAdmit, 1u);
    EXPECT_GT(d.soleAdmissions, 0);
}

TEST_F(EngineFixture, AdmissionAheadOfPlannedArrivalsMatchesSteppedAdmission)
{
    // A replica with a plan takes an online arrival later than some
    // of its planned arrivals: admitting it without stepping first
    // must admit those planned arrivals before it, exactly as stepping
    // to the arrival instant first does.
    const std::size_t planned = 200;
    const auto drive = [&](bool stepFirst) {
        ServingEngine engine(smallConfig(2, 1200), model_, truth_,
                             footprint_, usage_,
                             std::make_unique<DependencyAwareScheduler>(),
                             std::make_unique<TwoStageEviction>());
        engine.beginOnline(0, 1);
        engine.admitPlanned(trace_.arrivals.data(), planned, planned, true);
        for (std::size_t k = planned; k < trace_.size(); k += 10) {
            ImageArrival a = trace_.arrivals[k];
            a.time = trace_.arrivals[k - planned + 5].time;
            if (stepFirst)
                engine.stepUntil(a.time);
            engine.admitArrival(a);
            EXPECT_GE(engine.stepUntil(a.time), 1u);
        }
        engine.stepUntil(kTimeNever);
        return engine.finishOnline();
    };
    const RunResult stepped = drive(true);
    const RunResult ahead = drive(false);
    EXPECT_EQ(stepped.images, static_cast<std::int64_t>(planned + 10));
    EXPECT_EQ(ahead.images, stepped.images);
    EXPECT_EQ(ahead.eventsExecuted, stepped.eventsExecuted);
    EXPECT_EQ(ahead.assignments, stepped.assignments);
    EXPECT_EQ(ahead.requestLatencyMs.raw(), stepped.requestLatencyMs.raw());
}

TEST_F(EngineFixture, AdmitArrivalRefusesThePastAndACrashedReplica)
{
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.beginOnline(0, 1);
    ImageArrival a = trace_.arrivals.front();
    engine.stepUntil(a.time + milliseconds(1));
    EXPECT_DEATH(engine.admitArrival(a), "into the past: [0-9]+ < [0-9]+");
    std::vector<CheckpointImage> images;
    std::vector<Request> requests;
    engine.crashDrain(images, requests);
    a.time = engine.now();
    EXPECT_DEATH(engine.admitArrival(a), "admitting into a crashed replica");
}

TEST_F(EngineFixture, OpenPlanRefusesCrashAndFinish)
{
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.beginOnline(0, 1);
    engine.admitPlanned(trace_.arrivals.data(), trace_.size(),
                        trace_.size(), false);
    std::vector<CheckpointImage> images;
    std::vector<Request> requests;
    EXPECT_DEATH(engine.crashDrain(images, requests),
                 "crash before the plan's last chunk");
    EXPECT_DEATH(engine.finishOnline(),
                 "finishOnline before the plan's last chunk");
}

TEST_F(EngineFixture, NextEventTimeReportsFirstPlannedArrival)
{
    Trace later = trace_;
    const Time first = trace_.arrivals.front().time + milliseconds(5);
    for (ImageArrival &a : later.arrivals)
        a.time += milliseconds(5);
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.beginOnline(0, 1);
    EXPECT_EQ(engine.nextEventTime(), kTimeNever);
    engine.admitPlanned(later.arrivals.data(), later.size(), later.size(),
                        true);
    EXPECT_EQ(engine.nextEventTime(), first);
    EXPECT_EQ(engine.stepUntil(first - 1), 0u);
    EXPECT_EQ(engine.nextEventTime(), first);
}

TEST_F(EngineFixture, FinishDiesWhilePlannedArrivalsRemain)
{
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.beginOnline(0, 1);
    engine.admitPlanned(trace_.arrivals.data(), trace_.size(), trace_.size(),
                        true);
    EXPECT_DEATH(engine.finishOnline(), "planned arrivals pending");
}

} // namespace
} // namespace coserve
