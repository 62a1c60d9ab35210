/**
 * @file
 * Tests for the SLO-aware serving layer (src/slo + its threading
 * through workload, runtime and cluster): the streaming quantile
 * sketch, EDF-within-priority queue order and its interaction with
 * work stealing, the admission controller, the SLO trace generators,
 * end-to-end engine accounting, and
 * the online coordinator's admission + autoscaling.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/report.h"
#include "runtime/queue.h"
#include "slo/admission.h"
#include "slo/quantile_sketch.h"
#include "workload/generator.h"

namespace coserve {
namespace {

// ------------------------------------------------- QuantileSketch

TEST(QuantileSketchTest, TracksQuantilesWithinRelativeError)
{
    QuantileSketch sketch(0.01);
    // Deterministic skewed stream: latencies 1..4000 ms, squared
    // spacing so the tail is sparse (like real latency tails).
    std::vector<double> xs;
    for (int i = 1; i <= 2000; ++i) {
        const double x = 0.001 * i * i;
        xs.push_back(x);
        sketch.add(x);
    }
    std::sort(xs.begin(), xs.end());
    for (double q : {0.5, 0.95, 0.99}) {
        const double exact =
            xs[static_cast<std::size_t>(q * (xs.size() - 1))];
        const double est = sketch.quantile(q);
        EXPECT_NEAR(est, exact, exact * 0.03)
            << "q=" << q; // 1% sketch + nearest-rank slack
    }
    EXPECT_EQ(sketch.count(), 2000u);
    EXPECT_DOUBLE_EQ(sketch.min(), 0.001);
    EXPECT_DOUBLE_EQ(sketch.max(), 4000.0);
}

TEST(QuantileSketchTest, MergeMatchesCombinedStream)
{
    QuantileSketch a(0.01), b(0.01), combined(0.01);
    for (int i = 0; i < 500; ++i) {
        const double xa = 1.0 + i * 0.5;
        const double xb = 200.0 + i * 2.0;
        a.add(xa);
        combined.add(xa);
        b.add(xb);
        combined.add(xb);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    for (double q : {0.25, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << q;
}

TEST(QuantileSketchTest, EmptyAndZeroHandling)
{
    QuantileSketch s;
    EXPECT_EQ(s.quantile(0.5), 0.0);
    s.add(0.0);
    s.add(0.0);
    s.add(10.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_NEAR(s.quantile(1.0), 10.0, 10.0 * 0.021);
}

// ------------------------------------------- EDF queue pop order

Request
slotRequest(RequestId id, ExpertId expert, RequestClass cls,
            Time deadline)
{
    Request r;
    r.id = id;
    r.imageId = id;
    r.component = 0;
    r.expert = expert;
    r.cls = cls;
    r.deadline = deadline;
    return r;
}

TEST(SloQueueTest, ClasslessQueueKeepsHeadOrder)
{
    RequestQueue q;
    q.pushGrouped(slotRequest(0, 3, RequestClass::None, kTimeNever), 10);
    q.pushGrouped(slotRequest(1, 5, RequestClass::None, kTimeNever), 10);
    q.pushGrouped(slotRequest(2, 3, RequestClass::None, kTimeNever), 10);
    EXPECT_FALSE(q.sloOrdered());
    EXPECT_EQ(q.nextBatchExpert(), 3);
    EXPECT_EQ(q.prefetchExpert(), q.nextDistinctExpert());

    std::vector<Request> batch;
    q.popBatchFor(q.nextBatchExpert(), 8, batch);
    ASSERT_EQ(batch.size(), 2u); // grouped: both expert-3 requests
    EXPECT_EQ(batch[0].id, 0);
    EXPECT_EQ(batch[1].id, 2);
    EXPECT_EQ(q.nextBatchExpert(), 5);
}

TEST(SloQueueTest, EdfWithinPriorityPopOrder)
{
    RequestQueue q;
    // Arrival order: best-effort, batch (late deadline), interactive
    // (late), interactive (early, different expert).
    q.pushGrouped(slotRequest(0, 1, RequestClass::BestEffort, kTimeNever),
                  10);
    q.pushGrouped(slotRequest(1, 2, RequestClass::Batch, seconds(9)), 10);
    q.pushGrouped(
        slotRequest(2, 3, RequestClass::Interactive, seconds(5)), 10);
    q.pushGrouped(
        slotRequest(3, 4, RequestClass::Interactive, seconds(2)), 10);
    EXPECT_TRUE(q.sloOrdered());

    // Highest priority first; EDF inside the class.
    EXPECT_EQ(q.nextBatchExpert(), 4);
    // The batch that runs after expert 4: the other interactive.
    EXPECT_EQ(q.prefetchExpert(), 3);

    std::vector<Request> batch;
    q.popBatchFor(4, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 3);
    q.popBatchFor(3, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 2); // batch class before best-effort
    q.popBatchFor(2, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 1);
    q.popBatchFor(1, 8, batch);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.sloOrdered());
    EXPECT_EQ(q.pendingWork(), 0);
}

TEST(SloQueueTest, UrgentGroupMemberPullsWholeGroup)
{
    RequestQueue q;
    // Expert 7's group holds a best-effort member and an interactive
    // member (grouped insertion puts them adjacent); the interactive
    // one makes the whole group pop first.
    q.pushGrouped(slotRequest(0, 5, RequestClass::Batch, seconds(3)), 10);
    q.pushGrouped(slotRequest(1, 7, RequestClass::BestEffort, kTimeNever),
                  10);
    q.pushGrouped(
        slotRequest(2, 7, RequestClass::Interactive, seconds(8)), 10);
    EXPECT_EQ(q.nextBatchExpert(), 7);
    std::vector<Request> batch;
    q.popBatchFor(7, 8, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 1);
    EXPECT_EQ(batch[1].id, 2);
    EXPECT_EQ(q.countForExpert(7), 0);
    EXPECT_EQ(q.countForExpert(5), 1);
}

// --------------------------- stealFromTail x EDF (satellite test)

TEST(SloQueueTest, StealFromTailKeepsHeadAndGroupsUnderEdf)
{
    RequestQueue q;
    // Mixed-urgency queue: head group (expert 1), a hot interactive
    // group (expert 2), and a best-effort tail (expert 3).
    q.pushGrouped(slotRequest(0, 1, RequestClass::Batch, seconds(4)), 5);
    q.pushGrouped(
        slotRequest(1, 2, RequestClass::Interactive, seconds(1)), 5);
    q.pushGrouped(
        slotRequest(2, 2, RequestClass::Interactive, seconds(2)), 5);
    q.pushGrouped(slotRequest(3, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    q.pushGrouped(slotRequest(4, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    ASSERT_TRUE(q.sloOrdered());
    ASSERT_EQ(q.size(), 5u);

    // Steal everything stealable: the head request must survive.
    std::vector<Request> loot;
    const int got = q.stealFromTail(8, loot);
    EXPECT_EQ(got, 4);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.headExpert(), 1);
    EXPECT_EQ(q.nextBatchExpert(), 1); // EDF selection still works

    // Group index integrity after tail-stealing urgent entries.
    EXPECT_EQ(q.countForExpert(1), 1);
    EXPECT_EQ(q.countForExpert(2), 0);
    EXPECT_EQ(q.countForExpert(3), 0);
    EXPECT_FALSE(q.containsExpert(2));
    EXPECT_EQ(q.pendingWork(), 5);

    // The queue remains fully usable: EDF re-activates on new urgent
    // work and popBatchFor drains cleanly.
    q.pushGrouped(
        slotRequest(5, 9, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_TRUE(q.sloOrdered());
    EXPECT_EQ(q.nextBatchExpert(), 9);
    std::vector<Request> batch;
    q.popBatchFor(9, 8, batch);
    q.popBatchFor(1, 8, batch);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingWork(), 0);
}

TEST(SloQueueTest, FifoQueuePopsTheUrgentRunNotTheFirst)
{
    // FIFO (pushBack) queue with two disjoint runs of expert 1: the
    // head run is old deadline-less work, the tail run holds the
    // interactive request that makes expert 1 the EDF pick. The pop
    // must serve the urgent run — not invert behind the stale one.
    RequestQueue q;
    q.pushBack(slotRequest(0, 1, RequestClass::None, kTimeNever), 5);
    q.pushBack(slotRequest(1, 2, RequestClass::None, kTimeNever), 5);
    q.pushBack(
        slotRequest(2, 1, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_EQ(q.nextBatchExpert(), 1);
    std::vector<Request> batch;
    q.popBatchFor(1, 8, batch);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, 2); // the urgent member, not the head
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.headExpert(), 1);
    EXPECT_EQ(q.countForExpert(1), 1);

    // Regression: popping the run that held GroupInfo::last must hand
    // the role to the surviving earlier member — a dangling index
    // aborted the next pop (and corrupted grouped insertion).
    q.pushGrouped(
        slotRequest(3, 1, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_EQ(q.countForExpert(1), 2);
    q.popBatchFor(1, 8, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0);
    EXPECT_EQ(batch[1].id, 3); // grouped right behind the survivor
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.headExpert(), 2);
}

TEST(SloQueueTest, PrefetchWithOneUrgentExpertFollowsQueueOrder)
{
    // Only the winner holds urgent requests: every other expert ties
    // at classless urgency, so the first other expert in queue order
    // is the runner-up.
    {
        // The head run is the urgent expert's: the next run follows.
        RequestQueue q;
        q.pushGrouped(
            slotRequest(0, 1, RequestClass::Interactive, seconds(1)), 5);
        q.pushGrouped(slotRequest(1, 2, RequestClass::None, kTimeNever),
                      5);
        q.pushGrouped(slotRequest(2, 3, RequestClass::None, kTimeNever),
                      5);
        EXPECT_EQ(q.nextBatchExpert(), 1);
        EXPECT_EQ(q.prefetchExpert(), 2);
    }
    {
        // The urgent expert sits behind the head: the head follows it,
        // not nextDistinctExpert().
        RequestQueue q;
        q.pushGrouped(slotRequest(0, 4, RequestClass::None, kTimeNever),
                      5);
        q.pushGrouped(
            slotRequest(1, 5, RequestClass::BestEffort, kTimeNever), 5);
        q.pushGrouped(slotRequest(2, 6, RequestClass::Batch, seconds(3)),
                      5);
        EXPECT_EQ(q.nextBatchExpert(), 6);
        EXPECT_EQ(q.nextDistinctExpert(), 5);
        EXPECT_EQ(q.prefetchExpert(), 4);
    }
}

TEST(SloQueueTest, PopBatchForTakesTheRunFrontPastTheUrgentMember)
{
    // Pinned behaviour: popBatchFor pops the front of the selected run
    // even when the member that made the expert urgent lies beyond
    // maxCount; that member waits for the next batch.
    RequestQueue q;
    for (RequestId id = 0; id < 3; ++id)
        q.pushGrouped(slotRequest(id, 7, RequestClass::None, kTimeNever),
                      5);
    q.pushGrouped(slotRequest(3, 7, RequestClass::Interactive, seconds(1)),
                  5);
    q.pushGrouped(slotRequest(4, 8, RequestClass::Batch, seconds(1)), 5);
    ASSERT_EQ(q.nextBatchExpert(), 7);

    std::vector<Request> batch;
    q.popBatchFor(7, 2, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0);
    EXPECT_EQ(batch[1].id, 1);
    EXPECT_EQ(q.nextBatchExpert(), 7); // the urgent member still waits
    q.popBatchFor(7, 2, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 2);
    EXPECT_EQ(batch[1].id, 3);
    EXPECT_EQ(q.nextBatchExpert(), 8);
}

TEST(SloQueueTest, StealFilterSeesDeadlines)
{
    RequestQueue q;
    q.pushGrouped(slotRequest(0, 1, RequestClass::None, kTimeNever), 5);
    q.pushGrouped(
        slotRequest(1, 2, RequestClass::Interactive, seconds(1)), 5);
    q.pushGrouped(slotRequest(2, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    // A deadline-aware filter (the coordinator's at-risk pass) takes
    // only the request that would violate.
    std::vector<Request> loot;
    const int got = q.stealFromTail(8, loot, [](const Request &r) {
        return r.deadline != kTimeNever && r.deadline < seconds(2);
    });
    EXPECT_EQ(got, 1);
    ASSERT_EQ(loot.size(), 1u);
    EXPECT_EQ(loot[0].id, 1);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.countForExpert(2), 0);
}

// ------------------------------------------- AdmissionController

TEST(AdmissionTest, VerdictsFollowPredictedCompletion)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.downgrade = true;
    const AdmissionController ctl(cfg);

    // Feasible: predicted before deadline.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, seconds(1),
                         milliseconds(500)),
              AdmissionVerdict::Admit);
    // Infeasible: downgrade when allowed.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, seconds(1),
                         seconds(2)),
              AdmissionVerdict::Downgrade);
    // No deadline or classless: always admitted.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, kTimeNever,
                         seconds(100)),
              AdmissionVerdict::Admit);
    EXPECT_EQ(ctl.assess(RequestClass::None, 0, seconds(1), seconds(9)),
              AdmissionVerdict::Admit);
    // Best-effort (the downgrade target) is never shed.
    EXPECT_EQ(ctl.assess(RequestClass::BestEffort, 0, seconds(1),
                         seconds(9)),
              AdmissionVerdict::Admit);

    AdmissionConfig hard = cfg;
    hard.downgrade = false;
    const AdmissionController rejecting(hard);
    EXPECT_EQ(rejecting.assess(RequestClass::Interactive, 0, seconds(1),
                               seconds(2)),
              AdmissionVerdict::Reject);

    // Slack scales the budget: 2x slack admits a 1.5x-budget miss.
    AdmissionConfig slack = cfg;
    slack.slack = 2.0;
    const AdmissionController lenient(slack);
    EXPECT_EQ(lenient.assess(RequestClass::Batch, 0, seconds(1),
                             milliseconds(1500)),
              AdmissionVerdict::Admit);
    EXPECT_EQ(lenient.assess(RequestClass::Batch, 0, seconds(1),
                             milliseconds(2500)),
              AdmissionVerdict::Downgrade);

    const AdmissionController off{AdmissionConfig{}};
    EXPECT_EQ(off.assess(RequestClass::Interactive, 0, seconds(1),
                         seconds(9)),
              AdmissionVerdict::Admit);
}

// --------------------------------------------- trace generators

TEST(SloTraceTest, MultiTenantTraceIsSortedClassedAndDeterministic)
{
    const CoEModel model = buildBoard(tinyBoard());
    TenantSpec interactive;
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 50.0;
    interactive.latencyBudget = milliseconds(200);
    interactive.diurnalAmplitude = 0.8;
    interactive.diurnalPeriod = seconds(10);
    TenantSpec bursty;
    bursty.cls = RequestClass::BestEffort;
    bursty.ratePerSec = 20.0;
    bursty.arrivals = ArrivalProcess::MMPP;
    bursty.mmppBurstFactor = 8.0;

    const Trace a =
        generateSloTrace(model, {interactive, bursty}, seconds(30), 7);
    const Trace b =
        generateSloTrace(model, {interactive, bursty}, seconds(30), 7);
    ASSERT_GT(a.size(), 500u);
    ASSERT_EQ(a.size(), b.size());

    Time prev = 0;
    std::size_t classed = 0, deadlineless = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ImageArrival &x = a.arrivals[i];
        EXPECT_GE(x.time, prev);
        prev = x.time;
        EXPECT_LT(x.time, seconds(30));
        EXPECT_GE(x.component, 0);
        if (x.cls == RequestClass::Interactive) {
            classed += 1;
            EXPECT_EQ(x.deadline, x.time + milliseconds(200));
        } else {
            EXPECT_EQ(x.cls, RequestClass::BestEffort);
            EXPECT_EQ(x.deadline, kTimeNever);
            deadlineless += 1;
        }
        EXPECT_EQ(x.time, b.arrivals[i].time);
        EXPECT_EQ(x.component, b.arrivals[i].component);
    }
    EXPECT_GT(classed, 0u);
    EXPECT_GT(deadlineless, 0u);
}

TEST(SloTraceTest, MmppTaskArrivalsAreMonotoneAndBursty)
{
    const CoEModel model = buildBoard(tinyBoard());
    TaskSpec task;
    task.name = "mmpp";
    task.numImages = 2000;
    task.interarrival = milliseconds(10);
    task.arrivals = ArrivalProcess::MMPP;
    task.mmppBurstFactor = 16.0;
    task.seed = 3;
    const Trace t = generateTrace(model, task);
    ASSERT_EQ(t.size(), 2000u);
    Time prev = 0;
    std::size_t shortGaps = 0;
    for (const ImageArrival &a : t.arrivals) {
        EXPECT_GE(a.time, prev);
        if (a.time - prev < milliseconds(2))
            shortGaps += 1;
        prev = a.time;
    }
    // Burst states compress gaps far below the calm mean.
    EXPECT_GT(shortGaps, 200u);
}

// ------------------------------------------------ report gating

TEST(SloReportTest, StealSectionGatedOnFeatureFlag)
{
    ClusterResult r;
    r.label = "gate";
    r.routing = "least-loaded";
    r.images = 10;
    r.makespan = seconds(1);
    r.stolenRequests = 7; // e.g. autoscale evacuations miscounted
    r.stolenFromReplica = {7};
    r.stolenToReplica = {0};
    r.replicas.resize(1);
    r.workStealingEnabled = false;
    EXPECT_EQ(summarize(r).find("stolen"), std::string::npos);
    r.workStealingEnabled = true;
    EXPECT_NE(summarize(r).find("7 requests stolen"), std::string::npos);
    // No SLO traffic -> no SLO section.
    EXPECT_EQ(summarize(r).find("SLO goodput"), std::string::npos);
}

// ---------------------------------------------- end-to-end engine

class SloServingFixture : public ::testing::Test
{
  protected:
    SloServingFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        cfg_ = coserveConfig(
            ctx_,
            coserveExecutorLayout(ctx_, 1, 0,
                                  (minCount + maxCount) / 2),
            "slo-engine");

        TenantSpec interactive;
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 40.0;
        interactive.latencyBudget = milliseconds(500);
        TenantSpec batch;
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 30.0;
        batch.latencyBudget = seconds(3);
        TenantSpec bestEffort;
        bestEffort.cls = RequestClass::BestEffort;
        bestEffort.ratePerSec = 10.0;
        bestEffort.arrivals = ArrivalProcess::MMPP;
        bestEffort.mmppBurstFactor = 6.0;
        trace_ = generateSloTrace(model_,
                                  {interactive, batch, bestEffort},
                                  seconds(15), 0x510);
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(SloServingFixture, EngineTracksPerClassStats)
{
    auto engine = makeCoServeEngine(ctx_, cfg_);
    const RunResult r = engine->run(trace_);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_TRUE(r.slo.any());
    EXPECT_EQ(r.slo.completed(),
              static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.slo.sloMet() + r.slo.violated(), r.slo.completed());
    // Per-class sketches saw every completion.
    std::uint64_t sketched = 0;
    for (const SloClassStats &c : r.slo.perClass)
        sketched += c.latencyMs.count();
    EXPECT_EQ(sketched, static_cast<std::uint64_t>(r.slo.completed()));
    EXPECT_GT(r.slo.goodput(r.makespan), 0.0);
    // The report prints the SLO section for classed runs.
    EXPECT_NE(summarize(r).find("SLO goodput"), std::string::npos);
}

TEST_F(SloServingFixture, AdmissionRejectsInfeasibleDeadlines)
{
    EngineConfig cfg = cfg_;
    cfg.admission.enabled = true;
    cfg.admission.downgrade = false;

    // Impossible budgets: every classed-with-deadline arrival must be
    // rejected, and the run must still reconcile.
    Trace impossible = trace_;
    std::int64_t deadlined = 0;
    for (ImageArrival &a : impossible.arrivals) {
        if (a.deadline != kTimeNever) {
            a.deadline = a.time + 1; // 1 ns budget
            deadlined += 1;
        }
    }
    auto engine = makeCoServeEngine(ctx_, cfg);
    const RunResult r = engine->run(impossible);
    EXPECT_EQ(r.slo.rejected(), deadlined);
    EXPECT_EQ(r.images,
              static_cast<std::int64_t>(impossible.size()) - deadlined);
    EXPECT_EQ(r.slo.downgraded(), 0);
}

TEST_F(SloServingFixture, DowngradeKeepsDeadlineAccounting)
{
    EngineConfig cfg = cfg_;
    cfg.admission.enabled = true; // downgrade on (default)

    Trace impossible = trace_;
    std::int64_t deadlined = 0;
    for (ImageArrival &a : impossible.arrivals) {
        if (a.deadline != kTimeNever) {
            a.deadline = a.time + 1;
            deadlined += 1;
        }
    }
    auto engine = makeCoServeEngine(ctx_, cfg);
    const RunResult r = engine->run(impossible);
    // Everything runs (downgraded, not dropped)...
    EXPECT_EQ(r.images, static_cast<std::int64_t>(impossible.size()));
    EXPECT_EQ(r.slo.downgraded(), deadlined);
    // ...but late completions count as violations under best-effort,
    // never as met: goodput cannot be inflated by shedding.
    EXPECT_EQ(r.slo.of(RequestClass::BestEffort).violated, deadlined);
}

TEST_F(SloServingFixture, ClasslessTraceKeepsSloEmpty)
{
    Trace plain = trace_;
    for (ImageArrival &a : plain.arrivals) {
        a.cls = RequestClass::None;
        a.deadline = kTimeNever;
    }
    auto engine = makeCoServeEngine(ctx_, cfg_);
    const RunResult r = engine->run(plain);
    EXPECT_FALSE(r.slo.any());
    EXPECT_EQ(summarize(r).find("SLO goodput"), std::string::npos);
}

// ------------------------------------------------ cluster online

class SloClusterFixture : public SloServingFixture
{
  protected:
    ClusterConfig
    onlineConfig(bool autoscale) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, 4, RoutingPolicy::LeastLoaded, "slo-cluster");
        cc.workStealing.enabled = true;
        cc.admission.enabled = true;
        if (autoscale) {
            cc.autoscale.enabled = true;
            cc.autoscale.interval = milliseconds(500);
            cc.autoscale.cooldown = seconds(1);
            cc.autoscale.minReplicas = 1;
        }
        return cc;
    }
};

TEST_F(SloClusterFixture, OnlineSloServingReconcilesAndIsDeterministic)
{
    for (bool autoscale : {false, true}) {
        ClusterEngine a(onlineConfig(autoscale));
        ClusterEngine b(onlineConfig(autoscale));
        const ClusterResult ra =
            a.run(trace_, runWithMode(RunMode::Online));
        const ClusterResult rb =
            b.run(trace_, runWithMode(RunMode::Online));

        // The decision stream (routes + admission verdicts + scale
        // actions) must match before any aggregate does.
        EXPECT_EQ(ra.decisionDigest, rb.decisionDigest);

        // Conservation: completed + rejected == arrivals.
        EXPECT_EQ(ra.images + ra.slo.rejected(),
                  static_cast<std::int64_t>(trace_.size()));
        EXPECT_EQ(ra.slo.completed() +
                      static_cast<std::int64_t>(
                          ra.slo.rejected()),
                  static_cast<std::int64_t>(trace_.size()));

        // Bit-identical across repeat runs, autoscale included.
        EXPECT_EQ(ra.images, rb.images);
        EXPECT_EQ(ra.makespan, rb.makespan);
        EXPECT_EQ(ra.eventsExecuted, rb.eventsExecuted);
        EXPECT_EQ(ra.slo.rejected(), rb.slo.rejected());
        EXPECT_EQ(ra.slo.downgraded(), rb.slo.downgraded());
        EXPECT_EQ(ra.slo.violated(), rb.slo.violated());
        EXPECT_EQ(ra.autoscaleActivations, rb.autoscaleActivations);
        EXPECT_EQ(ra.autoscaleQuiesces, rb.autoscaleQuiesces);
        EXPECT_EQ(ra.autoscaleEvacuated, rb.autoscaleEvacuated);
        EXPECT_DOUBLE_EQ(ra.avgActiveReplicas, rb.avgActiveReplicas);
        EXPECT_DOUBLE_EQ(ra.slo.goodput(ra.makespan),
                         rb.slo.goodput(rb.makespan));

        if (autoscale) {
            EXPECT_TRUE(ra.autoscaleEnabled);
            EXPECT_GT(ra.avgActiveReplicas, 0.0);
            EXPECT_LE(ra.avgActiveReplicas, 4.0);
        } else {
            EXPECT_FALSE(ra.autoscaleEnabled);
        }
    }
}

TEST_F(SloClusterFixture, AutoscaleStartupCoversHeterogeneousCluster)
{
    // Replica 0 was never profiled for ResNet101 (every classifier's
    // arch): an autoscaler starting with only replica 0 active must
    // grow the initial active set until every component chain is
    // servable, or the router aborts on the first arrival.
    const LatencyModel full = LatencyModel::calibrated(device_);
    LatencyModel partial;
    for (ArchId arch : {ArchId::YoloV5m, ArchId::YoloV5l}) {
        for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    CoServeContext partialCtx(device_, model_, std::move(partial), {});

    ClusterConfig cc = heterogeneousCluster(
        {{&partialCtx, cfg_}, {&ctx_, cfg_}},
        RoutingPolicy::LeastLoaded, "hetero-scale");
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(500);
    cc.autoscale.minReplicas = 1;
    cc.autoscale.startReplicas = 1; // replica 0 alone cannot serve

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
}

TEST_F(SloClusterFixture, QuiesceEvacuatesQueuedWork)
{
    // Force a quiesce while queues are non-empty: thresholds that
    // always consider the cluster scale-down-able, stealing off so
    // the evacuated counter is unambiguous.
    ClusterConfig cc = homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded, "evac");
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(250);
    cc.autoscale.cooldown = milliseconds(250);
    cc.autoscale.minReplicas = 1;
    cc.autoscale.startReplicas = 4; // start full, drain down to 1
    cc.autoscale.violationLow = 2.0; // any violation rate passes
    cc.autoscale.backlogLow = 1000;  // any backlog passes
    cc.autoscale.backlogHigh = 100000;
    cc.autoscale.violationHigh = 2.0; // never scale up

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.autoscaleQuiesces, 3); // down to minReplicas
    EXPECT_GT(r.autoscaleEvacuated, 0);
    // Evacuations must not leak into the (stealing-off) steal section.
    EXPECT_FALSE(r.workStealingEnabled);
    EXPECT_EQ(r.stolenRequests, 0);
    EXPECT_EQ(summarize(r).find("stolen"), std::string::npos);
    EXPECT_NE(summarize(r).find("autoscale:"), std::string::npos);
}

} // namespace
} // namespace coserve
