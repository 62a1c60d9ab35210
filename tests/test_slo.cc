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
#include "util/rng.h"
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

/**
 * The EDF-within-priority order read off a queue snapshot by a plain
 * scan: runs are the maximal same-expert stretches; an expert's key is
 * its most urgent (priority desc, deadline asc) SLO-urgent entry, held
 * by the run of the first such entry in queue order.
 */
struct ScannedOrder
{
    struct Run
    {
        ExpertId expert;
        std::vector<RequestId> ids;
    };
    std::vector<Run> runs;
    /** Urgent experts, most urgent first. */
    std::vector<ExpertId> urgent;
    /** Per expert: the holder's run index (-1: no urgent entry). */
    std::vector<int> holder;

    explicit ScannedOrder(const std::vector<Request> &queued)
        : holder(kScanExperts, -1)
    {
        std::vector<int> prio(kScanExperts, 0);
        std::vector<Time> deadline(kScanExperts, kTimeNever);
        for (const Request &r : queued) {
            if (runs.empty() || runs.back().expert != r.expert)
                runs.push_back({r.expert, {}});
            runs.back().ids.push_back(r.id);
            if (r.deadline == kTimeNever && priorityOf(r.cls) == 0)
                continue;
            const auto e = static_cast<std::size_t>(r.expert);
            const int p = priorityOf(r.cls);
            if (holder[e] < 0 || p > prio[e] ||
                (p == prio[e] && r.deadline < deadline[e])) {
                if (holder[e] < 0)
                    urgent.push_back(r.expert);
                holder[e] = static_cast<int>(runs.size()) - 1;
                prio[e] = p;
                deadline[e] = r.deadline;
            }
        }
        std::sort(urgent.begin(), urgent.end(), [&](ExpertId a, ExpertId b) {
            const auto i = static_cast<std::size_t>(a);
            const auto j = static_cast<std::size_t>(b);
            if (prio[i] != prio[j])
                return prio[i] > prio[j];
            if (deadline[i] != deadline[j])
                return deadline[i] < deadline[j];
            return holder[i] < holder[j];
        });
    }

    ExpertId
    next() const
    {
        if (!urgent.empty())
            return urgent[0];
        return runs.empty() ? kNoExpert : runs[0].expert;
    }

    /** Expert of the batch after next(). */
    ExpertId
    prefetch() const
    {
        if (urgent.size() >= 2)
            return urgent[1];
        // Every other expert ties at classless urgency: the first one
        // in queue order.
        for (const Run &run : runs) {
            if (run.expert != next())
                return run.expert;
        }
        return kNoExpert;
    }

    /** Index of the run popBatchFor(@p e, ...) pops from. */
    std::size_t
    popRun(ExpertId e) const
    {
        const int h = holder[static_cast<std::size_t>(e)];
        if (h >= 0)
            return static_cast<std::size_t>(h);
        std::size_t i = 0;
        while (runs[i].expert != e)
            ++i;
        return i;
    }

    static constexpr std::size_t kScanExperts = 380;
};

/**
 * Random pushGrouped / pushBack / popBatchFor / filtered stealFromTail
 * / drainAll sequences over every class (with priority and deadline
 * ties), checked after every operation against ScannedOrder. @p pool
 * is the expert ids the regime draws from; the queue is kept near
 * @p depth requests. Counts the pops that emptied a middle run, so its
 * neighbours merged, into @p merges, and those of them that moved the
 * expert's holder (the later neighbour held it) into @p holderMoves.
 */
void
checkUrgencyOrder(std::uint64_t seed, const std::vector<ExpertId> &pool,
                  std::size_t depth, int ops, int &merges, int &holderMoves)
{
    Rng rng(seed);
    RequestQueue q;
    RequestId id = 0;
    std::vector<Request> out;
    const auto draw = [&] {
        Request r = slotRequest(id++, pool[rng.uniformInt(pool.size())],
                                RequestClass::None, kTimeNever);
        switch (rng.uniformInt(4)) {
        case 0:
            r.cls = RequestClass::Interactive;
            break;
        case 1:
            r.cls = RequestClass::Batch;
            break;
        case 2:
            r.cls = RequestClass::BestEffort;
            break;
        default:
            break;
        }
        // Few distinct deadlines, so keys tie often; downgraded
        // arrivals keep theirs as BestEffort.
        if (r.cls != RequestClass::None ? rng.bernoulli(0.8)
                                        : rng.bernoulli(0.1))
            r.deadline = seconds(1 + static_cast<int>(rng.uniformInt(4)));
        return r;
    };
    for (int op = 0; op < ops; ++op) {
        const ScannedOrder before(q.snapshot());
        const std::uint64_t pick = rng.uniformInt(100);
        if (pick == 0) {
            q.drainAll(out);
        } else if (q.size() < depth && pick < 45) {
            const Request r = draw();
            if (rng.bernoulli(0.6))
                q.pushGrouped(r, 3);
            else
                q.pushBack(r, 3);
        } else if (!q.empty() && pick < 90) {
            // The EDF pick mostly; any queued expert sometimes.
            const ExpertId e =
                rng.bernoulli(0.7)
                    ? q.nextBatchExpert()
                    : before.runs[rng.uniformInt(before.runs.size())].expert;
            const int maxCount = 1 + static_cast<int>(rng.uniformInt(4));
            const std::size_t r = before.popRun(e);
            const std::vector<RequestId> &run = before.runs[r].ids;
            const std::size_t n =
                std::min(run.size(), static_cast<std::size_t>(maxCount));
            q.popBatchFor(e, maxCount, out);
            ASSERT_EQ(out.size(), n) << "op " << op;
            for (std::size_t k = 0; k < n; ++k)
                ASSERT_EQ(out[k].id, run[k]) << "op " << op;
            if (n == run.size() && r > 0 && r + 1 < before.runs.size() &&
                before.runs[r - 1].expert == before.runs[r + 1].expert) {
                ++merges;
                const auto joined =
                    static_cast<std::size_t>(before.runs[r + 1].expert);
                if (before.holder[joined] == static_cast<int>(r) + 1)
                    ++holderMoves;
            }
        } else if (!q.empty()) {
            const std::uint64_t parity = rng.uniformInt(3);
            q.stealFromTail(
                1 + static_cast<int>(rng.uniformInt(6)), out,
                [parity](const Request &r) {
                    return static_cast<std::uint64_t>(r.id) % 3 != parity;
                });
        }
        const ScannedOrder after(q.snapshot());
        ASSERT_EQ(q.sloOrdered(), !after.urgent.empty()) << "op " << op;
        ASSERT_EQ(q.nextBatchExpert(), after.next()) << "op " << op;
        ASSERT_EQ(q.prefetchExpert(), after.prefetch()) << "op " << op;
    }
}

TEST(SloQueueTest, UrgencyOrderMatchesBruteForce)
{
    Rng rng(7);
    int merges = 0;
    int holderMoves = 0;
    // Shallow: the online regime, 2-8 queued experts scattered over
    // board A's 380-id space.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::vector<ExpertId> pool(2 + rng.uniformInt(7));
        for (ExpertId &e : pool)
            e = static_cast<ExpertId>(
                rng.uniformInt(ScannedOrder::kScanExperts));
        checkUrgencyOrder(seed, pool, 16, 600, merges, holderMoves);
    }
    // Deep: every id of the space, hundreds of requests queued.
    std::vector<ExpertId> all(ScannedOrder::kScanExperts);
    for (std::size_t e = 0; e < all.size(); ++e)
        all[e] = static_cast<ExpertId>(e);
    for (std::uint64_t seed = 100; seed < 103; ++seed)
        checkUrgencyOrder(seed, all, 600, 3000, merges, holderMoves);
    EXPECT_GT(merges, 0);
    EXPECT_GT(holderMoves, 0);
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
    // One classless MMPP tenant: a calm gap of 10 ms on average, a
    // sixteenth of that while bursting.
    const CoEModel model = buildBoard(tinyBoard());
    TenantSpec mmpp;
    mmpp.name = "mmpp";
    mmpp.cls = RequestClass::None;
    mmpp.ratePerSec = 100.0;
    mmpp.arrivals = ArrivalProcess::MMPP;
    mmpp.mmppBurstFactor = 16.0;
    const Trace t = generateSloTrace(model, {mmpp}, seconds(20), 3);
    ASSERT_GT(t.size(), 2000u);
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

class SloAdmissionFixture : public SloServingFixture
{
  protected:
    /** trace_ with every deadline cut to 1 ns: no arrival can make it. */
    SloAdmissionFixture() : impossible_(trace_)
    {
        for (ImageArrival &a : impossible_.arrivals) {
            if (a.deadline != kTimeNever) {
                a.deadline = a.time + 1;
                deadlined_ += 1;
            }
        }
    }

    /** One-replica online cluster run with admission on. */
    ClusterResult
    runAdmitted(bool downgrade) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, 1, RoutingPolicy::LeastLoaded, "slo-admission");
        cc.admission.enabled = true;
        cc.admission.downgrade = downgrade;
        ClusterEngine cluster(std::move(cc));
        return cluster.run(impossible_, runWithMode(RunMode::Online));
    }

    Trace impossible_;
    std::int64_t deadlined_ = 0;
};

TEST_F(SloAdmissionFixture, AdmissionRejectsInfeasibleDeadlines)
{
    // Every classed-with-deadline arrival must be rejected, and the
    // run must still reconcile.
    const ClusterResult r = runAdmitted(/*downgrade=*/false);
    ASSERT_GT(deadlined_, 0);
    EXPECT_EQ(r.slo.rejected(), deadlined_);
    EXPECT_EQ(r.images + r.slo.rejected(),
              static_cast<std::int64_t>(impossible_.size()));
    EXPECT_EQ(r.slo.downgraded(), 0);
}

TEST_F(SloAdmissionFixture, DowngradeKeepsDeadlineAccounting)
{
    const ClusterResult r = runAdmitted(/*downgrade=*/true);
    // Everything runs (downgraded, not dropped)...
    EXPECT_EQ(r.images, static_cast<std::int64_t>(impossible_.size()));
    EXPECT_EQ(r.slo.rejected(), 0);
    EXPECT_EQ(r.slo.downgraded(), deadlined_);
    // ...but late completions count as violations under best-effort,
    // never as met: goodput cannot be inflated by shedding.
    EXPECT_EQ(r.slo.of(RequestClass::BestEffort).violated, deadlined_);
    EXPECT_EQ(r.slo.of(RequestClass::Interactive).completed, 0);
    EXPECT_EQ(r.slo.of(RequestClass::Batch).completed, 0);
}

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
