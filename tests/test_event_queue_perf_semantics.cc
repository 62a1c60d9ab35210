/**
 * @file
 * Semantics tests for the heap-based EventQueue rewrite: the exact
 * (time, seq) ordering contract, generation-counter tombstone
 * cancellation, live-only pending() accounting, reserved-seq entry
 * (reserveSeq/enterAt) ties, and a randomized schedule/cancel/enter
 * stress run checked against a reference std::map-based model (the
 * previous implementation's data structure).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/move_function.h"

namespace coserve {
namespace {

TEST(EventQueueSemanticsTest, EqualTimestampsFireInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two timestamps; within each, FIFO by schedule order.
    eq.schedule(20, [&] { order.push_back(4); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(5); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(3); });
    eq.schedule(20, [&] { order.push_back(6); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueSemanticsTest, CancelThenFireSkipsTombstone)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    const EventId id = eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueSemanticsTest, CancelOfExecutedReturnsFalse)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueueSemanticsTest, DoubleCancelReturnsFalse)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueSemanticsTest, StaleHandleCannotCancelSlotReuser)
{
    EventQueue eq;
    bool ran = false;
    const EventId a = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(a));
    // B reuses A's slot (single free slot); A's stale handle must not
    // cancel it, in either generation or sequence terms.
    eq.schedule(20, [&] { ran = true; });
    EXPECT_FALSE(eq.cancel(a));
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueSemanticsTest, PendingCountsLiveEventsOnly)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    const EventId c = eq.schedule(30, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    eq.cancel(a);
    eq.cancel(c);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueSemanticsTest, RunUntilIgnoresCancelledEvents)
{
    EventQueue eq;
    int count = 0;
    const EventId a = eq.schedule(10, [&] { ++count; });
    eq.schedule(40, [&] { ++count; });
    eq.schedule(100, [&] { ++count; });
    eq.cancel(a);
    eq.runUntil(50);
    // The cancelled t=10 event neither executes nor advances the
    // clock; the t=40 event runs; the t=100 event stays pending.
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 50);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueSemanticsTest, CancelFromInsideAnEvent)
{
    EventQueue eq;
    bool victimRan = false;
    const EventId victim = eq.schedule(20, [&] { victimRan = true; });
    eq.schedule(10, [&] { EXPECT_TRUE(eq.cancel(victim)); });
    eq.run();
    EXPECT_FALSE(victimRan);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueSemanticsDeathTest, SchedulingIntoThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100);
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling into the past");
}

TEST(EventQueueSemanticsTest, MoveOnlyCallbacksAreAccepted)
{
    // The previous std::function-based queue required copyable
    // callbacks; the MoveFunction queue must take captures that own
    // move-only state.
    EventQueue eq;
    auto payload = std::make_unique<int>(7);
    int seen = 0;
    eq.schedule(5, [&seen, payload = std::move(payload)] {
        seen = *payload;
    });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(EventQueueSemanticsTest, ReservedEntryRunsAfterEarlierScheduledTie)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    const std::uint64_t seq = eq.reserveSeq(1);
    eq.schedule(10, [&] { order.push_back(3); });
    eq.enterAt(10, seq);
    order.push_back(2);
    // The tie scheduled before the reservation ran first and counts;
    // the one scheduled after it is still pending.
    EXPECT_EQ(eq.now(), 10);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueSemanticsTest, SameInstantChildOfEarlierEventRunsAfterEntry)
{
    EventQueue eq;
    std::vector<int> order;
    // The parent orders before the entry; the child it schedules at
    // the same instant takes a seq past the reservation, so it must
    // wait for the entry.
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.schedule(10, [&] { order.push_back(5); });
    });
    const std::uint64_t seq = eq.reserveSeq(2);
    eq.schedule(10, [&] { order.push_back(4); });
    eq.enterAt(10, seq);
    order.push_back(2);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.pending(), 2u);
    eq.enterAt(10, seq + 1);
    order.push_back(-1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, -1, 4, 5}));
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueueSemanticsTest, EntrySkipsCancelledTombstoneAtTop)
{
    EventQueue eq;
    std::vector<int> order;
    const EventId dead = eq.schedule(5, [&] { order.push_back(99); });
    eq.schedule(10, [&] { order.push_back(1); });
    const std::uint64_t seq = eq.reserveSeq(1);
    const EventId deadTie = eq.schedule(10, [&] { order.push_back(98); });
    eq.schedule(10, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.cancel(dead));
    EXPECT_TRUE(eq.cancel(deadTie));
    eq.enterAt(10, seq);
    order.push_back(2);
    EXPECT_EQ(eq.now(), 10);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueSemanticsTest, EntryAdvancesClockPastEarlierEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(5, [&] { order.push_back(1); });
    const std::uint64_t seq = eq.reserveSeq(1);
    eq.enterAt(20, seq);
    order.push_back(2);
    // Only the t=5 event precedes the t=20 entry.
    EXPECT_EQ(eq.now(), 20);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueueSemanticsDeathTest, EnteringThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeq(1);
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100);
    EXPECT_DEATH(eq.enterAt(50, seq), "entering into the past");
}

/**
 * Reference model: the exact data structure of the pre-rewrite
 * implementation — a std::map keyed by (when, seq) where cancel()
 * erases eagerly — plus reserved-seq entries. The heap queue must
 * agree with it on every execution, cancellation result, live count,
 * clock reading and executed count.
 *
 * Payloads divisible by kSpawnEvery model callbacks that schedule a
 * child (payload + kChildOffset) at their own instant when they run.
 */
class MapModel
{
  public:
    static constexpr int kSpawnEvery = 4;
    static constexpr int kChildOffset = 1000000;

    static bool
    spawns(int payload)
    {
        return payload < kChildOffset && payload % kSpawnEvery == 0;
    }

    std::uint64_t
    schedule(Time when, int payload)
    {
        const std::uint64_t seq = nextSeq_++;
        events_.emplace(std::make_pair(when, seq), payload);
        return seq;
    }

    bool
    cancel(Time when, std::uint64_t seq)
    {
        return events_.erase(std::make_pair(when, seq)) > 0;
    }

    std::uint64_t
    reserve(std::uint64_t n)
    {
        const std::uint64_t first = nextSeq_;
        nextSeq_ += n;
        return first;
    }

    /** @return payload of the executed event, or -1 when empty. */
    int
    runOne()
    {
        if (events_.empty())
            return -1;
        auto it = events_.begin();
        const Time when = it->first.first;
        const int payload = it->second;
        events_.erase(it);
        now_ = when;
        ++executed_;
        if (spawns(payload))
            schedule(now_, payload + kChildOffset);
        return payload;
    }

    /** Run everything ordered before (when, seq) into @p fired. */
    void
    enter(Time when, std::uint64_t seq, std::vector<int> &fired)
    {
        while (!events_.empty() &&
               events_.begin()->first < std::make_pair(when, seq))
            fired.push_back(runOne());
        now_ = when;
        ++executed_;
    }

    std::size_t pending() const { return events_.size(); }
    Time now() const { return now_; }
    std::uint64_t executed() const { return executed_; }

  private:
    std::map<std::pair<Time, std::uint64_t>, int> events_;
    std::uint64_t nextSeq_ = 0;
    Time now_ = 0;
    std::uint64_t executed_ = 0;
};

TEST(EventQueueSemanticsTest, InterleavedStressMatchesMapModel)
{
    EventQueue eq;
    MapModel model;

    // Live handles for cancellation, kept in lockstep between the two
    // implementations. Payload = the schedule ordinal.
    struct Handle
    {
        EventId real;
        Time when;
        std::uint64_t modelSeq;
    };
    std::vector<Handle> handles;
    std::vector<int> firedReal;
    std::vector<int> firedModel;

    // Reserved entries not yet entered, in (time, seq) order; each
    // entry's time is fixed when its block is reserved.
    struct Entry
    {
        Time when;
        std::uint64_t realSeq;
        std::uint64_t modelSeq;
    };
    std::vector<Entry> entries;
    std::size_t nextEntry = 0;
    int entryMarker = -1;

    std::uint64_t lcg = 12345;
    const auto rnd = [&](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };

    int nextPayload = 0;
    int enteredCount = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rnd(12);
        if (op < 5) { // schedule at a (possibly colliding) time
            const Time when = eq.now() + static_cast<Time>(rnd(50));
            const int payload = nextPayload++;
            const EventId id = eq.schedule(
                when, [payload, &firedReal, &eq] {
                    firedReal.push_back(payload);
                    if (MapModel::spawns(payload)) {
                        const int child = payload + MapModel::kChildOffset;
                        eq.schedule(eq.now(), [child, &firedReal] {
                            firedReal.push_back(child);
                        });
                    }
                });
            const std::uint64_t mseq = model.schedule(when, payload);
            handles.push_back({id, when, mseq});
        } else if (op < 7) { // cancel a random remembered handle
            if (!handles.empty()) {
                const std::size_t pick = rnd(handles.size());
                const Handle h = handles[pick];
                const bool realOk = eq.cancel(h.real);
                const bool modelOk = model.cancel(h.when, h.modelSeq);
                EXPECT_EQ(realOk, modelOk);
                handles.erase(handles.begin() +
                              static_cast<std::ptrdiff_t>(pick));
            }
        } else if (op < 8 && nextEntry == entries.size()) {
            // Reserve a block of entries at non-decreasing times, some
            // tying with each other and with scheduled events.
            const std::uint64_t n = 1 + rnd(4);
            const std::uint64_t realSeq = eq.reserveSeq(n);
            const std::uint64_t modelSeq = model.reserve(n);
            Time when = eq.now();
            for (std::uint64_t k = 0; k < n; ++k) {
                when += static_cast<Time>(rnd(3) * rnd(20));
                entries.push_back({when, realSeq + k, modelSeq + k});
            }
        } else if (nextEntry < entries.size()) {
            // While a block is pending, time only advances through its
            // entries: a plain runOne() could overtake the next entry.
            const Entry e = entries[nextEntry++];
            eq.enterAt(e.when, e.realSeq);
            firedReal.push_back(entryMarker);
            model.enter(e.when, e.modelSeq, firedModel);
            firedModel.push_back(entryMarker);
            --entryMarker;
            ++enteredCount;
        } else { // execute one event
            const std::size_t before = firedReal.size();
            const bool ran = eq.runOne();
            const int modelPayload = model.runOne();
            EXPECT_EQ(ran, modelPayload != -1);
            if (ran) {
                ASSERT_EQ(firedReal.size(), before + 1);
                firedModel.push_back(modelPayload);
            }
        }
        ASSERT_EQ(eq.pending(), model.pending());
        ASSERT_EQ(eq.now(), model.now());
        ASSERT_EQ(eq.executed(), model.executed());
    }
    EXPECT_GT(enteredCount, 500);

    // Drain both and compare complete execution orders.
    while (eq.runOne())
        firedModel.push_back(model.runOne());
    EXPECT_EQ(model.pending(), 0u);
    EXPECT_EQ(eq.executed(), model.executed());
    EXPECT_EQ(firedReal, firedModel);
}

} // namespace
} // namespace coserve
