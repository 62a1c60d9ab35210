/**
 * @file
 * Discrete-event scheduling core.
 *
 * The serving engine is written as an event-driven actor system on top
 * of this queue: transfer and batch completions are heap events. Events
 * at equal timestamps execute in schedule order (a monotonically
 * increasing sequence number breaks ties), which makes whole-system
 * runs deterministic.
 *
 * An event whose work the caller runs itself need not sit in the heap:
 * reserveSeq() gives it its sequence number (or a known, time-ordered
 * stream, such as an offline trace's arrivals, its numbers up front),
 * and enterAt() executes it inline at its exact (time, seq) position.
 * The engine admits every arrival, offline or online, this way. Such
 * events count as executed events exactly as if they had been
 * scheduled.
 *
 * Implementation: a binary min-heap over a contiguous std::vector,
 * ordered by (time, seq). Callbacks live in a slot pool indexed by the
 * heap items; cancellation bumps the slot's generation counter and
 * destroys the callback, leaving a tombstone item in the heap that
 * runOne() discards when it surfaces. The steady-state hot path
 * (schedule + runOne) therefore performs no per-event allocation —
 * unlike the previous std::map-of-std::function design, which paid a
 * tree-node allocation per event and a heap allocation per callback
 * whose captures exceeded std::function's small buffer.
 */

#ifndef COSERVE_SIM_EVENT_QUEUE_H
#define COSERVE_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/move_function.h"
#include "util/time.h"

namespace coserve {

/** Handle returned by EventQueue::schedule; usable to cancel. */
struct EventId
{
    Time when = 0;
    std::uint64_t seq = 0;
    /** Slot-pool position + generation (cancellation bookkeeping). */
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;

    bool
    operator==(const EventId &o) const
    {
        return when == o.when && seq == o.seq;
    }
};

/**
 * Deterministic discrete-event queue with a virtual clock.
 *
 * Not thread-safe by design: the whole simulation is single-threaded so
 * that runs are reproducible (see DESIGN.md, substitution table).
 */
class EventQueue
{
  public:
    using Callback = MoveFunction;

    /** @return the current virtual time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when must be >= now(); scheduling into the past aborts.
     * @param fn callback executed when the clock reaches @p when.
     * @return handle for cancellation.
     */
    EventId schedule(Time when, Callback fn);

    /** Schedule @p fn @p delay after now(). */
    EventId scheduleAfter(Time delay, Callback fn);

    /**
     * Cancel a pending event.
     * @return true if the event was pending and is now removed; false
     *         for already-executed or already-cancelled events.
     */
    bool cancel(const EventId &id);

    /**
     * Execute the next event (advancing the clock).
     * @return false when no live events remain.
     */
    bool runOne();

    /**
     * Reserve @p n consecutive sequence numbers for events the caller
     * will enter with enterAt() instead of schedule(). Events scheduled
     * later order after all of them at equal timestamps.
     *
     * @return the first reserved sequence number.
     */
    std::uint64_t reserveSeq(std::uint64_t n);

    /**
     * Execute a reserved-sequence event inline: run every pending
     * event ordered before (@p when, @p seq), then advance the clock
     * to @p when and count one executed event. The caller performs
     * the event's work on return, exactly where a callback scheduled
     * with that sequence number would have run.
     *
     * @param when must be >= now(); entering the past aborts.
     * @param seq one of the numbers a reserveSeq() call reserved.
     */
    void enterAt(Time when, std::uint64_t seq);

    /** Run until no events remain or @p maxEvents executed. */
    void run(std::uint64_t maxEvents = UINT64_MAX);

    /** Run events with timestamp <= @p until (clock ends at @p until). */
    void runUntil(Time until);

    /**
     * Timestamp of the earliest pending live event, kTimeNever when
     * none remain. Discards surfaced tombstones, hence non-const; used
     * by cluster-level coordinators to step replicas in lockstep.
     */
    Time nextTime();

    /** @return number of pending *live* (non-cancelled) events. */
    std::size_t pending() const { return live_; }

    /**
     * Drop every pending event (their callbacks are destroyed without
     * running). The clock and the executed-event counter are kept —
     * this models a crash, not a reset: time keeps its meaning, the
     * queue simply has no future. Fault injection only.
     */
    void clear();

    /** @return total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Heap entry; the callback lives in slots_[slot]. */
    struct Item
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * Callback storage. gen counts retirements (execution or
     * cancellation); a heap item whose gen no longer matches its
     * slot's is a tombstone. seq disambiguates handles so a stale
     * EventId can never cancel a later occupant of the same slot.
     */
    struct Slot
    {
        Callback fn;
        std::uint32_t gen = 0;
        std::uint64_t seq = 0;
    };

    static bool
    earlier(const Item &a, const Item &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Remove the heap top (no slot bookkeeping). */
    void popTop();
    /** Discard tombstones until the top item is live (or heap empty). */
    void dropCancelledTop();

    std::vector<Item> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t live_ = 0;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace coserve

#endif // COSERVE_SIM_EVENT_QUEUE_H
