#include "sim/event_queue.h"

#include <utility>

namespace coserve {

EventId
EventQueue::schedule(Time when, Callback fn)
{
    COSERVE_CHECK(when >= now_, "scheduling into the past: ", when,
                  " < ", now_);
    COSERVE_CHECK(static_cast<bool>(fn), "scheduling empty callback");

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    const std::uint64_t seq = nextSeq_++;
    s.fn = std::move(fn);
    s.seq = seq;

    heap_.push_back(Item{when, seq, slot, s.gen});
    siftUp(heap_.size() - 1);
    ++live_;
    return EventId{when, seq, slot, s.gen};
}

EventId
EventQueue::scheduleAfter(Time delay, Callback fn)
{
    COSERVE_CHECK(delay >= 0, "negative delay");
    return schedule(now_ + delay, std::move(fn));
}

bool
EventQueue::cancel(const EventId &id)
{
    if (id.slot >= slots_.size())
        return false;
    Slot &s = slots_[id.slot];
    if (s.gen != id.gen || s.seq != id.seq || !s.fn)
        return false;
    // Destroy the callback now and retire the slot; the heap item
    // becomes a tombstone that dropCancelledTop() discards later.
    s.fn = nullptr;
    ++s.gen;
    freeSlots_.push_back(id.slot);
    --live_;
    return true;
}

void
EventQueue::dropCancelledTop()
{
    while (!heap_.empty() &&
           slots_[heap_.front().slot].gen != heap_.front().gen)
        popTop();
}

Time
EventQueue::nextTime()
{
    dropCancelledTop();
    return heap_.empty() ? kTimeNever : heap_.front().when;
}

bool
EventQueue::runOne()
{
    dropCancelledTop();
    if (heap_.empty())
        return false;

    const Item top = heap_.front();
    popTop();

    // Retire the slot *before* invoking: the callback may schedule new
    // events, which are free to reuse it.
    Slot &s = slots_[top.slot];
    Callback fn = std::move(s.fn);
    ++s.gen;
    freeSlots_.push_back(top.slot);
    --live_;

    now_ = top.when;
    ++executed_;
    fn();
    return true;
}

std::uint64_t
EventQueue::reserveSeq(std::uint64_t n)
{
    const std::uint64_t first = nextSeq_;
    nextSeq_ += n;
    return first;
}

void
EventQueue::enterAt(Time when, std::uint64_t seq)
{
    COSERVE_CHECK(when >= now_, "entering into the past: ", when, " < ",
                  now_);
    COSERVE_CHECK(seq < nextSeq_, "entering an unreserved seq ", seq);
    const Item entry{when, seq, 0, 0};
    for (;;) {
        dropCancelledTop();
        if (heap_.empty() || !earlier(heap_.front(), entry))
            break;
        runOne();
    }
    now_ = when;
    ++executed_;
}

void
EventQueue::run(std::uint64_t maxEvents)
{
    for (std::uint64_t i = 0; i < maxEvents && runOne(); ++i) {
    }
}

void
EventQueue::runUntil(Time until)
{
    for (;;) {
        dropCancelledTop();
        if (heap_.empty() || heap_.front().when > until)
            break;
        runOne();
    }
    if (now_ < until)
        now_ = until;
}

void
EventQueue::clear()
{
    heap_.clear();
    slots_.clear();
    freeSlots_.clear();
    live_ = 0;
    // now_, executed_ and nextSeq_ survive: the clock stays monotonic
    // and stale EventIds can never alias a post-clear slot.
}

void
EventQueue::siftUp(std::size_t i)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t smallest = i;
        const std::size_t left = 2 * i + 1;
        const std::size_t right = left + 1;
        if (left < n && earlier(heap_[left], heap_[smallest]))
            smallest = left;
        if (right < n && earlier(heap_[right], heap_[smallest]))
            smallest = right;
        if (smallest == i)
            break;
        std::swap(heap_[i], heap_[smallest]);
        i = smallest;
    }
}

void
EventQueue::popTop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

} // namespace coserve
