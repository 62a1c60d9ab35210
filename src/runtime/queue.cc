#include "runtime/queue.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "util/logging.h"

namespace coserve {

namespace {

/** Does @p r participate in the EDF-within-priority pop order? */
inline bool
sloUrgent(const Request &r)
{
    return r.deadline != kTimeNever || priorityOf(r.cls) != 0;
}

/** Strict "more urgent than": higher priority, then earlier EDF. */
inline bool
moreUrgent(int prio, Time deadline, int thanPrio, Time thanDeadline)
{
    return prio > thanPrio ||
           (prio == thanPrio && deadline < thanDeadline);
}

} // namespace

RequestQueue::GroupInfo &
RequestQueue::groupFor(ExpertId e)
{
    COSERVE_CHECK(e >= 0, "queued request without an expert");
    if (static_cast<std::size_t>(e) >= groups_.size())
        groups_.resize(static_cast<std::size_t>(e) + 1);
    return groups_[e];
}

RequestQueue::Idx
RequestQueue::allocChunk()
{
    Idx c;
    if (freeChunks_ != kNil) {
        c = freeChunks_;
        freeChunks_ = chunkAt(c).next;
    } else {
        c = chunkCount_++;
        if (static_cast<std::uint32_t>(c) % kSlabChunks == 0)
            slabs_.push_back(std::make_unique<Chunk[]>(kSlabChunks));
    }
    Chunk &chunk = chunkAt(c);
    chunk.next = kNil;
    chunk.begin = 0;
    chunk.end = 0;
    return c;
}

void
RequestQueue::freeChunk(Idx c)
{
    chunkAt(c).next = freeChunks_;
    freeChunks_ = c;
}

void
RequestQueue::appendEntry(Idx r, Entry entry)
{
    Idx c = runs_[r].last;
    if (c == kNil || chunkAt(c).end == kChunkEntries) {
        const Idx fresh = allocChunk();
        if (c == kNil)
            runs_[r].first = fresh;
        else
            chunkAt(c).next = fresh;
        runs_[r].last = fresh;
        c = fresh;
    }
    Chunk &chunk = chunkAt(c);
    chunk.entries[chunk.end++] = std::move(entry);
    runs_[r].size += 1;
}

void
RequestQueue::appendToRun(Idx r, const Request &req, Time estimate)
{
    const Entry entry{req, estimate};
    appendEntry(r, entry);
    ++size_;
    noteInserted(r, entry);
}

void
RequestQueue::pushBack(const Request &req, Time estimate)
{
    if (tailRun_ == kNil || runs_[tailRun_].expert != req.expert) {
        Idx r;
        if (freeRuns_ != kNil) {
            r = freeRuns_;
            freeRuns_ = runs_[r].next;
        } else {
            r = static_cast<Idx>(runs_.size());
            runs_.emplace_back();
        }
        runs_[r] = Run{req.expert, tailRun_, kNil, kNil, kNil, 0};
        if (tailRun_ != kNil)
            runs_[tailRun_].next = r;
        else
            headRun_ = r;
        tailRun_ = r;
        groupFor(req.expert).runs += 1;
    }
    appendToRun(tailRun_, req, estimate);
}

void
RequestQueue::pushGrouped(const Request &req, Time estimate)
{
    const GroupInfo &info = groupFor(req.expert);
    if (info.count == 0)
        pushBack(req, estimate);
    else
        appendToRun(info.last, req, estimate);
}

ExpertId
RequestQueue::headExpert() const
{
    COSERVE_CHECK(headRun_ != kNil, "headExpert on empty queue");
    return runs_[headRun_].expert;
}

std::vector<Request>
RequestQueue::popBatch(int maxCount)
{
    std::vector<Request> batch;
    popBatchInto(maxCount, batch);
    return batch;
}

void
RequestQueue::popBatchInto(int maxCount, std::vector<Request> &out)
{
    COSERVE_CHECK(maxCount >= 1, "batch of ", maxCount);
    COSERVE_CHECK(headRun_ != kNil, "popBatch on empty queue");
    out.clear();
    popFromRun(headRun_, maxCount, out);
}

void
RequestQueue::popFromRun(Idx r, int maxCount, std::vector<Request> &out)
{
    Run &run = runs_[r];
    int n = std::min(maxCount, run.size);
    run.size -= n;
    size_ -= static_cast<std::size_t>(n);
    while (n > 0) {
        Chunk &chunk = chunkAt(run.first);
        const int take = std::min(n, chunk.end - chunk.begin);
        for (int k = chunk.begin; k < chunk.begin + take; ++k) {
            noteRemoved(chunk.entries[k]);
            out.push_back(std::move(chunk.entries[k].req));
        }
        chunk.begin += take;
        n -= take;
        if (chunk.begin == chunk.end) {
            const Idx next = chunk.next;
            freeChunk(run.first);
            run.first = next;
        }
    }
    if (run.first == kNil) {
        run.last = kNil;
        removeRun(r);
    }
}

void
RequestQueue::removeRun(Idx r)
{
    const Run run = runs_[r];
    COSERVE_CHECK(run.size == 0, "removing a non-empty run");
    if (run.prev != kNil)
        runs_[run.prev].next = run.next;
    else
        headRun_ = run.next;
    if (run.next != kNil)
        runs_[run.next].prev = run.prev;
    else
        tailRun_ = run.prev;
    runs_[r].next = freeRuns_;
    freeRuns_ = r;

    GroupInfo &info = groups_[run.expert];
    info.runs -= 1;
    if (info.count == 0) {
        COSERVE_CHECK(info.last == r, "group emptied but last run differs");
        info.last = kNil;
    } else if (info.last == r) {
        // The group's last run emptied while earlier runs survive:
        // hand the role to the nearest earlier run of the expert.
        Idx p = run.prev;
        while (p != kNil && runs_[p].expert != run.expert)
            p = runs_[p].prev;
        COSERVE_CHECK(p != kNil, "queue group lost");
        info.last = p;
    }
    if (run.prev != kNil && run.next != kNil &&
        runs_[run.prev].expert == runs_[run.next].expert)
        mergeNext(run.prev);
}

void
RequestQueue::mergeNext(Idx r)
{
    const Idx n = runs_[r].next;
    const Run next = runs_[n];
    Run &run = runs_[r];
    chunkAt(run.last).next = next.first;
    run.last = next.last;
    run.size += next.size;
    run.next = next.next;
    if (next.next != kNil)
        runs_[next.next].prev = r;
    else
        tailRun_ = r;
    runs_[n].next = freeRuns_;
    freeRuns_ = n;
    GroupInfo &info = groups_[run.expert];
    info.runs -= 1;
    if (info.last == n)
        info.last = r;
}

template <typename Fn>
void
RequestQueue::forEachRequest(Fn &&fn) const
{
    for (Idx r = headRun_; r != kNil; r = runs_[r].next) {
        for (Idx c = runs_[r].first; c != kNil; c = chunkAt(c).next) {
            const Chunk &chunk = chunkAt(c);
            for (int k = chunk.begin; k < chunk.end; ++k)
                fn(chunk.entries[k].req);
        }
    }
}

ExpertId
RequestQueue::bestExpert() const
{
    if (headRun_ == kNil)
        return kNoExpert;
    if (sloUrgent_ == 0) {
        // Plain queue: head group pops first, exactly as pre-SLO.
        return runs_[headRun_].expert;
    }
    ExpertId best = kNoExpert;
    int bestPrio = 0;
    Time bestDeadline = kTimeNever;
    forEachRequest([&](const Request &r) {
        const int prio = priorityOf(r.cls);
        if (best == kNoExpert ||
            moreUrgent(prio, r.deadline, bestPrio, bestDeadline)) {
            best = r.expert;
            bestPrio = prio;
            bestDeadline = r.deadline;
        }
    });
    return best;
}

ExpertId
RequestQueue::prefetchExpert() const
{
    if (sloUrgent_ == 0)
        return nextDistinctExpert();
    // One pass tracking the two most urgent *distinct* experts (the
    // per-expert maximum urgency decides): the runner-up is the group
    // that runs after the next one — the prefetch target.
    ExpertId best = kNoExpert, second = kNoExpert;
    int bestPrio = 0, secondPrio = 0;
    Time bestDl = kTimeNever, secondDl = kTimeNever;
    forEachRequest([&](const Request &r) {
        const int prio = priorityOf(r.cls);
        if (r.expert == best) {
            if (moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
                bestPrio = prio;
                bestDl = r.deadline;
            }
        } else if (r.expert == second) {
            if (moreUrgent(prio, r.deadline, secondPrio, secondDl)) {
                secondPrio = prio;
                secondDl = r.deadline;
                // The runner-up's accumulated urgency may overtake.
                if (moreUrgent(secondPrio, secondDl, bestPrio,
                               bestDl)) {
                    std::swap(best, second);
                    std::swap(bestPrio, secondPrio);
                    std::swap(bestDl, secondDl);
                }
            }
        } else if (best == kNoExpert ||
                   moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
            second = best;
            secondPrio = bestPrio;
            secondDl = bestDl;
            best = r.expert;
            bestPrio = prio;
            bestDl = r.deadline;
        } else if (second == kNoExpert ||
                   moreUrgent(prio, r.deadline, secondPrio,
                              secondDl)) {
            second = r.expert;
            secondPrio = prio;
            secondDl = r.deadline;
        }
    });
    return second;
}

void
RequestQueue::popBatchFor(ExpertId e, int maxCount,
                          std::vector<Request> &out)
{
    COSERVE_CHECK(maxCount >= 1, "batch of ", maxCount);
    COSERVE_CHECK(e != kNoExpert && containsExpert(e),
                  "popBatchFor on absent expert ", e);

    out.clear();
    const GroupInfo &info = groups_[e];
    if (info.runs == 1) {
        // One run (every expert of a grouped-only queue): it is the
        // group's last run.
        popFromRun(info.last, maxCount, out);
        return;
    }
    Idx start = headRun_;
    while (runs_[start].expert != e)
        start = runs_[start].next;
    if (sloUrgent_ > 0) {
        // A FIFO-interleaved queue may hold several disjoint runs of
        // @p e; the first run may contain only old deadline-less work
        // while the urgency that selected @p e sits in a later run.
        // Pop the run holding the most urgent member, or EDF would
        // invert behind the very request it chose to serve.
        const Chunk &head = chunkAt(runs_[start].first);
        int bestPrio = priorityOf(head.entries[head.begin].req.cls);
        Time bestDl = head.entries[head.begin].req.deadline;
        Idx urgent = start;
        for (Idx r = start;; r = runs_[r].next) {
            if (runs_[r].expert != e)
                continue;
            for (Idx c = runs_[r].first; c != kNil; c = chunkAt(c).next) {
                const Chunk &chunk = chunkAt(c);
                for (int k = chunk.begin; k < chunk.end; ++k) {
                    const Request &q = chunk.entries[k].req;
                    const int prio = priorityOf(q.cls);
                    if (moreUrgent(prio, q.deadline, bestPrio, bestDl)) {
                        urgent = r;
                        bestPrio = prio;
                        bestDl = q.deadline;
                    }
                }
            }
            if (r == info.last)
                break;
        }
        start = urgent;
    }
    // Pop the front of the run (the whole group under grouped
    // insertion); same-expert requests in other runs stay in place,
    // matching popBatchInto's head-run semantics.
    popFromRun(start, maxCount, out);
}

ExpertId
RequestQueue::nextDistinctExpert() const
{
    // Adjacent runs never share an expert, so the run after the head
    // run starts the next group.
    if (headRun_ == kNil || runs_[headRun_].next == kNil)
        return kNoExpert;
    return runs_[runs_[headRun_].next].expert;
}

int
RequestQueue::stealFromTail(int maxCount, std::vector<Request> &out,
                            const StealFilter &allow)
{
    int stolen = 0;
    Idx r = tailRun_;
    // Entries of run r still to visit: a prefix, because a merge
    // appends the (already visited) next run's entries to r.
    int visit = r == kNil ? 0 : runs_[r].size;
    while (stolen < maxCount && r != kNil) {
        stealSpan_.clear();
        for (Idx c = runs_[r].first; c != kNil; c = chunkAt(c).next) {
            Chunk &chunk = chunkAt(c);
            for (int k = chunk.begin; k < chunk.end; ++k)
                stealSpan_.push_back(&chunk.entries[k]);
        }
        // Walk tailward; the head request is never stolen (see the
        // header comment).
        const int lowest = r == headRun_ ? 1 : 0;
        int removed = 0;
        for (int i = visit - 1; i >= lowest && stolen < maxCount; --i) {
            Entry &entry = *stealSpan_[static_cast<std::size_t>(i)];
            if (allow && !allow(entry.req))
                continue;
            noteRemoved(entry);
            out.push_back(std::move(entry.req));
            stealSpan_[static_cast<std::size_t>(i)] = nullptr;
            ++removed;
            ++stolen;
        }
        const Idx prev = runs_[r].prev;
        const int prevVisit = prev == kNil ? 0 : runs_[prev].size;
        if (removed > 0) {
            // Rebuild the run from its survivors, in order.
            stealKeep_.clear();
            for (Entry *entry : stealSpan_) {
                if (entry != nullptr)
                    stealKeep_.push_back(std::move(*entry));
            }
            Run &run = runs_[r];
            for (Idx c = run.first; c != kNil;) {
                const Idx next = chunkAt(c).next;
                freeChunk(c);
                c = next;
            }
            run.first = run.last = kNil;
            run.size = 0;
            for (Entry &entry : stealKeep_)
                appendEntry(r, std::move(entry));
            size_ -= static_cast<std::size_t>(removed);
            if (runs_[r].size == 0)
                removeRun(r);
        }
        r = prev;
        visit = prevVisit;
    }
    return stolen;
}

int
RequestQueue::drainAll(std::vector<Request> &out)
{
    const int drained = static_cast<int>(size_);
    while (headRun_ != kNil)
        popFromRun(headRun_, INT_MAX, out);
    return drained;
}

std::vector<Request>
RequestQueue::snapshot() const
{
    std::vector<Request> out;
    out.reserve(size_);
    forEachRequest([&](const Request &r) { out.push_back(r); });
    return out;
}

void
RequestQueue::noteInserted(Idx r, const Entry &entry)
{
    GroupInfo &info = groups_[entry.req.expert];
    // The inserted entry is always the last occurrence of its expert:
    // pushBack places it at the tail; pushGrouped appends to the
    // expert's last run.
    info.last = r;
    info.count += 1;
    pendingWork_ += entry.estimate;
    if (sloUrgent(entry.req))
        sloUrgent_ += 1;
}

void
RequestQueue::noteRemoved(const Entry &entry)
{
    const ExpertId e = entry.req.expert;
    COSERVE_CHECK(static_cast<std::size_t>(e) < groups_.size() &&
                      groups_[e].count > 0,
                  "queue group lost");
    groups_[e].count -= 1;
    pendingWork_ -= entry.estimate;
    if (sloUrgent(entry.req)) {
        COSERVE_CHECK(sloUrgent_ > 0, "urgent count underflow");
        sloUrgent_ -= 1;
    }
}

} // namespace coserve
