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
    if (static_cast<std::size_t>(e) >= groups_.size()) {
        groups_.resize(static_cast<std::size_t>(e) + 1);
        urgency_.resize(groups_.size());
    }
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
        GroupInfo &info = groupFor(req.expert);
        runs_[r] = Run{};
        runs_[r].expert = req.expert;
        runs_[r].prev = tailRun_;
        runs_[r].prevSame = info.last;
        runs_[r].seq = ++runSeq_;
        if (tailRun_ != kNil)
            runs_[tailRun_].next = r;
        else
            headRun_ = r;
        tailRun_ = r;
        // The new run is the expert's last; noteInserted re-points
        // GroupInfo::last at it.
        if (info.last != kNil)
            runs_[info.last].nextSame = r;
        else
            info.first = r;
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
    if (run.prevSame != kNil)
        runs_[run.prevSame].nextSame = run.nextSame;
    else
        info.first = run.nextSame;
    if (run.nextSame != kNil)
        runs_[run.nextSame].prevSame = run.prevSame;
    else
        info.last = run.prevSame;
    COSERVE_CHECK((info.count == 0) == (info.last == kNil),
                  "queue group lost");
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
    // No run of the expert lies between the two, so @p n is @p r's
    // nextSame. The merged run keeps @p r's sequence: no live run was
    // created between the two.
    GroupInfo &info = groups_[run.expert];
    run.nextSame = next.nextSame;
    if (next.nextSame != kNil)
        runs_[next.nextSame].prevSame = r;
    else
        info.last = r;
    // Only urgent entries have holders: classless queues skip the
    // index here as everywhere.
    if (sloUrgent_ > 0 && urgency_[run.expert].holderRun == n)
        urgency_[run.expert].holderRun = r;
}

ExpertId
RequestQueue::prefetchExpert() const
{
    if (sloUrgent_ == 0)
        return nextDistinctExpert();
    // Runner-up of the tournament: the best subtree winner that lost
    // to the overall winner on its path to the root.
    const ExpertId best = tree_[1];
    ExpertId second = kNoExpert;
    for (std::size_t i = leaves_ + static_cast<std::size_t>(best); i > 1;
         i >>= 1)
        second = winnerOf(second, tree_[i ^ 1]);
    if (second != kNoExpert)
        return second;
    // Only the winner holds urgent entries: the others tie at
    // classless urgency, and the first other expert in queue order
    // wins. Adjacent runs never share an expert.
    const Run &head = runs_[headRun_];
    if (head.expert != best)
        return head.expert;
    return head.next == kNil ? kNoExpert : runs_[head.next].expert;
}

void
RequestQueue::popBatchFor(ExpertId e, int maxCount,
                          std::vector<Request> &out)
{
    COSERVE_CHECK(maxCount >= 1, "batch of ", maxCount);
    COSERVE_CHECK(e != kNoExpert && containsExpert(e),
                  "popBatchFor on absent expert ", e);

    out.clear();
    // A FIFO-interleaved queue may hold several disjoint runs of @p e;
    // the first may contain only old deadline-less work while the
    // urgency that selected @p e sits in a later run. Pop the holder's
    // run, or EDF would invert behind the very request it chose to
    // serve. Same-expert requests in other runs stay in place.
    const Idx holder = sloUrgent_ > 0 ? urgency_[e].holderRun : kNil;
    popFromRun(holder != kNil ? holder : groups_[e].first, maxCount, out);
    reindexStale();
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
    reindexStale();
    return stolen;
}

int
RequestQueue::drainAll(std::vector<Request> &out)
{
    const int drained = static_cast<int>(size_);
    while (headRun_ != kNil)
        popFromRun(headRun_, INT_MAX, out);
    reindexStale();
    return drained;
}

std::vector<Request>
RequestQueue::snapshot() const
{
    std::vector<Request> out;
    out.reserve(size_);
    for (Idx r = headRun_; r != kNil; r = runs_[r].next) {
        for (Idx c = runs_[r].first; c != kNil; c = chunkAt(c).next) {
            const Chunk &chunk = chunkAt(c);
            for (int k = chunk.begin; k < chunk.end; ++k)
                out.push_back(chunk.entries[k].req);
        }
    }
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
    if (sloUrgent(entry.req)) {
        sloUrgent_ += 1;
        // The new entry is its expert's last, so it becomes the holder
        // only by being strictly more urgent.
        Urgency &u = urgency_[entry.req.expert];
        if (u.holderRun == kNil ||
            moreUrgent(priorityOf(entry.req.cls), entry.req.deadline,
                       u.prio, u.deadline)) {
            setHolder(u, r, entry.req);
            updateLeaf(entry.req.expert);
        }
    }
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
        // Entries carry no identity, so any request tied with the
        // holder's urgency may be the holder: recompute to be sure.
        Urgency &u = urgency_[e];
        if (u.holderRun != kNil && u.prio == priorityOf(entry.req.cls) &&
            u.deadline == entry.req.deadline) {
            u.holderRun = kNil;
            stale_.push_back(e);
        }
    }
}

bool
RequestQueue::outranks(ExpertId a, ExpertId b) const
{
    const Urgency &x = urgency_[a];
    const Urgency &y = urgency_[b];
    if (x.prio != y.prio)
        return x.prio > y.prio;
    if (x.deadline != y.deadline)
        return x.deadline < y.deadline;
    // Two experts never share a run, so run order decides the tie.
    return x.runSeq < y.runSeq;
}

ExpertId
RequestQueue::winnerOf(ExpertId a, ExpertId b) const
{
    if (a == kNoExpert)
        return b;
    if (b == kNoExpert)
        return a;
    return outranks(b, a) ? b : a;
}

void
RequestQueue::setHolder(Urgency &u, Idx r, const Request &req)
{
    u.holderRun = r;
    u.prio = priorityOf(req.cls);
    u.deadline = req.deadline;
    u.runSeq = runs_[r].seq;
}

void
RequestQueue::reindex(ExpertId e)
{
    Urgency &u = urgency_[e];
    u.holderRun = kNil;
    for (Idx r = groups_[e].first; r != kNil; r = runs_[r].nextSame) {
        for (Idx c = runs_[r].first; c != kNil; c = chunkAt(c).next) {
            const Chunk &chunk = chunkAt(c);
            for (int k = chunk.begin; k < chunk.end; ++k) {
                const Request &q = chunk.entries[k].req;
                if (sloUrgent(q) &&
                    (u.holderRun == kNil ||
                     moreUrgent(priorityOf(q.cls), q.deadline, u.prio,
                                u.deadline)))
                    setHolder(u, r, q);
            }
        }
    }
    updateLeaf(e);
}

void
RequestQueue::reindexStale()
{
    for (const ExpertId e : stale_)
        reindex(e);
    stale_.clear();
}

void
RequestQueue::updateLeaf(ExpertId e)
{
    const auto leaf = static_cast<std::size_t>(e);
    if (leaf >= leaves_) {
        // First urgent entry, or an expert id past the tree: regrow
        // over every group and rebuild from the leaves.
        leaves_ = std::max<std::size_t>(leaves_, 1);
        while (leaves_ < groups_.size())
            leaves_ *= 2;
        tree_.assign(2 * leaves_, kNoExpert);
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            if (urgency_[g].holderRun != kNil)
                tree_[leaves_ + g] = static_cast<ExpertId>(g);
        }
        for (std::size_t i = leaves_ - 1; i >= 1; --i)
            tree_[i] = winnerOf(tree_[2 * i], tree_[2 * i + 1]);
        return;
    }
    std::size_t i = leaves_ + leaf;
    tree_[i] = urgency_[e].holderRun != kNil ? e : kNoExpert;
    for (i >>= 1; i >= 1; i >>= 1) {
        const ExpertId w = winnerOf(tree_[2 * i], tree_[2 * i + 1]);
        // An unchanged winner other than @p e keeps its key, so every
        // node above is unchanged too.
        if (w == tree_[i] && w != e)
            return;
        tree_[i] = w;
    }
}

} // namespace coserve
