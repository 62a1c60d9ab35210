/**
 * @file
 * Per-executor request queue with expert-group bookkeeping.
 *
 * Supports both plain FIFO insertion (baselines) and *arranged*
 * insertion (Section 4.2, Figure 9): a new request is placed directly
 * behind the last queued request that uses the same expert, so requests
 * sharing an expert are processed together and the expert is loaded at
 * most once for the whole group.
 *
 * The queue also tracks the scheduler's per-request latency estimates
 * so the dependency-aware scheduler can predict each queue's total
 * inference time in O(1) (Figure 8).
 *
 * Implementation: a doubly-linked list of *runs* — maximal stretches
 * of consecutive same-expert requests — over a run pool, with each
 * run's entries stored in fixed 16-entry chunks drawn from a per-queue
 * chunk pool (both pools keep a free list and never shrink; the chunk
 * pool grows in fixed slabs, so growth moves nothing). Adjacent
 * runs never share an expert: when a middle run empties, its two
 * neighbours merge if they do. A flat per-expert group index (experts
 * are small dense ids) records each expert's request count and its
 * first and last run; an expert's runs also chain to each other in
 * queue order. The scheduler probes every executor queue on every
 * dispatch — containsExpert() and pendingWork() are the hottest reads
 * in the system — so membership tests are array lookups, and the
 * steady path performs no per-request allocation. Under grouped
 * insertion every expert owns exactly one run, so popBatchFor() finds
 * its group in O(1) and nextDistinctExpert() is the next run's expert.
 *
 * SLO order (EDF within priority) comes from a per-expert *urgency
 * index*, never from a queue scan. Each expert's index entry (a table
 * beside the group index) records its most urgent (priority, deadline)
 * among its SLO-urgent entries, the run holding the first such entry
 * in queue order (the *holder*), and that run's creation sequence as
 * the holder's queue position. Runs are only created at the tail, so
 * sequences increase along the queue; a merge joins two adjacent runs,
 * between which no live run remains; and two experts never share a
 * run — so the sequence alone orders any two experts' holders as the
 * queue does. A tournament tree over the dense expert ids keys the
 * experts by (priority desc, deadline asc, position asc): its winner
 * runs next, and the best sibling along the winner's path is the
 * runner-up. Classless entries never enter the index — priorities are
 * >= 0, so any urgent entry strictly outranks them, and the experts
 * without urgent entries rank by their first entry in queue order. An
 * expert's index entry changes when it receives a more urgent entry
 * (only an expert's last run receives appends, so a new entry never
 * precedes the holder), and is recomputed over that expert's own
 * entries when a request tied with the holder's urgency leaves (pop,
 * steal or drain).
 *
 * Determinism: no hash container — the group index visits experts in
 * dense-id order by construction.
 */

#ifndef COSERVE_RUNTIME_QUEUE_H
#define COSERVE_RUNTIME_QUEUE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "workload/request.h"

namespace coserve {

/** Ordered queue of pending requests for one executor. */
class RequestQueue
{
  public:
    /** One queued request plus the scheduler's latency estimate. */
    struct Entry
    {
        Request req;
        Time estimate = 0;
    };

    /** Append at the tail (FCFS order). */
    void pushBack(const Request &req, Time estimate = 0);

    /**
     * Arranged insertion: place @p req right after the last queued
     * request using the same expert; falls back to the tail when no
     * such request exists.
     */
    void pushGrouped(const Request &req, Time estimate = 0);

    /** @return true when no requests are queued. */
    bool empty() const { return size_ == 0; }

    /** @return queued request count. */
    std::size_t size() const { return size_; }

    /** Expert of the head request; panics when empty. */
    ExpertId headExpert() const;

    // ----- SLO-aware (EDF-within-priority) pop order ------------------

    /**
     * @return true when some queued request carries SLO urgency (a
     *         non-default priority or a deadline) — the gate for the
     *         EDF pop order. A queue of classless requests reports
     *         false and behaves exactly as before the SLO layer.
     */
    bool sloOrdered() const { return sloUrgent_ > 0; }

    /**
     * Expert of the next batch to execute. Plain queues (sloOrdered()
     * false) answer the head expert; SLO-ordered queues answer the
     * urgency index's winner — the expert holding the most urgent
     * request: highest class priority first, earliest deadline within
     * a priority (EDF), first in queue order as the tie-break. Both
     * are O(1). Runs and the per-expert group index are untouched:
     * urgency changes which group *pops* next, never where requests
     * sit. kNoExpert when empty.
     */
    ExpertId
    nextBatchExpert() const
    {
        if (sloUrgent_ > 0)
            return tree_[1];
        return headRun_ == kNil ? kNoExpert : runs_[headRun_].expert;
    }

    /**
     * Prefetch target under the same order: the expert of the batch
     * that will run *after* the next one (the executor prefetches one
     * group ahead while a batch executes). Equals nextDistinctExpert()
     * for plain queues (O(1)). SLO-ordered queues answer the urgency
     * index's runner-up in O(log experts); when no other expert holds
     * an urgent entry, every other expert ties at classless urgency
     * and the first other expert in queue order wins — the head run's
     * expert, or the next run's when the head run is the winner's.
     */
    ExpertId prefetchExpert() const;

    /**
     * Pop up to @p maxCount same-expert requests of @p e from the
     * front of one run: the run holding @p e's most urgent request
     * (the index records that holder's run), or @p e's first run when
     * @p e has no urgent request — so popBatchFor(headExpert()) on a
     * classless queue pops the head run. Under grouped
     * insertion that run is @p e's whole group. A FIFO-interleaved
     * queue may hold several disjoint runs of @p e; starting from the
     * urgent one keeps the EDF promise that the selected request runs
     * in a batch of the run it sits in. The pop always takes the run's
     * *front*: when the urgent member lies beyond @p maxCount it stays
     * queued for a later batch. O(popped requests), plus a rescan of
     * @p e's remaining entries when a popped request ties with its
     * holder's urgency. @p e must be queued.
     */
    void popBatchFor(ExpertId e, int maxCount, std::vector<Request> &out);

    /**
     * Expert of the first request group after the head group; used as
     * the prefetch target. kNoExpert when the queue has one group.
     */
    ExpertId nextDistinctExpert() const;

    /** Predicate selecting which requests a thief may steal. */
    using StealFilter = std::function<bool(const Request &)>;

    /**
     * Work-stealing support: remove up to @p maxCount requests from
     * the tail (newest first), appending them to @p out. The head
     * request is never stolen — the executor may have a demand load in
     * flight for its expert, and an executor with queued work must
     * keep something to run when that load lands. Requests rejected by
     * @p allow (e.g. architectures the thief cannot serve) are skipped
     * in place; a null filter allows everything.
     *
     * @return number of requests removed.
     */
    int stealFromTail(int maxCount, std::vector<Request> &out,
                      const StealFilter &allow = nullptr);

    /** @return true when some queued request uses @p e. */
    bool
    containsExpert(ExpertId e) const
    {
        return static_cast<std::size_t>(e) < groups_.size() &&
               groups_[e].count > 0;
    }

    /** @return number of queued requests using @p e. */
    int
    countForExpert(ExpertId e) const
    {
        return static_cast<std::size_t>(e) < groups_.size()
                   ? groups_[e].count
                   : 0;
    }

    /** Sum of scheduler estimates of all queued requests. */
    Time pendingWork() const { return pendingWork_; }

    /**
     * Crash support: remove *every* queued request (head included,
     * unlike stealFromTail — a dead replica keeps nothing), appending
     * them to @p out in queue order.
     *
     * @return number of requests removed.
     */
    int drainAll(std::vector<Request> &out);

    /** Snapshot of queued requests in order (tests / debugging). */
    std::vector<Request> snapshot() const;

  private:
    using Idx = std::int32_t;
    static constexpr Idx kNil = -1;
    static constexpr int kChunkEntries = 16;

    /**
     * Pooled block of consecutive entries of one run; the live entries
     * are [begin, end). A run's chunks link forward through @c next,
     * free chunks through the same field.
     */
    struct Chunk
    {
        Entry entries[kChunkEntries];
        Idx next = kNil;
        std::int32_t begin = 0;
        std::int32_t end = 0;
    };

    /**
     * Chunks per pool slab. The chunk pool grows a slab at a time and
     * slabs never move, so growth copies nothing and chunk references
     * stay valid.
     */
    static constexpr std::uint32_t kSlabChunks = 16;

    Chunk &
    chunkAt(Idx c)
    {
        const auto i = static_cast<std::uint32_t>(c);
        return slabs_[i / kSlabChunks][i % kSlabChunks];
    }
    const Chunk &
    chunkAt(Idx c) const
    {
        const auto i = static_cast<std::uint32_t>(c);
        return slabs_[i / kSlabChunks][i % kSlabChunks];
    }

    /** Pooled run: consecutive same-expert requests, in queue order. */
    struct Run
    {
        ExpertId expert = kNoExpert;
        Idx prev = kNil;
        Idx next = kNil; // also links free runs
        Idx first = kNil;
        Idx last = kNil;
        int size = 0;
        /** Neighbouring runs of the same expert, in queue order. */
        Idx prevSame = kNil;
        Idx nextSame = kNil;
        /** Creation sequence: increases along the queue. */
        std::uint64_t seq = 0;
    };

    /** Per-expert bookkeeping, indexed by (dense, small) ExpertId. */
    struct GroupInfo
    {
        /** First and last run holding a request of this expert. */
        Idx first = kNil;
        Idx last = kNil;
        /** Queued requests of this expert. */
        int count = 0;
    };

    /**
     * Per-expert urgency index entry, indexed like the group index but
     * kept apart from it, so the scheduler's containsExpert() probes
     * stay on a dense count array.
     */
    struct Urgency
    {
        /**
         * Run holding the first of this expert's most urgent
         * SLO-urgent entries (the holder); kNil when it has none. The
         * remaining fields are the holder's key.
         */
        Idx holderRun = kNil;
        int prio = 0;
        Time deadline = kTimeNever;
        /** The holder's queue position: its run's creation sequence. */
        std::uint64_t runSeq = 0;
    };

    Idx allocChunk();
    void freeChunk(Idx c);
    /** Append @p entry to run @p r (no bookkeeping). */
    void appendEntry(Idx r, Entry entry);
    /** Append to run @p r, updating size and group bookkeeping. */
    void appendToRun(Idx r, const Request &req, Time estimate);
    /**
     * Move up to @p maxCount front entries of run @p r onto @p out
     * (not cleared), removing the run if it empties.
     */
    void popFromRun(Idx r, int maxCount, std::vector<Request> &out);
    /**
     * Unlink emptied run @p r from the queue and from its expert's
     * runs, and merge its neighbours when they share an expert.
     */
    void removeRun(Idx r);
    /** Append run @p r's successor (same expert) onto @p r. */
    void mergeNext(Idx r);
    void noteInserted(Idx r, const Entry &entry);
    void noteRemoved(const Entry &entry);
    GroupInfo &groupFor(ExpertId e);

    /** Does expert @p a's index key rank ahead of @p b's? */
    bool outranks(ExpertId a, ExpertId b) const;
    /** The better-ranked of two tree slots (kNoExpert = empty). */
    ExpertId winnerOf(ExpertId a, ExpertId b) const;
    /** Record request @p req of run @p r as its expert's holder. */
    void setHolder(Urgency &u, Idx r, const Request &req);
    /** Recompute @p e's index entry over its own queued entries. */
    void reindex(ExpertId e);
    /** Reindex the experts in stale_; every mutation ends with it. */
    void reindexStale();
    /** Refresh @p e's tree leaf and the path above it. */
    void updateLeaf(ExpertId e);

    std::vector<std::unique_ptr<Chunk[]>> slabs_;
    Idx chunkCount_ = 0;
    Idx freeChunks_ = kNil;
    std::vector<Run> runs_;
    Idx freeRuns_ = kNil;
    Idx headRun_ = kNil;
    Idx tailRun_ = kNil;
    std::size_t size_ = 0;
    std::vector<GroupInfo> groups_;
    std::vector<Urgency> urgency_;
    Time pendingWork_ = 0;
    /**
     * Queued requests carrying SLO urgency (non-default priority or a
     * deadline). Zero — every classless trace — keeps the pop order on
     * the O(1) head-group fast path.
     */
    std::size_t sloUrgent_ = 0;
    /** Sequence of the most recently created run. */
    std::uint64_t runSeq_ = 0;
    /**
     * Tournament tree over expert ids: leaf leaves_ + e holds e while
     * e has an index entry; each inner node holds its children's
     * winner; tree_[1] is the overall winner. Empty until the first
     * urgent entry arrives, so classless queues never touch it.
     */
    std::vector<ExpertId> tree_;
    std::size_t leaves_ = 0;
    /**
     * Experts that lost a request tied with their holder's urgency
     * (possibly the holder) during the current operation.
     */
    std::vector<ExpertId> stale_;
    /** stealFromTail's per-run scratch: the visited run's entries. */
    std::vector<Entry *> stealSpan_;
    std::vector<Entry> stealKeep_;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_QUEUE_H
