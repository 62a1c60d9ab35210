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
 * are small dense ids) records each expert's request count, run count
 * and last run. The scheduler probes every executor queue on every
 * dispatch — containsExpert() and pendingWork() are the hottest reads
 * in the system — so membership tests are array lookups, and the
 * steady path performs no per-request allocation. Under grouped
 * insertion every expert owns exactly one run, so popBatchFor() finds
 * its group in O(1) and nextDistinctExpert() is the next run's
 * expert; the SLO scans walk contiguous chunk arrays instead of
 * chasing one pointer per request.
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

    /**
     * Remove and return up to @p maxCount head requests that all use
     * the head expert (one executable batch).
     */
    std::vector<Request> popBatch(int maxCount);

    /**
     * As popBatch, but *moves* the requests into @p out (cleared
     * first), so a caller-owned buffer can be recycled batch after
     * batch instead of allocating a fresh vector per batch.
     */
    void popBatchInto(int maxCount, std::vector<Request> &out);

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
     * false) answer the head expert in O(1); SLO-ordered queues scan
     * for the group holding the most urgent request — highest class
     * priority first, earliest deadline within a priority (EDF), queue
     * position as the tie-break. Runs and the per-expert group index
     * are untouched: urgency changes which group *pops* next, never
     * where requests sit. kNoExpert when empty.
     */
    ExpertId nextBatchExpert() const { return bestExpert(); }

    /**
     * Prefetch target under the same order: the expert of the batch
     * that will run *after* the next one (the executor prefetches one
     * group ahead while a batch executes). Equals nextDistinctExpert()
     * for plain queues; SLO-ordered queues compute the two most
     * urgent distinct experts in one scan and answer the runner-up.
     */
    ExpertId prefetchExpert() const;

    /**
     * Pop up to @p maxCount same-expert requests of @p e: the
     * contiguous run *containing the most urgent @p e request* (the
     * whole group under grouped insertion — and the first run when
     * nothing is urgent, so popBatchFor(headExpert()) on a classless
     * queue is exactly popBatchInto()). A FIFO-interleaved queue may
     * hold several disjoint runs of @p e; starting from the urgent
     * one keeps the EDF promise that the selected request actually
     * runs in the popped batch. @p e must be queued.
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
    };

    /** Per-expert bookkeeping, indexed by (dense, small) ExpertId. */
    struct GroupInfo
    {
        /** Run holding the last queued request of this expert. */
        Idx last = kNil;
        /** Queued requests of this expert. */
        int count = 0;
        /** Runs of this expert (1 under grouped-only insertion). */
        int runs = 0;
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
     * Unlink emptied run @p r, re-point its group's last run, and
     * merge its neighbours when they share an expert.
     */
    void removeRun(Idx r);
    /** Append run @p r's successor (same expert) onto @p r. */
    void mergeNext(Idx r);
    /** Call @p fn(request) for every queued request, head to tail. */
    template <typename Fn>
    void forEachRequest(Fn &&fn) const;
    void noteInserted(Idx r, const Entry &entry);
    void noteRemoved(const Entry &entry);
    GroupInfo &groupFor(ExpertId e);
    /** Most urgent group's expert (head group when nothing urgent). */
    ExpertId bestExpert() const;

    std::vector<std::unique_ptr<Chunk[]>> slabs_;
    Idx chunkCount_ = 0;
    Idx freeChunks_ = kNil;
    std::vector<Run> runs_;
    Idx freeRuns_ = kNil;
    Idx headRun_ = kNil;
    Idx tailRun_ = kNil;
    std::size_t size_ = 0;
    std::vector<GroupInfo> groups_;
    Time pendingWork_ = 0;
    /**
     * Queued requests carrying SLO urgency (non-default priority or a
     * deadline). Zero — every classless trace — keeps the pop order on
     * the O(1) head-group fast path.
     */
    std::size_t sloUrgent_ = 0;
    /** stealFromTail's per-run scratch: the visited run's entries. */
    std::vector<Entry *> stealSpan_;
    std::vector<Entry> stealKeep_;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_QUEUE_H
