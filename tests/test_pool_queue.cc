/**
 * @file
 * Unit tests for ModelPool, RequestQueue and the cache-style MemoryTier
 * role (the former LruByteCache) — the state machines the serving
 * runtime is built from. Hierarchy-level behavior (cascades, shared
 * tiers, counters) lives in test_memory_tiers.cc.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/policies.h"
#include "runtime/pool.h"
#include "runtime/queue.h"
#include "util/rng.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

TEST(ModelPoolTest, LoadLifecycle)
{
    ModelPool pool("p", 100 * kMB);
    EXPECT_FALSE(pool.contains(1));
    pool.beginLoad(1, 40 * kMB, 7);
    EXPECT_TRUE(pool.contains(1));
    EXPECT_TRUE(pool.loading(1));
    EXPECT_FALSE(pool.resident(1));
    EXPECT_EQ(pool.usedBytes(), 40 * kMB);
    pool.finishLoad(1, 123);
    EXPECT_TRUE(pool.resident(1));
    EXPECT_EQ(pool.entry(1).lastUse, 123);
    EXPECT_EQ(pool.entry(1).loadSeq, 7u);
}

TEST(ModelPoolTest, InsertResidentAndErase)
{
    ModelPool pool("p", 100 * kMB);
    pool.insertResident(2, 60 * kMB, 1, 0);
    EXPECT_TRUE(pool.resident(2));
    EXPECT_EQ(pool.freeBytes(), 40 * kMB);
    pool.erase(2);
    EXPECT_FALSE(pool.contains(2));
    EXPECT_EQ(pool.freeBytes(), 100 * kMB);
}

TEST(ModelPoolTest, PinsProtect)
{
    ModelPool pool("p", 100 * kMB);
    pool.insertResident(1, 10 * kMB, 1, 0);
    pool.pin(1);
    EXPECT_EQ(pool.entry(1).pins, 1);
    EXPECT_DEATH(pool.erase(1), "pinned");
    pool.unpin(1);
    pool.erase(1);
}

TEST(ModelPoolTest, LoadingEntryIsPinned)
{
    ModelPool pool("p", 100 * kMB);
    pool.beginLoad(1, 10 * kMB, 1);
    EXPECT_DEATH(pool.erase(1), "pinned|in-flight");
}

TEST(ModelPoolTest, SoftPinBookkeeping)
{
    ModelPool pool("p", 100 * kMB);
    pool.insertResident(1, 10 * kMB, 1, 0);
    pool.softPin(1);
    EXPECT_TRUE(pool.entry(1).softPinned);
    pool.softUnpin(1);
    EXPECT_FALSE(pool.entry(1).softPinned);
    pool.softUnpin(42); // absent: no-op
}

TEST(ModelPoolTest, TouchUpdatesLastUse)
{
    ModelPool pool("p", 100 * kMB);
    pool.insertResident(1, 10 * kMB, 1, 5);
    pool.touch(1, 77);
    EXPECT_EQ(pool.entry(1).lastUse, 77);
}

TEST(ModelPoolTest, OverflowRejected)
{
    ModelPool pool("p", 50 * kMB);
    pool.insertResident(1, 30 * kMB, 1, 0);
    EXPECT_DEATH(pool.beginLoad(2, 30 * kMB, 2), "reserve");
}

TEST(ModelPoolTest, DoubleInsertRejected)
{
    ModelPool pool("p", 100 * kMB);
    pool.insertResident(1, 10 * kMB, 1, 0);
    EXPECT_DEATH(pool.insertResident(1, 10 * kMB, 2, 0), "already");
}

Request
makeReq(RequestId id, ExpertId expert)
{
    Request r;
    r.id = id;
    r.imageId = id;
    r.component = 0;
    r.expert = expert;
    return r;
}

TEST(RequestQueueTest, FifoOrder)
{
    RequestQueue q;
    q.pushBack(makeReq(0, 10));
    q.pushBack(makeReq(1, 11));
    q.pushBack(makeReq(2, 10));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.headExpert(), 10);
    const auto batch = q.popBatch(8);
    EXPECT_EQ(batch.size(), 1u); // head run stops at the expert switch
    EXPECT_EQ(q.headExpert(), 11);
}

TEST(RequestQueueTest, GroupedInsertionJoinsGroup)
{
    RequestQueue q;
    q.pushBack(makeReq(0, 10));
    q.pushBack(makeReq(1, 11));
    q.pushGrouped(makeReq(2, 10)); // should slot behind request 0
    const auto snap = q.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].expert, 10);
    EXPECT_EQ(snap[1].expert, 10);
    EXPECT_EQ(snap[2].expert, 11);
}

TEST(RequestQueueTest, GroupedFallsBackToTail)
{
    RequestQueue q;
    q.pushBack(makeReq(0, 10));
    q.pushGrouped(makeReq(1, 99));
    EXPECT_EQ(q.snapshot().back().expert, 99);
}

TEST(RequestQueueTest, PopBatchHonorsMax)
{
    RequestQueue q;
    for (int i = 0; i < 10; ++i)
        q.pushGrouped(makeReq(i, 7));
    const auto batch = q.popBatch(4);
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.countForExpert(7), 6);
}

TEST(RequestQueueTest, NextDistinctExpert)
{
    RequestQueue q;
    EXPECT_EQ(q.nextDistinctExpert(), kNoExpert);
    q.pushBack(makeReq(0, 5));
    q.pushBack(makeReq(1, 5));
    EXPECT_EQ(q.nextDistinctExpert(), kNoExpert);
    q.pushBack(makeReq(2, 6));
    EXPECT_EQ(q.nextDistinctExpert(), 6);
}

TEST(RequestQueueTest, ContainsAndCounts)
{
    RequestQueue q;
    q.pushGrouped(makeReq(0, 5));
    q.pushGrouped(makeReq(1, 5));
    EXPECT_TRUE(q.containsExpert(5));
    EXPECT_FALSE(q.containsExpert(6));
    EXPECT_EQ(q.countForExpert(5), 2);
    q.popBatch(8);
    EXPECT_FALSE(q.containsExpert(5));
}

TEST(RequestQueueTest, PendingWorkTracksEstimates)
{
    RequestQueue q;
    q.pushGrouped(makeReq(0, 5), milliseconds(10));
    q.pushGrouped(makeReq(1, 6), milliseconds(20));
    EXPECT_EQ(q.pendingWork(), milliseconds(30));
    q.popBatch(8);
    EXPECT_EQ(q.pendingWork(), milliseconds(20));
}

TEST(RequestQueueTest, GroupsStayContiguousUnderGroupedInsertion)
{
    // Property: with grouped insertion only, all requests of an expert
    // form one contiguous run.
    RequestQueue q;
    Rng rng(17);
    for (int i = 0; i < 500; ++i)
        q.pushGrouped(makeReq(i, static_cast<ExpertId>(
                                     rng.uniformInt(12))));
    const auto snap = q.snapshot();
    std::vector<bool> closed(12, false);
    ExpertId current = kNoExpert;
    for (const Request &r : snap) {
        if (r.expert != current) {
            if (current != kNoExpert)
                closed[static_cast<std::size_t>(current)] = true;
            ASSERT_FALSE(closed[static_cast<std::size_t>(r.expert)])
                << "expert " << r.expert << " appears in two runs";
            current = r.expert;
        }
    }
}

// ------------------------------------------------- differential queue

/**
 * Reference model for the differential test: the former linked-list
 * RequestQueue (one pooled node per request, a per-expert index of
 * each group's last node), kept verbatim in behaviour. The chunked
 * run layout must answer every query and every pop, steal and drain
 * exactly as this model does.
 */
class ListQueue
{
  public:
    void
    pushBack(const Request &req, Time estimate)
    {
        plainInserts_ = true;
        linkAfter(tail_, alloc(req, estimate));
    }

    void
    pushGrouped(const Request &req, Time estimate)
    {
        const GroupInfo &info = groupFor(req.expert);
        linkAfter(info.count == 0 ? tail_ : info.last,
                  alloc(req, estimate));
    }

    std::size_t size() const { return size_; }

    ExpertId headExpert() const { return nodes_[head_].req.expert; }

    void
    popBatchInto(int maxCount, std::vector<Request> &out)
    {
        out.clear();
        const ExpertId e = nodes_[head_].req.expert;
        while (head_ != kNil &&
               out.size() < static_cast<std::size_t>(maxCount) &&
               nodes_[head_].req.expert == e)
            remove(head_, out);
    }

    ExpertId
    nextBatchExpert() const
    {
        if (head_ == kNil)
            return kNoExpert;
        if (sloUrgent_ == 0)
            return nodes_[head_].req.expert;
        ExpertId best = kNoExpert;
        int bestPrio = 0;
        Time bestDl = kTimeNever;
        for (Idx i = head_; i != kNil; i = nodes_[i].next) {
            const Request &r = nodes_[i].req;
            const int prio = priorityOf(r.cls);
            if (best == kNoExpert ||
                moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
                best = r.expert;
                bestPrio = prio;
                bestDl = r.deadline;
            }
        }
        return best;
    }

    ExpertId
    prefetchExpert() const
    {
        if (sloUrgent_ == 0)
            return nextDistinctExpert();
        ExpertId best = kNoExpert, second = kNoExpert;
        int bestPrio = 0, secondPrio = 0;
        Time bestDl = kTimeNever, secondDl = kTimeNever;
        for (Idx i = head_; i != kNil; i = nodes_[i].next) {
            const Request &r = nodes_[i].req;
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
        }
        return second;
    }

    void
    popBatchFor(ExpertId e, int maxCount, std::vector<Request> &out)
    {
        out.clear();
        Idx start = head_;
        while (nodes_[start].req.expert != e)
            start = nodes_[start].next;
        if (sloUrgent_ > 0 && plainInserts_) {
            Idx urgent = start;
            int bestPrio = priorityOf(nodes_[start].req.cls);
            Time bestDl = nodes_[start].req.deadline;
            for (Idx i = nodes_[start].next; i != kNil;
                 i = nodes_[i].next) {
                const Request &r = nodes_[i].req;
                if (r.expert != e)
                    continue;
                const int prio = priorityOf(r.cls);
                if (moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
                    urgent = i;
                    bestPrio = prio;
                    bestDl = r.deadline;
                }
            }
            start = urgent;
            while (nodes_[start].prev != kNil &&
                   nodes_[nodes_[start].prev].req.expert == e)
                start = nodes_[start].prev;
        }
        Idx i = start;
        while (i != kNil &&
               out.size() < static_cast<std::size_t>(maxCount) &&
               nodes_[i].req.expert == e) {
            const Idx next = nodes_[i].next;
            remove(i, out);
            i = next;
        }
    }

    ExpertId
    nextDistinctExpert() const
    {
        if (head_ == kNil)
            return kNoExpert;
        const ExpertId head = nodes_[head_].req.expert;
        for (Idx i = nodes_[head_].next; i != kNil; i = nodes_[i].next) {
            if (nodes_[i].req.expert != head)
                return nodes_[i].req.expert;
        }
        return kNoExpert;
    }

    int
    stealFromTail(int maxCount, std::vector<Request> &out,
                  const RequestQueue::StealFilter &allow)
    {
        int stolen = 0;
        Idx cur = tail_;
        while (stolen < maxCount && cur != kNil && cur != head_) {
            const Idx prev = nodes_[cur].prev;
            if (!allow || allow(nodes_[cur].req)) {
                remove(cur, out);
                ++stolen;
            }
            cur = prev;
        }
        return stolen;
    }

    int
    drainAll(std::vector<Request> &out)
    {
        int drained = 0;
        for (; head_ != kNil; ++drained)
            remove(head_, out);
        return drained;
    }

    int
    countForExpert(ExpertId e) const
    {
        return static_cast<std::size_t>(e) < groups_.size()
                   ? groups_[e].count
                   : 0;
    }

    Time pendingWork() const { return pendingWork_; }

    std::vector<Request>
    snapshot() const
    {
        std::vector<Request> out;
        for (Idx i = head_; i != kNil; i = nodes_[i].next)
            out.push_back(nodes_[i].req);
        return out;
    }

  private:
    using Idx = std::int32_t;
    static constexpr Idx kNil = -1;

    struct Node
    {
        Request req;
        Time estimate = 0;
        Idx prev = kNil;
        Idx next = kNil;
    };

    struct GroupInfo
    {
        Idx last = kNil;
        int count = 0;
    };

    static bool
    moreUrgent(int prio, Time deadline, int thanPrio, Time thanDeadline)
    {
        return prio > thanPrio ||
               (prio == thanPrio && deadline < thanDeadline);
    }

    static bool
    urgent(const Request &r)
    {
        return r.deadline != kTimeNever || priorityOf(r.cls) != 0;
    }

    GroupInfo &
    groupFor(ExpertId e)
    {
        if (static_cast<std::size_t>(e) >= groups_.size())
            groups_.resize(static_cast<std::size_t>(e) + 1);
        return groups_[e];
    }

    Idx
    alloc(const Request &req, Time estimate)
    {
        nodes_.push_back(Node{req, estimate, kNil, kNil});
        return static_cast<Idx>(nodes_.size() - 1);
    }

    void
    linkAfter(Idx pos, Idx node)
    {
        Node &n = nodes_[node];
        n.prev = pos;
        n.next = pos == kNil ? head_ : nodes_[pos].next;
        if (n.next != kNil)
            nodes_[n.next].prev = node;
        else
            tail_ = node;
        if (pos == kNil)
            head_ = node;
        else
            nodes_[pos].next = node;
        ++size_;
        GroupInfo &info = groupFor(n.req.expert);
        info.last = node;
        info.count += 1;
        pendingWork_ += n.estimate;
        sloUrgent_ += urgent(n.req) ? 1 : 0;
    }

    /** Unlink @p node, moving its request onto @p out. */
    void
    remove(Idx node, std::vector<Request> &out)
    {
        Node &n = nodes_[node];
        GroupInfo &info = groups_[n.req.expert];
        if (info.count > 1 && info.last == node) {
            Idx p = n.prev;
            while (nodes_[p].req.expert != n.req.expert)
                p = nodes_[p].prev;
            info.last = p;
        }
        info.count -= 1;
        pendingWork_ -= n.estimate;
        sloUrgent_ -= urgent(n.req) ? 1 : 0;
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
        --size_;
        out.push_back(n.req);
    }

    std::vector<Node> nodes_;
    Idx head_ = kNil;
    Idx tail_ = kNil;
    std::size_t size_ = 0;
    std::vector<GroupInfo> groups_;
    Time pendingWork_ = 0;
    std::size_t sloUrgent_ = 0;
    bool plainInserts_ = false;
};

std::vector<RequestId>
idsOf(const std::vector<Request> &reqs)
{
    std::vector<RequestId> ids;
    ids.reserve(reqs.size());
    for (const Request &r : reqs)
        ids.push_back(r.id);
    return ids;
}

/** Shape of one seeded random operation sequence. */
struct DiffShape
{
    int experts;
    int ops;
    /** Pushes issued before the random sequence starts. */
    int prefill;
    /** Upper bound of a pop / steal count. */
    int maxTake;
    /** Share of pushes that are plain FIFO pushBack. */
    double plainShare;
    /** Share of requests carrying an SLO class and deadline. */
    double sloShare;
};

/**
 * Drive RequestQueue and ListQueue through one seeded random sequence
 * and compare every observable after every operation.
 */
void
runDifferential(std::uint64_t seed, const DiffShape &shape)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RequestQueue q;
    ListQueue model;
    RequestId nextId = 0;
    std::vector<Request> got, want;

    const auto push = [&] {
        Request r = makeReq(nextId++, static_cast<ExpertId>(rng.uniformInt(
                                          static_cast<std::uint64_t>(
                                              shape.experts))));
        if (rng.bernoulli(shape.sloShare)) {
            r.cls = static_cast<RequestClass>(rng.uniformInt(3));
            // Few distinct deadlines: ties exercise the strict order.
            r.deadline = static_cast<Time>(rng.uniformInt(4)) * 1000;
        }
        const Time estimate = static_cast<Time>(rng.uniformInt(100));
        if (rng.bernoulli(shape.plainShare)) {
            q.pushBack(r, estimate);
            model.pushBack(r, estimate);
        } else {
            q.pushGrouped(r, estimate);
            model.pushGrouped(r, estimate);
        }
    };
    const auto take = [&] {
        return 1 + static_cast<int>(rng.uniformInt(
                       static_cast<std::uint64_t>(shape.maxTake)));
    };
    const auto compare = [&](const char *op) {
        SCOPED_TRACE(op);
        ASSERT_EQ(idsOf(q.snapshot()), idsOf(model.snapshot()));
        ASSERT_EQ(q.size(), model.size());
        ASSERT_EQ(q.empty(), model.size() == 0);
        if (model.size() > 0) {
            ASSERT_EQ(q.headExpert(), model.headExpert());
        }
        ASSERT_EQ(q.nextBatchExpert(), model.nextBatchExpert());
        ASSERT_EQ(q.prefetchExpert(), model.prefetchExpert());
        ASSERT_EQ(q.nextDistinctExpert(), model.nextDistinctExpert());
        ASSERT_EQ(q.pendingWork(), model.pendingWork());
        for (int e = 0; e <= shape.experts; ++e) {
            ASSERT_EQ(q.countForExpert(e), model.countForExpert(e));
            ASSERT_EQ(q.containsExpert(e), model.countForExpert(e) > 0);
        }
    };

    for (int i = 0; i < shape.prefill; ++i)
        push();
    compare("prefill");
    for (int step = 0; step < shape.ops; ++step) {
        const std::uint64_t op = rng.uniformInt(10);
        if (op < 5 || model.size() == 0) {
            push();
            compare("push");
        } else if (op < 7) {
            const ExpertId e = model.nextBatchExpert();
            const int n = take();
            q.popBatchFor(e, n, got);
            model.popBatchFor(e, n, want);
            ASSERT_EQ(idsOf(got), idsOf(want));
            compare("popBatchFor");
        } else if (op == 7) {
            const int n = take();
            q.popBatchInto(n, got);
            model.popBatchInto(n, want);
            ASSERT_EQ(idsOf(got), idsOf(want));
            compare("popBatchInto");
        } else if (op == 8) {
            const int n = take();
            got.clear();
            want.clear();
            int gotCount = 0, wantCount = 0;
            switch (rng.uniformInt(3)) {
              case 0:
                gotCount = q.stealFromTail(n, got);
                wantCount = model.stealFromTail(n, want, nullptr);
                break;
              case 1: {
                  const ExpertId odd = static_cast<ExpertId>(
                      rng.uniformInt(2));
                  const auto parity = [odd](const Request &r) {
                      return r.expert % 2 == odd;
                  };
                  gotCount = q.stealFromTail(n, got, parity);
                  wantCount = model.stealFromTail(n, want, parity);
                  break;
              }
              default: {
                  // Stateful: accepts every third request it is shown
                  // and records the visit order.
                  std::vector<RequestId> gotSeen, wantSeen;
                  const auto every = [](std::vector<RequestId> &seen) {
                      return [&seen](const Request &r) {
                          seen.push_back(r.id);
                          return seen.size() % 3 == 0;
                      };
                  };
                  gotCount = q.stealFromTail(n, got, every(gotSeen));
                  wantCount =
                      model.stealFromTail(n, want, every(wantSeen));
                  ASSERT_EQ(gotSeen, wantSeen) << "filter visit order";
                  break;
              }
            }
            ASSERT_EQ(gotCount, wantCount);
            ASSERT_EQ(idsOf(got), idsOf(want));
            compare("stealFromTail");
        } else if (rng.bernoulli(0.2)) {
            got.clear();
            want.clear();
            ASSERT_EQ(q.drainAll(got), model.drainAll(want));
            ASSERT_EQ(idsOf(got), idsOf(want));
            compare("drainAll");
        } else {
            push();
            compare("push");
        }
    }
}

TEST(RequestQueueDifferential, GroupedClassless)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        runDifferential(seed, {8, 400, 0, 5, 0.0, 0.0});
}

TEST(RequestQueueDifferential, MixedInsertionWithSloTies)
{
    for (std::uint64_t seed = 1; seed <= 600; ++seed)
        runDifferential(seed, {6, 400, 0, 5, 0.4, 0.5});
}

TEST(RequestQueueDifferential, FifoOnlyWithSlo)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        runDifferential(seed, {3, 400, 0, 4, 1.0, 0.7});
}

TEST(RequestQueueDifferential, DeepQueueCrossesChunks)
{
    // A few hundred queued requests over few experts: runs span many
    // 16-entry chunks, and pops / steals of up to 40 cross them.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        runDifferential(seed, {4, 300, 400, 40, 0.0, 0.3});
        runDifferential(seed + 1000, {5, 300, 400, 40, 0.3, 0.3});
    }
}

TEST(RequestQueueDifferential, DeepGroupedSloManyExperts)
{
    // Deep grouped-only SLO queues: hundreds of requests over 80
    // experts, four distinct deadlines and three classes, so many
    // experts tie on their most urgent (priority, deadline) and the
    // urgency index's queue-position tie-break decides both the
    // winner and the runner-up.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (const double share : {0.3, 0.6, 0.9})
            runDifferential(seed + static_cast<std::uint64_t>(share * 1e4),
                            {80, 300, 400, 8, 0.0, share});
    }
}

TEST(RequestQueueDifferential, DeepMixedSloManyExperts)
{
    // As above with FIFO pushes mixed in: experts own several disjoint
    // runs, so index holders move through run merges and steal
    // rebuilds, and popBatchFor must find the holder's run.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (const double share : {0.3, 0.6, 0.9})
            runDifferential(seed + static_cast<std::uint64_t>(share * 1e4),
                            {64, 300, 400, 8, 0.4, share});
    }
}

TEST(CpuTierTest, InsertAndEvictLru)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 40 * kMB, 10);
    cache.insert(2, 40 * kMB, 20);
    cache.insert(3, 40 * kMB, 30); // evicts 1 (oldest)
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.evictions(), 1);
}

TEST(CpuTierTest, RefreshUpdatesRecency)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 40 * kMB, 10);
    cache.insert(2, 40 * kMB, 20);
    cache.refresh(1, 30);
    cache.insert(3, 40 * kMB, 40); // now 2 is oldest
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    cache.refresh(99, 50); // absent: no-op
}

TEST(CpuTierTest, DisabledTierIgnoresInserts)
{
    MemoryTier cache("c", 0, TierLevel::CpuDram);
    EXPECT_FALSE(cache.enabled());
    cache.insert(1, kMB, 0);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.holds(1));
    EXPECT_EQ(cache.usedBytes(), 0);
}

TEST(CpuTierTest, OversizedEntryIgnored)
{
    MemoryTier cache("c", 10 * kMB, TierLevel::CpuDram);
    cache.insert(1, 20 * kMB, 0);
    EXPECT_FALSE(cache.contains(1));
}

TEST(CpuTierTest, NonPositiveSizeRejected)
{
    MemoryTier cache("c", 10 * kMB, TierLevel::CpuDram);
    cache.insert(1, 0, 0);
    cache.insert(2, -5, 0);
    EXPECT_EQ(cache.count(), 0u);
    EXPECT_EQ(cache.usedBytes(), 0);
}

TEST(CpuTierTest, ReinsertUpdatesSizeWithoutDoubleCount)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 40 * kMB, 10);
    cache.insert(1, 40 * kMB, 20); // same size: recency only
    EXPECT_EQ(cache.usedBytes(), 40 * kMB);
    EXPECT_EQ(cache.entry(1).lastUse, 20);
    cache.insert(1, 60 * kMB, 30); // grew
    EXPECT_EQ(cache.usedBytes(), 60 * kMB);
    cache.insert(1, 10 * kMB, 40); // shrank
    EXPECT_EQ(cache.usedBytes(), 10 * kMB);
    EXPECT_EQ(cache.count(), 1u);
}

TEST(CpuTierTest, ReinsertGrowthEvictsOthersNotItself)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 30 * kMB, 10);
    cache.insert(2, 30 * kMB, 20);
    cache.insert(3, 30 * kMB, 30);
    cache.insert(3, 80 * kMB, 40); // growth forces out 1 and 2
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.entry(3).bytes, 80 * kMB);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_EQ(cache.usedBytes(), 80 * kMB);
}

TEST(CpuTierTest, EraseFreesBytes)
{
    MemoryTier cache("c", 100 * kMB, TierLevel::CpuDram);
    cache.insert(1, 40 * kMB, 0);
    cache.erase(1);
    EXPECT_EQ(cache.usedBytes(), 0);
    EXPECT_FALSE(cache.contains(1));
}

} // namespace
} // namespace coserve
