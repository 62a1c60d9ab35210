/**
 * @file
 * Unit tests for the eviction policies: LRU, FIFO, and CoServe's
 * two-stage dependency-aware strategy (paper Figure 10).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/evictions.h"
#include "coe/board_builder.h"
#include "coe/dependency.h"
#include "coe/usage.h"
#include "baselines/systems.h"
#include "core/coserve.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/engine.h"
#include "runtime/pool.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

/**
 * Model mirroring Figure 10: experts 0..3 preliminary, 4..5 subsequent.
 * Expert 4 depends on 0 and 1; expert 5 depends on 2.
 */
class EvictionFixture : public ::testing::Test
{
  protected:
    EvictionFixture()
        : model_(makeModel()), deps_(model_), usage_(makeUsage()),
          pool_("p", 1000 * kMB)
    {
        ctx_.deps = &deps_;
        ctx_.usage = &usage_;
        ctx_.allowSoftPinned = true;
    }

    /** Make @p e resident and report it, as the engine's preload does. */
    void
    insert(ExpertId e, std::int64_t bytes, std::uint64_t seq, Time now)
    {
        pool_.insertResident(e, bytes, seq, now);
        ts_.onPoolChange(pool_, e, true, ctx_);
    }

    static CoEModel
    makeModel()
    {
        std::vector<Expert> experts;
        for (int i = 0; i < 6; ++i) {
            Expert e;
            e.id = i;
            e.name = "e" + std::to_string(i);
            e.arch = i < 4 ? ArchId::ResNet101 : ArchId::YoloV5l;
            e.role = i < 4 ? ExpertRole::Preliminary
                           : ExpertRole::Subsequent;
            e.weightBytes = archSpec(e.arch).weightBytes;
            experts.push_back(e);
        }
        std::vector<ComponentType> comps(4);
        for (int i = 0; i < 4; ++i) {
            comps[i].id = i;
            comps[i].name = "c" + std::to_string(i);
            comps[i].classifier = i;
            comps[i].imageProb = 0.25;
            comps[i].defectProb = 0.0;
        }
        comps[0].detector = 4;
        comps[1].detector = 4;
        comps[2].detector = 5;
        return CoEModel("fig10", std::move(experts), std::move(comps));
    }

    static UsageProfile
    makeUsage()
    {
        // Usage: e0 high ... e3 low; detectors in between.
        return UsageProfile({0.30, 0.20, 0.15, 0.05, 0.20, 0.10});
    }

    CoEModel model_;
    DependencyGraph deps_;
    UsageProfile usage_;
    ModelPool pool_;
    EvictionContext ctx_;
    TwoStageEviction ts_;
};

TEST_F(EvictionFixture, LruPicksOldest)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, /*now=*/50);
    pool_.insertResident(1, 10 * kMB, 2, /*now=*/10);
    pool_.insertResident(2, 10 * kMB, 3, /*now=*/90);
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
}

TEST_F(EvictionFixture, LruSkipsPinned)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(1, 10 * kMB, 2, 50);
    pool_.pin(0);
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
    pool_.unpin(0);
}

TEST_F(EvictionFixture, LruHonorsSoftPinPerContext)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(1, 10 * kMB, 2, 50);
    pool_.softPin(0);
    ctx_.allowSoftPinned = false; // prefetch context
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
    ctx_.allowSoftPinned = true; // demand context may take it
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(0));
}

TEST_F(EvictionFixture, LruEmptyPoolReturnsNothing)
{
    LruEviction lru;
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::nullopt);
}

TEST_F(EvictionFixture, FifoPicksFirstLoaded)
{
    FifoEviction fifo;
    pool_.insertResident(0, 10 * kMB, /*seq=*/5, 99);
    pool_.insertResident(1, 10 * kMB, /*seq=*/2, 1);
    pool_.insertResident(2, 10 * kMB, /*seq=*/9, 50);
    EXPECT_EQ(fifo.selectVictim(pool_, ctx_),
              std::optional<ExpertId>(1));
}

TEST_F(EvictionFixture, TwoStagePrefersOrphanSubsequent)
{
    // Detector 5 depends on classifier 2 which is NOT resident ->
    // stage 1 victim, even though its usage beats classifier 3.
    insert(3, 10 * kMB, 1, 10); // low-usage preliminary
    insert(5, 20 * kMB, 2, 99); // orphan subsequent
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::optional<ExpertId>(5));
}

TEST_F(EvictionFixture, TwoStageKeepsSupportedSubsequent)
{
    // Detector 4's preliminary 0 is resident -> not an orphan; fall
    // back to stage 2 (lowest usage = expert 3).
    insert(0, 10 * kMB, 1, 10);
    insert(3, 10 * kMB, 2, 20);
    insert(4, 20 * kMB, 3, 30);
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
}

TEST_F(EvictionFixture, TwoStageOrphansByDescendingFootprint)
{
    // Both detectors orphaned: the larger one goes first (Figure 10
    // sorts stage-1 victims by descending memory footprint).
    insert(4, 30 * kMB, 1, 10);
    insert(5, 20 * kMB, 2, 10);
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::optional<ExpertId>(4));
}

TEST_F(EvictionFixture, TwoStageStageTwoByAscendingUsage)
{
    insert(0, 10 * kMB, 1, 10); // usage 0.30
    insert(1, 10 * kMB, 2, 99); // usage 0.20
    insert(2, 10 * kMB, 3, 50); // usage 0.15
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::optional<ExpertId>(2));
}

TEST_F(EvictionFixture, TwoStageRespectsPins)
{
    insert(5, 20 * kMB, 1, 10); // orphan subsequent
    pool_.pin(5);
    insert(3, 10 * kMB, 2, 20);
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
    pool_.unpin(5);
}

TEST_F(EvictionFixture, TwoStageNothingEvictable)
{
    insert(0, 10 * kMB, 1, 10);
    pool_.pin(0);
    EXPECT_EQ(ts_.selectVictim(pool_, ctx_), std::nullopt);
    pool_.unpin(0);
}

/**
 * Section 4.3 written out from the public DependencyGraph and
 * UsageProfile accessors: among the evictable entries, the orphaned
 * subsequent expert (no preliminary resident or loading) with the
 * largest footprint, smallest id on ties; failing that, the expert
 * with the lowest usage probability, smallest id on ties.
 */
bool
orphaned(const MemoryTier &pool, const DependencyGraph &deps, ExpertId id)
{
    bool orphan = deps.isSubsequent(id);
    for (ExpertId pre : deps.preliminariesOf(id))
        orphan = orphan && !pool.contains(pre);
    return orphan;
}

std::optional<ExpertId>
bruteForceTwoStage(const MemoryTier &pool, const EvictionContext &ctx)
{
    std::optional<ExpertId> orphan;
    std::optional<ExpertId> rare;
    for (const auto &[id, entry] : pool.entries()) {
        if (entry.loading || entry.pins > 0 ||
            (entry.softPinned && !ctx.allowSoftPinned))
            continue;
        if (orphaned(pool, *ctx.deps, id)) {
            const std::int64_t bytes = entry.bytes;
            if (!orphan || bytes > pool.entry(*orphan).bytes ||
                (bytes == pool.entry(*orphan).bytes && id < *orphan))
                orphan = id;
            continue;
        }
        const double p = ctx.usage->probability(id);
        if (!rare || p < ctx.usage->probability(*rare) ||
            (p == ctx.usage->probability(*rare) && id < *rare))
            rare = id;
    }
    return orphan ? orphan : rare;
}

TEST(TwoStageEvictionTest, MatchesBruteForceOnBoardA)
{
    // Random resident sets on board A's GPU tier (the CoServe GPU
    // executor's pool on the Table 1 NUMA device), with hard pins,
    // soft pins and in-flight loads; each set is drained victim by
    // victim under both soft-pin contexts.
    const DeviceSpec device = numaRtx3080Ti();
    const CoEModel model = buildBoard(boardA());
    const CoServeContext cs(device, model);
    const auto [minCount, maxCount] = gpuExpertCountBounds(cs, 1, 0);
    const EngineConfig cfg = coserveConfig(
        cs, coserveExecutorLayout(cs, 1, 0, (minCount + maxCount) / 2),
        "test");
    std::int64_t gpuBytes = 0;
    for (const ExecutorConfig &e : cfg.executors) {
        if (e.kind == ProcKind::GPU)
            gpuBytes = e.poolBytes;
    }
    ASSERT_GT(gpuBytes, 0);
    const DependencyGraph deps(model);
    const UsageProfile usage = UsageProfile::exact(model);
    EvictionContext ctx;
    ctx.deps = &deps;
    ctx.usage = &usage;

    Rng rng(29);
    int stage1 = 0;
    int stage2 = 0;
    for (int trial = 0; trial < 200; ++trial) {
        // A fresh pool each trial, so a fresh index too.
        ModelPool pool("gpu.pool", gpuBytes);
        TwoStageEviction policy;
        // Half the sets pull in a preliminary beside each subsequent
        // expert, so both stages get exercised.
        const bool supported = rng.bernoulli(0.5);
        const auto place = [&](ExpertId e) {
            const std::int64_t bytes =
                cs.footprint().expertBytes(model.expert(e).arch);
            if (pool.contains(e) || bytes > pool.freeBytes())
                return;
            const auto seq = static_cast<std::uint64_t>(pool.count());
            if (rng.bernoulli(0.1)) {
                pool.beginLoad(e, bytes, seq);
                policy.onPoolChange(pool, e, true, ctx);
                if (rng.bernoulli(0.5))
                    pool.unpin(e); // loading but unpinned
                return;
            }
            pool.insertResident(e, bytes, seq, 0);
            policy.onPoolChange(pool, e, true, ctx);
            if (rng.bernoulli(0.1))
                pool.pin(e);
            if (rng.bernoulli(0.2))
                pool.softPin(e);
        };
        const std::uint64_t draws = 1 + rng.uniformInt(40);
        for (std::uint64_t k = 0; k < draws; ++k) {
            const auto e = static_cast<ExpertId>(
                rng.uniformInt(model.numExperts()));
            place(e);
            if (supported && deps.isSubsequent(e)) {
                const auto &pre = deps.preliminariesOf(e);
                place(pre[rng.uniformInt(pre.size())]);
            }
        }
        for (;;) {
            ctx.allowSoftPinned = false;
            EXPECT_EQ(policy.selectVictim(pool, ctx),
                      bruteForceTwoStage(pool, ctx));
            ctx.allowSoftPinned = true;
            const std::optional<ExpertId> victim =
                bruteForceTwoStage(pool, ctx);
            ASSERT_EQ(policy.selectVictim(pool, ctx), victim)
                << "trial " << trial;
            if (!victim)
                break;
            (orphaned(pool, deps, *victim) ? stage1 : stage2) += 1;
            pool.erase(*victim);
            policy.onPoolChange(pool, *victim, false, ctx);
        }
    }
    // Both stages won often enough for the comparison to mean
    // something.
    EXPECT_GT(stage1, 100);
    EXPECT_GT(stage2, 100);
}

TEST(TwoStageEvictionTest, TracksOrphanTransitions)
{
    // Random load / finish / evict walks over a few subsequent experts
    // of board A and some of their preliminaries: a resident subsequent
    // expert turns orphan when its last preliminary leaves and is
    // supported again when one comes back, sometimes by a load still in
    // flight, which counts as present. Every step is reported and
    // checked against the full scan under both soft-pin contexts.
    const CoEModel model = buildBoard(boardA());
    const DependencyGraph deps(model);
    const UsageProfile usage = UsageProfile::exact(model);
    EvictionContext ctx;
    ctx.deps = &deps;
    ctx.usage = &usage;
    std::vector<ExpertId> subsequents;
    for (ExpertId e = 0; e < static_cast<ExpertId>(model.numExperts());
         ++e) {
        if (deps.isSubsequent(e))
            subsequents.push_back(e);
    }
    ASSERT_FALSE(subsequents.empty());

    // Resident subsequent experts of the cast that have no preliminary
    // present; and those whose only present preliminaries are loading.
    const auto orphans = [&](const MemoryTier &pool,
                             const std::vector<ExpertId> &cast) {
        std::vector<ExpertId> out;
        for (ExpertId e : cast) {
            if (pool.resident(e) && orphaned(pool, deps, e))
                out.push_back(e);
        }
        return out;
    };
    const auto loadingOnly = [&](const MemoryTier &pool, ExpertId e) {
        bool any = false;
        for (ExpertId pre : deps.preliminariesOf(e)) {
            if (pool.resident(pre))
                return false;
            any = any || pool.loading(pre);
        }
        return any;
    };

    Rng rng(31);
    int turnedOrphan = 0;
    int supportedAgain = 0;
    int heldByLoad = 0;
    for (int walk = 0; walk < 40; ++walk) {
        ModelPool pool("gpu.pool", 1ll << 40);
        TwoStageEviction policy;
        std::vector<ExpertId> cast;
        for (int k = 0; k < 3; ++k) {
            const ExpertId sub =
                subsequents[rng.uniformInt(subsequents.size())];
            cast.push_back(sub);
            const auto &pre = deps.preliminariesOf(sub);
            for (int i = 0; i < 2 && pre.size() > 0; ++i)
                cast.push_back(pre[rng.uniformInt(pre.size())]);
        }
        std::uint64_t seq = 0;
        for (int step = 0; step < 150; ++step) {
            const std::vector<ExpertId> before = orphans(pool, cast);
            const ExpertId e = cast[rng.uniformInt(cast.size())];
            const TierEntry *entry = pool.find(e);
            if (entry == nullptr) {
                const std::int64_t bytes = model.expert(e).weightBytes;
                if (rng.bernoulli(0.4))
                    pool.beginLoad(e, bytes, ++seq);
                else
                    pool.insertResident(e, bytes, ++seq, step);
                policy.onPoolChange(pool, e, true, ctx);
            } else if (entry->loading) {
                pool.finishLoad(e, step);
            } else if (rng.bernoulli(0.2)) {
                if (entry->softPinned)
                    pool.softUnpin(e);
                else
                    pool.softPin(e);
            } else {
                pool.erase(e);
                policy.onPoolChange(pool, e, false, ctx);
            }
            const std::vector<ExpertId> after = orphans(pool, cast);
            for (ExpertId sub : after) {
                if (sub != e && std::find(before.begin(), before.end(),
                                          sub) == before.end())
                    turnedOrphan += 1;
            }
            for (ExpertId sub : before) {
                if (pool.resident(sub) &&
                    std::find(after.begin(), after.end(), sub) ==
                        after.end()) {
                    supportedAgain += 1;
                    if (loadingOnly(pool, sub))
                        heldByLoad += 1;
                }
            }
            for (const bool soft : {false, true}) {
                ctx.allowSoftPinned = soft;
                ASSERT_EQ(policy.selectVictim(pool, ctx),
                          bruteForceTwoStage(pool, ctx))
                    << "walk " << walk << " step " << step;
            }
        }
    }
    EXPECT_GT(turnedOrphan, 150);
    EXPECT_GT(supportedAgain, 150);
    EXPECT_GT(heldByLoad, 60);
}

using TwoStageEvictionDeathTest = EvictionFixture;

TEST_F(TwoStageEvictionDeathTest, UnreportedChangeDiesNamingThePool)
{
    // A membership change that skips onPoolChange must stop the
    // selection, never steer it.
    ModelPool pool("gpu.pool", 1000 * kMB);
    TwoStageEviction ts;
    pool.insertResident(0, 10 * kMB, 1, 0);
    ts.onPoolChange(pool, 0, true, ctx_);
    pool.insertResident(3, 10 * kMB, 2, 0); // unreported arrival
    EXPECT_DEATH(ts.selectVictim(pool, ctx_),
                 "pool gpu\\.pool holds 2 experts after 2 insertions but "
                 "reported 1 after 1");
    ts.onPoolChange(pool, 3, true, ctx_);
    EXPECT_EQ(ts.selectVictim(pool, ctx_), std::optional<ExpertId>(3));

    pool.erase(0); // unreported departure
    EXPECT_DEATH(ts.selectVictim(pool, ctx_),
                 "pool gpu\\.pool holds 1 experts after 2 insertions but "
                 "reported 2 after 2");
    ts.onPoolChange(pool, 0, false, ctx_);

    // Departure and arrival both unreported: the count agrees again,
    // and the index's walk would return expert 1 (usage 0.20), though
    // the newcomer, expert 2 (0.15), is rarer. The insertion counter
    // catches it.
    pool.erase(3);
    ts.onPoolChange(pool, 3, false, ctx_);
    pool.insertResident(0, 10 * kMB, 3, 0);
    ts.onPoolChange(pool, 0, true, ctx_);
    pool.insertResident(1, 10 * kMB, 4, 0);
    ts.onPoolChange(pool, 1, true, ctx_);
    pool.erase(0);
    pool.insertResident(2, 10 * kMB, 5, 0);
    EXPECT_DEATH(ts.selectVictim(pool, ctx_),
                 "pool gpu\\.pool holds 2 experts after 5 insertions but "
                 "reported 2 after 4");

    // A late report of one change cannot cover for the other.
    EXPECT_DEATH(ts.onPoolChange(pool, 0, false, ctx_),
                 "pool gpu\\.pool holds 2 experts after 5 insertions but "
                 "reported 1 after 4");

    // A report that does not match the pool dies at the report.
    EXPECT_DEATH(ts.onPoolChange(pool, 5, true, ctx_),
                 "pool gpu\\.pool reported expert 5 entering out of step");
}

/**
 * Forwards every call to a TwoStageEviction and checks each selection
 * the engine asks for, under both soft-pin contexts, against the full
 * scan over the live pool; counts the victims of each stage.
 */
class CheckedTwoStage : public EvictionPolicy
{
  public:
    const char *name() const override { return inner_.name(); }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override
    {
        EvictionContext other = ctx;
        other.allowSoftPinned = !ctx.allowSoftPinned;
        EXPECT_EQ(inner_.selectVictim(pool, other),
                  bruteForceTwoStage(pool, other));
        const std::optional<ExpertId> victim =
            inner_.selectVictim(pool, ctx);
        EXPECT_EQ(victim, bruteForceTwoStage(pool, ctx));
        if (victim)
            (orphaned(pool, *ctx.deps, *victim) ? stage1 : stage2) += 1;
        return victim;
    }

    void
    onPoolChange(const MemoryTier &pool, ExpertId e, bool entered,
                 const EvictionContext &ctx) override
    {
        inner_.onPoolChange(pool, e, entered, ctx);
    }

    int stage1 = 0;
    int stage2 = 0;

  private:
    TwoStageEviction inner_;
};

TEST(TwoStageEvictionTest, EngineVictimsMatchBruteForce)
{
    // Board A's CoServe-Casual engine with one GPU executor on a Task
    // A2 trace: the GPU and CPU executor pools evict all run long, each
    // through its own index, and every pool change reaches the policy
    // only through the engine's reports (preload, load starts,
    // evictions).
    const CoEModel model = buildBoard(boardA());
    Harness harness(numaRtx3080Ti(), model);
    const CoServeContext &cs = harness.context();
    TaskSpec task = taskA2();
    task.numImages = 3000;
    const Trace trace = generateTrace(model, task);
    SystemOverrides ov;
    ov.gpuExecutors = 1;
    auto policy = std::make_unique<CheckedTwoStage>();
    const CheckedTwoStage &checked = *policy;
    ServingEngine engine(
        harness.makeConfig(SystemKind::CoServeCasual, trace, ov), model,
        cs.truth(), cs.footprint(), cs.usage(),
        std::make_unique<DependencyAwareScheduler>(&cs.perf()),
        std::move(policy));
    const RunResult result = engine.run(trace);
    EXPECT_EQ(result.images, 3000);
    EXPECT_GT(checked.stage1, 25);
    EXPECT_GT(checked.stage2, 150);
}

TEST_F(EvictionFixture, PolicyNames)
{
    EXPECT_STREQ(LruEviction().name(), "lru");
    EXPECT_STREQ(FifoEviction().name(), "fifo");
    EXPECT_STREQ(TwoStageEviction().name(), "two-stage");
}

} // namespace
} // namespace coserve
