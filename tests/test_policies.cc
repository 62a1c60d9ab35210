/**
 * @file
 * Unit tests for the eviction policies: LRU, FIFO, and CoServe's
 * two-stage dependency-aware strategy (paper Figure 10).
 */

#include <gtest/gtest.h>

#include "baselines/evictions.h"
#include "coe/board_builder.h"
#include "coe/dependency.h"
#include "coe/usage.h"
#include "core/coserve.h"
#include "core/two_stage_eviction.h"
#include "runtime/pool.h"
#include "util/rng.h"

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
        ctx_.model = &model_;
        ctx_.deps = &deps_;
        ctx_.usage = &usage_;
        ctx_.now = 100;
        ctx_.allowSoftPinned = true;
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
    TwoStageEviction ts;
    pool_.insertResident(3, 10 * kMB, 1, 10); // low-usage preliminary
    pool_.insertResident(5, 20 * kMB, 2, 99); // orphan subsequent
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(5));
}

TEST_F(EvictionFixture, TwoStageKeepsSupportedSubsequent)
{
    // Detector 4's preliminary 0 is resident -> not an orphan; fall
    // back to stage 2 (lowest usage = expert 3).
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(3, 10 * kMB, 2, 20);
    pool_.insertResident(4, 20 * kMB, 3, 30);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
}

TEST_F(EvictionFixture, TwoStageOrphansByDescendingFootprint)
{
    // Both detectors orphaned: the larger one goes first (Figure 10
    // sorts stage-1 victims by descending memory footprint).
    TwoStageEviction ts;
    pool_.insertResident(4, 30 * kMB, 1, 10);
    pool_.insertResident(5, 20 * kMB, 2, 10);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(4));
}

TEST_F(EvictionFixture, TwoStageStageTwoByAscendingUsage)
{
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10); // usage 0.30
    pool_.insertResident(1, 10 * kMB, 2, 99); // usage 0.20
    pool_.insertResident(2, 10 * kMB, 3, 50); // usage 0.15
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(2));
}

TEST_F(EvictionFixture, TwoStageRespectsPins)
{
    TwoStageEviction ts;
    pool_.insertResident(5, 20 * kMB, 1, 10); // orphan subsequent
    pool_.pin(5);
    pool_.insertResident(3, 10 * kMB, 2, 20);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
    pool_.unpin(5);
}

TEST_F(EvictionFixture, TwoStageNothingEvictable)
{
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.pin(0);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::nullopt);
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
    ctx.model = &model;
    ctx.deps = &deps;
    ctx.usage = &usage;

    Rng rng(29);
    TwoStageEviction policy;
    int stage1 = 0;
    int stage2 = 0;
    for (int trial = 0; trial < 200; ++trial) {
        ModelPool pool("gpu.pool", gpuBytes);
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
                if (rng.bernoulli(0.5))
                    pool.unpin(e); // loading but unpinned
                return;
            }
            pool.insertResident(e, bytes, seq, 0);
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
        }
    }
    // Both stages won often enough for the comparison to mean
    // something.
    EXPECT_GT(stage1, 100);
    EXPECT_GT(stage2, 100);
}

TEST_F(EvictionFixture, PolicyNames)
{
    EXPECT_STREQ(LruEviction().name(), "lru");
    EXPECT_STREQ(FifoEviction().name(), "fifo");
    EXPECT_STREQ(TwoStageEviction().name(), "two-stage");
}

} // namespace
} // namespace coserve
