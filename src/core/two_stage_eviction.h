/**
 * @file
 * Dependency-aware expert management (paper Section 4.3, Figure 10).
 *
 * Two-stage eviction:
 *  - Stage 1: evict *subsequent* (detection) experts none of whose
 *    preliminary (classification) experts is resident in the same pool
 *    — they cannot run until a preliminary expert is loaded first, so
 *    keeping them is wasted memory. Victims are taken in descending
 *    memory-footprint order to minimize the number of evictions.
 *  - Stage 2: evict remaining experts in ascending pre-assessed usage
 *    probability, keeping the most likely experts resident.
 *
 * Ties go to the smaller expert id in both stages, so the victim does
 * not depend on the pool's entry order.
 *
 * A selection reads an index of the pool, not the whole pool. The
 * index holds the pool's members (resident or loading) twice: as bits
 * over a fixed stage-2 rank — every expert of the model ordered by
 * usage probability ascending, then id ascending, built once from the
 * UsageProfile — and as the short list of members that are subsequent
 * experts. The pool's owner keeps it current through
 * EvictionPolicy::onPoolChange. Stage 1 runs the orphan test over the
 * listed subsequent experts only; an orphan must be one of them.
 * Stage 2 returns the first evictable member in rank order, which is
 * the stage-2 minimum of the whole pool: stage 2 runs only when stage
 * 1 found no evictable orphan, so every evictable member it reaches is
 * a stage-2 candidate. The victim is therefore the one a scan of every
 * entry would pick.
 *
 * Each report and each selection checks that the index holds exactly
 * the pool's count and has seen exactly the pool's insertions
 * (TierCounters::insertions). An unreported arrival moves the
 * insertion counter and an unreported departure alone moves the
 * count, so a pool changed behind the index's back dies naming the
 * pool and never steers a selection.
 */

#ifndef COSERVE_CORE_TWO_STAGE_EVICTION_H
#define COSERVE_CORE_TWO_STAGE_EVICTION_H

#include <cstdint>
#include <vector>

#include "runtime/policies.h"

namespace coserve {

/** CoServe's two-stage, dependency-aware eviction policy. */
class TwoStageEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "two-stage"; }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override;

    void onPoolChange(const MemoryTier &pool, ExpertId e, bool entered,
                      const EvictionContext &ctx) override;

  private:
    /** The reported members of one pool. */
    struct PoolIndex
    {
        const MemoryTier *pool = nullptr;
        std::size_t count = 0;
        /** The pool's insertion counter after the last report. */
        std::int64_t insertions = 0;
        /** Bit r set: the expert of stage-2 rank r is a member. */
        std::vector<std::uint64_t> ranked;
        /** Members that are subsequent experts, in no order. */
        std::vector<ExpertId> subsequents;
    };

    /**
     * Build the rank from @p ctx on first use; later contexts must
     * name the same dependency graph and usage profile.
     */
    void bind(const EvictionContext &ctx);

    /** @return the index of @p pool, empty on first sight. */
    PoolIndex &indexOf(const MemoryTier &pool);

    /** Die unless @p index accounts for every change of @p pool. */
    static void checkInStep(const PoolIndex &index,
                            const MemoryTier &pool);

    const DependencyGraph *deps_ = nullptr;
    const UsageProfile *usage_ = nullptr;
    /** Expert ids by ascending usage probability, then ascending id. */
    std::vector<ExpertId> byRank_;
    /** Expert id -> its position in byRank_. */
    std::vector<std::uint32_t> rankOf_;
    /** One index per pool seen so far: an engine's executor pools. */
    std::vector<PoolIndex> pools_;
};

} // namespace coserve

#endif // COSERVE_CORE_TWO_STAGE_EVICTION_H
