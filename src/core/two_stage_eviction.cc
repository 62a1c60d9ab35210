#include "core/two_stage_eviction.h"

#include "util/logging.h"

namespace coserve {

std::optional<ExpertId>
TwoStageEviction::selectVictim(const MemoryTier &pool,
                               const EvictionContext &ctx)
{
    COSERVE_CHECK(ctx.deps != nullptr && ctx.usage != nullptr,
                  "two-stage eviction needs dependency/usage context");
    const DependencyGraph &deps = *ctx.deps;
    const UsageProfile &usage = *ctx.usage;

    // Stage 1: subsequent experts without a resident preliminary,
    // largest footprint first.
    std::optional<ExpertId> stage1;
    std::int64_t stage1Bytes = -1;
    // Stage 2 fallback: lowest usage probability.
    std::optional<ExpertId> stage2;
    double stage2Prob = 0.0;

    for (const auto &[id, entry] : pool.entries()) {
        if (!evictable(entry, ctx))
            continue;
        // A preliminary that is loading counts as present: it will run
        // soon, and so may its subsequent expert.
        bool orphan = deps.isSubsequent(id);
        if (orphan) {
            for (const ExpertId pre : deps.preliminariesOf(id)) {
                if (pool.contains(pre)) {
                    orphan = false;
                    break;
                }
            }
        }
        if (orphan) {
            if (entry.bytes > stage1Bytes ||
                (entry.bytes == stage1Bytes && id < *stage1)) {
                stage1 = id;
                stage1Bytes = entry.bytes;
            }
            continue;
        }
        const double p = usage.probability(id);
        if (!stage2 || p < stage2Prob ||
            (p == stage2Prob && id < *stage2)) {
            stage2 = id;
            stage2Prob = p;
        }
    }
    return stage1 ? stage1 : stage2;
}

} // namespace coserve
