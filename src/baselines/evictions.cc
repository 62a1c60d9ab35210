#include "baselines/evictions.h"

namespace coserve {

std::optional<ExpertId>
LruEviction::selectVictim(const MemoryTier &pool,
                          const EvictionContext &ctx)
{
    std::optional<ExpertId> victim;
    Time oldest = kTimeNever;
    for (const auto &[id, entry] : pool.entries()) {
        if (!evictable(entry, ctx))
            continue;
        if (entry.lastUse < oldest ||
            (entry.lastUse == oldest && (!victim || id < *victim))) {
            victim = id;
            oldest = entry.lastUse;
        }
    }
    return victim;
}

std::optional<ExpertId>
FifoEviction::selectVictim(const MemoryTier &pool,
                           const EvictionContext &ctx)
{
    std::optional<ExpertId> victim;
    std::uint64_t oldestSeq = UINT64_MAX;
    for (const auto &[id, entry] : pool.entries()) {
        if (!evictable(entry, ctx))
            continue;
        // Pool loads carry unique load sequence numbers; ties (e.g.
        // cache-tier admissions, all loadSeq 0) are broken by id.
        if (entry.loadSeq < oldestSeq ||
            (entry.loadSeq == oldestSeq && (!victim || id < *victim))) {
            victim = id;
            oldestSeq = entry.loadSeq;
        }
    }
    return victim;
}

} // namespace coserve
