#include "baselines/evictions.h"

namespace coserve {

std::optional<ExpertId>
LruEviction::selectVictim(const MemoryTier &pool,
                          const EvictionContext &ctx)
{
    std::optional<ExpertId> victim;
    Time oldest = kTimeNever;
    // detlint:allow(unordered-iter) full-order selection (lastUse, then id) is independent of visit order
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
LfuEviction::selectVictim(const MemoryTier &pool,
                          const EvictionContext &ctx)
{
    std::optional<ExpertId> victim;
    std::int64_t fewest = INT64_MAX;
    Time oldest = kTimeNever;
    // detlint:allow(unordered-iter) full-order selection (uses, lastUse, then id) is independent of visit order
    for (const auto &[id, entry] : pool.entries()) {
        if (!evictable(entry, ctx))
            continue;
        // Ties broken by recency, then id, for determinism.
        if (entry.uses < fewest ||
            (entry.uses == fewest && entry.lastUse < oldest) ||
            (entry.uses == fewest && entry.lastUse == oldest &&
             (!victim || id < *victim))) {
            victim = id;
            fewest = entry.uses;
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
    // detlint:allow(unordered-iter) loadSeq is a unique monotonic counter, so the minimum never ties
    for (const auto &[id, entry] : pool.entries()) {
        if (!evictable(entry, ctx))
            continue;
        if (entry.loadSeq < oldestSeq) {
            victim = id;
            oldestSeq = entry.loadSeq;
        }
    }
    return victim;
}

} // namespace coserve
