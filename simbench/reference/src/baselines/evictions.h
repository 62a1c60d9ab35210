/**
 * @file
 * Baseline eviction policies (paper Sections 2.2, 5.1).
 *
 * Samba-CoE evicts with LRU; the Samba-CoE FIFO baseline replaces it
 * with first-in-first-out. Both consider only historical information —
 * the inefficiency CoServe's two-stage policy addresses (Section 3.2).
 */

#ifndef COSERVE_BASELINES_EVICTIONS_H
#define COSERVE_BASELINES_EVICTIONS_H

#include "runtime/policies.h"

namespace coserve {

/** Least-recently-used eviction (Samba-CoE). */
class LruEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "lru"; }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override;
};

/** First-in-first-out eviction (Samba-CoE FIFO). */
class FifoEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "fifo"; }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override;
};

/**
 * Least-frequently-used eviction. Not a paper baseline; included as an
 * extended comparison point: LFU approximates the usage-probability
 * ordering *after* enough history accumulates, which demonstrates why
 * CoServe's pre-assessed probabilities win early (Section 3.2).
 */
class LfuEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "lfu"; }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override;
};

} // namespace coserve

#endif // COSERVE_BASELINES_EVICTIONS_H
