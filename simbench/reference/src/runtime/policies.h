/**
 * @file
 * Policy interfaces of the serving runtime.
 *
 * The engine is policy-agnostic: baselines (Samba-CoE's FCFS + LRU,
 * FIFO variants) and CoServe's dependency-aware techniques plug in
 * through these two interfaces.
 */

#ifndef COSERVE_RUNTIME_POLICIES_H
#define COSERVE_RUNTIME_POLICIES_H

#include <optional>

#include "coe/dependency.h"
#include "coe/usage.h"
#include "runtime/memory_tier.h"
#include "workload/request.h"

namespace coserve {

class ServingEngine;

/**
 * Context handed to eviction policies. When a policy drives a tier's
 * cache-style self-eviction (MemoryTier::insert making room), only
 * @ref now is populated — model / dependency / usage information is an
 * engine-level concern.
 */
struct EvictionContext
{
    const CoEModel *model = nullptr;
    const DependencyGraph *deps = nullptr;
    const UsageProfile *usage = nullptr;
    Time now = 0;
    /**
     * Demand loads may cannibalize soft-pinned (prefetched) experts;
     * prefetch loads may not.
     */
    bool allowSoftPinned = true;
};

/** Chooses which resident expert to evict next from a memory tier. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** @return display name for reports. */
    virtual const char *name() const = 0;

    /**
     * Select one victim among evictable tier entries (resident, not
     * hard-pinned, soft-pin honored per @p ctx). Called repeatedly
     * until enough bytes are free.
     *
     * @return the victim, or nullopt when nothing is evictable.
     */
    virtual std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx) = 0;

  protected:
    /** @return true when @p entry may be evicted under @p ctx. */
    static bool
    evictable(const TierEntry &entry, const EvictionContext &ctx)
    {
        if (entry.loading || entry.pins > 0)
            return false;
        if (entry.softPinned && !ctx.allowSoftPinned)
            return false;
        return true;
    }
};

/** Routes each arriving request to exactly one executor queue. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** @return display name for reports. */
    virtual const char *name() const = 0;

    /**
     * Deliver @p req to one executor by calling
     * ServingEngine::enqueue(executor, req, grouped, estimate).
     */
    virtual void dispatch(ServingEngine &engine, const Request &req) = 0;

    /** Clear any internal state before a fresh run. */
    virtual void reset() {}
};

} // namespace coserve

#endif // COSERVE_RUNTIME_POLICIES_H
