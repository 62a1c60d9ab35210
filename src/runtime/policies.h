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
 * Context handed to eviction policies: the model's dependency graph
 * and usage profile, and the soft-pin rule of the load being served.
 * Only the engine's executor pools consult a policy; a cache tier's
 * self-eviction (MemoryTier::makeRoom) runs its own LRU scan.
 */
struct EvictionContext
{
    const DependencyGraph *deps = nullptr;
    const UsageProfile *usage = nullptr;
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

    /**
     * Membership change of an executor pool: @p e has just entered
     * @p pool (@p entered: beginLoad or insertResident) or just left it
     * (evict or erase). The contract: whoever changes the membership of
     * a pool this policy selects from reports every such change, one
     * call per change, right after making it and before the next
     * selection, with the dependency graph and usage profile of later
     * selections. The engine does so in startLoad (each eviction and
     * each load start) and in preload. Pin, soft-pin, touch and
     * finishLoad change no membership and go unreported. A policy that
     * keeps state per pool (TwoStageEviction) maintains it here and may
     * die on a change it was not told of; the default ignores the
     * report, since LRU and FIFO read the pool itself.
     */
    virtual void
    onPoolChange(const MemoryTier &pool, ExpertId e, bool entered,
                 const EvictionContext &ctx)
    {
        (void)pool;
        (void)e;
        (void)entered;
        (void)ctx;
    }

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
