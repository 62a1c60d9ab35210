/**
 * @file
 * Unified memory-tier hierarchy of the serving runtime.
 *
 * CoServe manages expert residency across three storage levels: GPU
 * memory (executor pools), CPU DRAM (executor pools on CPU, plus the
 * Samba-CoE cache tier of Section 2.2 / 5.1) and the SSD that holds
 * every expert persistently. This header models all of them with one
 * abstraction:
 *
 *   MemoryTier      byte-capacity set of experts with pin state, LRU /
 *                   FIFO / LFU bookkeeping fields, per-tier hit / miss /
 *                   eviction counters, built-in LRU self-eviction for
 *                   the cache role, and a link to the tier below;
 *   DiskTier        the unbounded bottom of the hierarchy — holds every
 *                   expert, admissions are free (weights already
 *                   persist on disk);
 *   SharedCpuTier   a mutex-guarded CPU DRAM tier owned by a cluster
 *                   and shared by all replicas, so an expert demoted by
 *                   one replica is a DRAM hit for its siblings.
 *
 * Tiers link downward through the TierBelow interface: evicting an
 * expert from a tier demotes it into the tier below (GPU -> CPU DRAM ->
 * disk) instead of the engine special-casing each level. ModelPool
 * (runtime/pool.h) is an alias of MemoryTier; the former LruByteCache
 * (runtime/cpu_cache.h) is now simply a CPU-DRAM MemoryTier instance.
 */

#ifndef COSERVE_RUNTIME_MEMORY_TIER_H
#define COSERVE_RUNTIME_MEMORY_TIER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/run_result.h"
#include "model/expert.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace coserve {

/** Storage level of a tier, top to bottom. */
enum class TierLevel
{
    Gpu,
    CpuDram,
    Disk,
};

/** Display name ("gpu", "cpu-dram", "disk"). */
const char *toString(TierLevel level);

/** Bookkeeping for one expert resident in a tier. */
struct TierEntry
{
    std::int64_t bytes = 0;
    /** Completion time of the last batch (or admission) that used it. */
    Time lastUse = 0;
    /** Number of times the expert was touched (LFU bookkeeping). */
    std::int64_t uses = 0;
    /** Monotonic load sequence number (FIFO eviction order). */
    std::uint64_t loadSeq = 0;
    /** Hard pin count (executing / loading). */
    int pins = 0;
    /** True while the load transfer is still in flight. */
    bool loading = false;
    /** Soft (prefetch) pin. */
    bool softPinned = false;
};

/**
 * What an upper tier (or the engine) may do to the tier below it:
 * look experts up, demote (admit) evicted experts into it, warm it
 * during preload, refresh recency, and account hits / misses observed
 * against it. Implemented by MemoryTier, DiskTier and SharedCpuTier;
 * the shared implementation serializes every call on a mutex.
 */
class TierBelow
{
  public:
    virtual ~TierBelow() = default;

    /** @return diagnostic name, e.g. "cpu.cache". */
    virtual const std::string &name() const = 0;

    /** @return storage level of this tier. */
    virtual TierLevel level() const = 0;

    /** @return false when the tier is configured off (capacity 0). */
    virtual bool enabled() const = 0;

    /** @return true when @p e is resident (and the tier is enabled). */
    virtual bool holds(ExpertId e) const = 0;

    /**
     * Admit @p e (a demotion from above, or a deserialized SSD load
     * passing through DRAM), evicting residents to make room as
     * needed. @return true when @p e is resident after the call.
     */
    virtual bool admit(ExpertId e, std::int64_t bytes, Time now) = 0;

    /**
     * Admit @p e only when it fits the free space (preload warming —
     * never evicts). @return false when it did not fit.
     */
    virtual bool warm(ExpertId e, std::int64_t bytes) = 0;

    /** Refresh recency of @p e; no-op when absent. */
    virtual void refresh(ExpertId e, Time now) = 0;

    /**
     * Combined residency lookup and hit accounting: when @p e is
     * resident, count a hit, refresh its recency and return true.
     * Absence returns false *without* counting a miss — the caller may
     * still satisfy the load elsewhere (e.g. a CPU executor pool) and
     * decides the miss accounting itself. Equivalent to
     * holds + noteHit + refresh, but a shared tier serializes it under
     * one lock acquisition instead of three, and the result is one
     * consistent snapshot even when sibling replicas mutate the tier
     * concurrently.
     */
    virtual bool
    lookupAndTouch(ExpertId e, Time now)
    {
        if (!holds(e))
            return false;
        noteHit();
        refresh(e, now);
        return true;
    }

    /** Record an access served by this tier. */
    virtual void noteHit() = 0;

    /** Record an access this tier could not serve. */
    virtual void noteMiss() = 0;

    /** @return counter / occupancy snapshot for metrics. */
    virtual TierStats stats() const = 0;
};

/**
 * Byte-capacity-bounded expert residency set: one level of the memory
 * hierarchy. Serves two roles with one state machine:
 *
 *  - *executor pool* (ModelPool): the engine drives loads explicitly
 *    (beginLoad / finishLoad / insertResident), picks eviction victims
 *    through its configured EvictionPolicy, and calls evict() — which
 *    demotes the victim into the linked tier below;
 *  - *cache tier*: admissions go through insert() / admit(), which
 *    makes room by self-evicting the least recently used entry,
 *    cascading spills into the tier below.
 *
 * Pins protect experts the executor is about to use:
 *  - hard pins: the expert is executing or being loaded — never evict;
 *  - soft pins: the expert was prefetched for an upcoming batch —
 *    evictable only by a demand load that cannot proceed otherwise.
 */
class MemoryTier : public TierBelow
{
  public:
    /**
     * @param name diagnostic name, e.g. "gpu.pool".
     * @param capacityBytes maximum resident expert bytes; 0 disables
     *        the tier entirely (cache-tier off).
     * @param level storage level (diagnostic; defaults to GPU, the
     *        historical ModelPool role).
     */
    MemoryTier(std::string name, std::int64_t capacityBytes,
               TierLevel level = TierLevel::Gpu);

    MemoryTier(const MemoryTier &) = delete;
    MemoryTier &operator=(const MemoryTier &) = delete;

    // ----- hierarchy ------------------------------------------------

    /** Link the tier evictions demote into (not owned; may be null). */
    void linkBelow(TierBelow *below) { below_ = below; }

    /** @return the linked tier below, or null. */
    TierBelow *below() const { return below_; }

    /**
     * Evict resident, unpinned @p e, demoting it into the tier below
     * when one is linked and enabled.
     *
     * @return true when the tier below actually admitted the expert
     *         (vs. dropped — no below tier, or its admit rejected).
     */
    bool evict(ExpertId e, Time now);

    // ----- pool API (ModelPool) -------------------------------------

    /**
     * @return entry for @p e, or null when @p e is neither resident
     *         nor loading. Invalidated by the next insert or erase.
     */
    const TierEntry *
    find(ExpertId e) const
    {
        const auto id = static_cast<std::size_t>(e);
        if (id >= slots_.size() || slots_[id] < 0)
            return nullptr;
        return &entries_[static_cast<std::size_t>(slots_[id])].second;
    }

    /** @return true when @p e is resident or loading. */
    bool contains(ExpertId e) const { return find(e) != nullptr; }

    /** @return true when @p e is resident and ready to execute. */
    bool
    resident(ExpertId e) const
    {
        const TierEntry *entry = find(e);
        return entry != nullptr && !entry->loading;
    }

    /** @return true when @p e has a load in flight. */
    bool
    loading(ExpertId e) const
    {
        const TierEntry *entry = find(e);
        return entry != nullptr && entry->loading;
    }

    /** Reserve space and mark @p e loading. Space must be available. */
    void beginLoad(ExpertId e, std::int64_t bytes, std::uint64_t seq);

    /** Mark a previously loading expert resident. */
    void finishLoad(ExpertId e, Time now);

    /** Insert an already-materialized expert (initial preload). */
    void insertResident(ExpertId e, std::int64_t bytes, std::uint64_t seq,
                        Time now);

    /** Remove @p e entirely, without demotion. Must not be pinned. */
    void erase(ExpertId e);

    /** Update LRU bookkeeping after a batch used @p e. */
    void touch(ExpertId e, Time now);

    /** Hard-pin / unpin @p e. */
    void pin(ExpertId e);
    void unpin(ExpertId e);

    /** Soft-pin (prefetch) / release. */
    void softPin(ExpertId e);
    void softUnpin(ExpertId e);

    /** @return entry for @p e; panics when absent. */
    const TierEntry &entry(ExpertId e) const;

    /**
     * @return all entries as one dense array, in no meaningful order
     *         (erase moves the last entry into the freed slot).
     *         Victim scans select with a full-order tie-break (see
     *         baselines/evictions.cc), so the order never leaks out.
     */
    const std::vector<std::pair<ExpertId, TierEntry>> &
    entries() const
    {
        return entries_;
    }

    /** @return configured capacity in bytes. */
    std::int64_t capacityBytes() const { return capacity_; }

    /** @return bytes used (resident + reserved by loads). */
    std::int64_t usedBytes() const { return used_; }

    /** @return capacity - used. */
    std::int64_t freeBytes() const { return capacity_ - used_; }

    /** @return number of tiered experts (incl. loading). */
    std::size_t count() const { return entries_.size(); }

    // ----- cache API ------------------------------------------------

    /**
     * Insert @p e cache-style, self-evicting residents until it fits.
     * Rejects non-positive sizes and sizes above capacity; no-op when
     * the tier is disabled. Re-inserting a resident expert updates its
     * size and recency (never double-counts usage). When every
     * resident is pinned or loading, the insert — including a resized
     * re-insert, which rolls back — is rejected instead of evicting
     * protected entries.
     *
     * @return true when @p e is resident with @p bytes after the call.
     */
    bool insert(ExpertId e, std::int64_t bytes, Time now);

    /** @return number of evictions performed on this tier. */
    std::int64_t evictions() const { return counters_.evictions; }

    /**
     * Live hit/miss/eviction counters — the string-free view of the
     * same numbers stats() reports, for per-sample readers like the
     * epoch sampler.
     */
    const TierCounters &counters() const { return counters_; }

    // ----- TierBelow ------------------------------------------------

    const std::string &name() const override { return name_; }
    TierLevel level() const override { return level_; }
    bool enabled() const override { return capacity_ > 0; }
    bool holds(ExpertId e) const override
    {
        return enabled() && resident(e);
    }
    bool admit(ExpertId e, std::int64_t bytes, Time now) override
    {
        return insert(e, bytes, now);
    }
    bool warm(ExpertId e, std::int64_t bytes) override;
    void refresh(ExpertId e, Time now) override;
    void noteHit() override { counters_.hits += 1; }
    void noteMiss() override { counters_.misses += 1; }
    TierStats stats() const override;

  private:
    TierEntry &mutableEntry(ExpertId e);

    /** Add a new entry for absent @p e. */
    void emplace(ExpertId e, const TierEntry &entry);

    /**
     * Self-evict until @p need more bytes fit, by an LRU scan
     * (skipping pinned / loading entries; lastUse ties broken by
     * smallest ExpertId).
     * @return false when no evictable victim remains.
     */
    bool makeRoom(std::int64_t need, Time now);

    std::string name_;
    TierLevel level_;
    std::int64_t capacity_;
    std::int64_t used_ = 0;
    /** Tiered experts, densely packed. */
    std::vector<std::pair<ExpertId, TierEntry>> entries_;
    /** ExpertId -> index into entries_, -1 when absent. */
    std::vector<std::int32_t> slots_;
    TierBelow *below_ = nullptr;
    TierCounters counters_;
};

/**
 * Bottom of the hierarchy: the SSD holds every expert persistently and
 * never fills. Admissions (demotions cascading down) are free — the
 * weights already live on disk — and only counted. Hits record loads
 * that had to pay the storage leg.
 */
class DiskTier : public TierBelow
{
  public:
    explicit DiskTier(std::string name = "disk");

    const std::string &name() const override { return name_; }
    TierLevel level() const override { return TierLevel::Disk; }
    bool enabled() const override { return true; }
    bool holds(ExpertId) const override { return true; }
    bool admit(ExpertId, std::int64_t, Time) override
    {
        counters_.insertions += 1;
        return true;
    }
    bool warm(ExpertId, std::int64_t) override { return true; }
    void refresh(ExpertId, Time) override {}
    void noteHit() override { counters_.hits += 1; }
    void noteMiss() override { counters_.misses += 1; }
    TierStats stats() const override;

  private:
    std::string name_;
    TierCounters counters_;
};

/**
 * CPU DRAM tier shared by every replica of a cluster: one physical
 * host DRAM behind N replica engines; an expert demoted by replica 0
 * becomes a DRAM hit for replica 1. All accesses serialize on a mutex,
 * so the tier stays safe to reach from any thread.
 *
 * Recency inside the shared tier uses an internal monotonic access
 * counter, not the callers' timestamps: each replica engine runs its
 * own virtual clock, so cross-replica sim times are incomparable
 * (sequentially executed replicas would otherwise always evict the
 * *running* replica's fresh entries in favor of a finished sibling's
 * dead ones).
 *
 * The cluster never races replicas on it: a static run executes
 * shared-tier replicas in replica order on one thread, and the
 * coordinator steps every replica from its single thread, so the access
 * sequence — and with it every hit, miss and eviction — is
 * reproducible.
 *
 * Every member behind mutex_ is CS_GUARDED_BY-annotated: clang's
 * `-Wthread-safety -Werror` CI lane proves at compile time that no
 * access path — current or future — touches the shared tier without
 * holding the lock.
 */
class SharedCpuTier : public TierBelow
{
  public:
    /** @param capacityBytes shared tier capacity (> 0). */
    explicit SharedCpuTier(std::int64_t capacityBytes);

    const std::string &name() const override { return name_; }
    TierLevel level() const override { return TierLevel::CpuDram; }
    bool enabled() const override;
    bool holds(ExpertId e) const override;
    bool admit(ExpertId e, std::int64_t bytes, Time now) override;
    bool warm(ExpertId e, std::int64_t bytes) override;
    void refresh(ExpertId e, Time now) override;
    bool lookupAndTouch(ExpertId e, Time now) override;
    void noteHit() override;
    void noteMiss() override;
    TierStats stats() const override;

    /**
     * Snapshot of the disk tier the shared tier spills into (named
     * "disk" so cluster aggregation merges it with the replicas' own
     * disk entries).
     */
    TierStats diskStats() const;

    /**
     * Steal-aware admission hint: the cluster coordinator just
     * re-routed requests, and the thief is about to demand-load
     * @p experts. Any of them resident here are refreshed to the
     * newest recency under one lock, so sibling evictions between the
     * steal and the thief's loads will not push out exactly the
     * experts the steal made hot again (turning the thief's cheap
     * DRAM adoption into a full SSD reload). A recency bump rather
     * than a pin: it cannot wedge the tier when a hinted load never
     * materializes (e.g. the thief already held the expert).
     *
     * @return number of hinted experts found (and protected) here.
     */
    std::size_t hintUpcomingLoads(const std::vector<ExpertId> &experts);

    /** Total experts protected by steal hints (tests / reports). */
    std::int64_t stealHintsProtected() const;

  private:
    /** Tier name, immutable after construction (lock-free reads). */
    const std::string name_{"cpu.shared"};
    mutable Mutex mutex_;
    MemoryTier tier_ CS_GUARDED_BY(mutex_);
    DiskTier disk_ CS_GUARDED_BY(mutex_);
    /** Cross-replica recency clock (see class comment). */
    Time tick_ CS_GUARDED_BY(mutex_) = 0;
    /** Cumulative hintUpcomingLoads protections. */
    std::int64_t stealHintsProtected_ CS_GUARDED_BY(mutex_) = 0;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_MEMORY_TIER_H
