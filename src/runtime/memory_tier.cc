#include "runtime/memory_tier.h"

#include "util/logging.h"

namespace coserve {

const char *
toString(TierLevel level)
{
    switch (level) {
      case TierLevel::Gpu: return "gpu";
      case TierLevel::CpuDram: return "cpu-dram";
      case TierLevel::Disk: return "disk";
    }
    return "?";
}

// ------------------------------------------------------------ MemoryTier

MemoryTier::MemoryTier(std::string name, std::int64_t capacityBytes,
                       TierLevel level)
    : name_(std::move(name)), level_(level), capacity_(capacityBytes)
{
    COSERVE_CHECK(capacity_ >= 0, "tier ", name_, " negative capacity");
}

void
MemoryTier::emplace(ExpertId e, const TierEntry &entry)
{
    COSERVE_CHECK(e >= 0, "tiering an invalid expert in ", name_);
    const auto id = static_cast<std::size_t>(e);
    if (id >= slots_.size())
        slots_.resize(id + 1, -1);
    slots_[id] = static_cast<std::int32_t>(entries_.size());
    entries_.emplace_back(e, entry);
    used_ += entry.bytes;
    counters_.insertions += 1;
}

void
MemoryTier::beginLoad(ExpertId e, std::int64_t bytes, std::uint64_t seq)
{
    COSERVE_CHECK(!contains(e), "expert ", e, " already tiered in ",
                  name_);
    COSERVE_CHECK(bytes > 0 && bytes <= freeBytes(),
                  "tier ", name_, " cannot reserve ", bytes, " bytes (",
                  freeBytes(), " free)");
    TierEntry entry;
    entry.bytes = bytes;
    entry.loadSeq = seq;
    entry.loading = true;
    entry.pins = 1; // loads hard-pin themselves until completion
    emplace(e, entry);
}

void
MemoryTier::finishLoad(ExpertId e, Time now)
{
    TierEntry &entry = mutableEntry(e);
    COSERVE_CHECK(entry.loading, "expert ", e, " was not loading");
    entry.loading = false;
    entry.lastUse = now;
    COSERVE_CHECK(entry.pins >= 1, "load pin lost");
    entry.pins -= 1;
}

void
MemoryTier::insertResident(ExpertId e, std::int64_t bytes,
                           std::uint64_t seq, Time now)
{
    COSERVE_CHECK(!contains(e), "expert ", e, " already tiered in ",
                  name_);
    COSERVE_CHECK(bytes > 0 && bytes <= freeBytes(),
                  "tier ", name_, " overflow on preload");
    TierEntry entry;
    entry.bytes = bytes;
    entry.loadSeq = seq;
    entry.lastUse = now;
    emplace(e, entry);
}

void
MemoryTier::erase(ExpertId e)
{
    const TierEntry *entry = find(e);
    COSERVE_CHECK(entry != nullptr, "evicting absent expert ", e);
    COSERVE_CHECK(entry->pins == 0, "evicting pinned expert ", e);
    COSERVE_CHECK(!entry->loading, "evicting in-flight expert ", e);
    used_ -= entry->bytes;
    // Swap-remove: the last entry takes the freed slot.
    const auto slot = static_cast<std::size_t>(slots_[e]);
    if (slot + 1 != entries_.size()) {
        entries_[slot] = entries_.back();
        slots_[static_cast<std::size_t>(entries_[slot].first)] =
            static_cast<std::int32_t>(slot);
    }
    entries_.pop_back();
    slots_[e] = -1;
}

bool
MemoryTier::evict(ExpertId e, Time now)
{
    const std::int64_t bytes = entry(e).bytes;
    erase(e);
    counters_.evictions += 1;
    if (below_ != nullptr && below_->enabled())
        return below_->admit(e, bytes, now);
    return false;
}

void
MemoryTier::touch(ExpertId e, Time now)
{
    TierEntry &entry = mutableEntry(e);
    entry.lastUse = now;
    entry.uses += 1;
}

void
MemoryTier::pin(ExpertId e)
{
    mutableEntry(e).pins += 1;
}

void
MemoryTier::unpin(ExpertId e)
{
    TierEntry &entry = mutableEntry(e);
    COSERVE_CHECK(entry.pins > 0, "unpin of unpinned expert ", e);
    entry.pins -= 1;
}

void
MemoryTier::softPin(ExpertId e)
{
    mutableEntry(e).softPinned = true;
}

void
MemoryTier::softUnpin(ExpertId e)
{
    if (find(e) != nullptr)
        mutableEntry(e).softPinned = false;
}

const TierEntry &
MemoryTier::entry(ExpertId e) const
{
    const TierEntry *entry = find(e);
    COSERVE_CHECK(entry != nullptr, "expert ", e, " not in tier ", name_);
    return *entry;
}

TierEntry &
MemoryTier::mutableEntry(ExpertId e)
{
    return const_cast<TierEntry &>(entry(e));
}

bool
MemoryTier::insert(ExpertId e, std::int64_t bytes, Time now)
{
    if (capacity_ == 0 || bytes <= 0 || bytes > capacity_)
        return false;
    if (contains(e)) {
        // Resident re-insert: adopt the new size instead of
        // double-counting the old bytes, and refresh recency.
        TierEntry &entry = mutableEntry(e);
        const std::int64_t oldBytes = entry.bytes;
        used_ += bytes - oldBytes;
        entry.bytes = bytes;
        entry.lastUse = now;
        if (used_ > capacity_) {
            // The entry grew: shrink around it (it is pinned for the
            // duration so the scan cannot select it). When only
            // protected entries remain, roll the resize back rather
            // than leaving the tier over capacity. makeRoom erases
            // entries, so re-fetch the entry afterwards.
            entry.pins += 1;
            const bool fits = makeRoom(0, now);
            TierEntry &grown = mutableEntry(e);
            grown.pins -= 1;
            if (!fits) {
                used_ += oldBytes - grown.bytes;
                grown.bytes = oldBytes;
                return false;
            }
        }
        return true;
    }
    if (!makeRoom(bytes, now))
        return false; // everything evictable is pinned/loading: reject
    TierEntry entry;
    entry.bytes = bytes;
    entry.lastUse = now;
    emplace(e, entry);
    return true;
}

bool
MemoryTier::makeRoom(std::int64_t need, Time now)
{
    while (used_ + need > capacity_) {
        // LRU: minimum lastUse among unpinned, settled entries,
        // lastUse ties broken by smallest id, so the victim does not
        // depend on the entries' array order.
        ExpertId victim = kNoExpert;
        Time oldest = kTimeNever;
        for (const auto &[id, entry] : entries_) {
            if (entry.pins > 0 || entry.loading)
                continue;
            if (entry.lastUse < oldest ||
                (entry.lastUse == oldest &&
                 (victim == kNoExpert || id < victim))) {
                victim = id;
                oldest = entry.lastUse;
            }
        }
        if (victim == kNoExpert)
            return false;
        evict(victim, now);
    }
    return true;
}

bool
MemoryTier::warm(ExpertId e, std::int64_t bytes)
{
    if (!enabled() || used_ + bytes > capacity_)
        return false;
    return insert(e, bytes, 0);
}

void
MemoryTier::refresh(ExpertId e, Time now)
{
    if (find(e) != nullptr)
        mutableEntry(e).lastUse = now;
}

TierStats
MemoryTier::stats() const
{
    TierStats s;
    s.name = name_;
    s.level = coserve::toString(level_);
    s.capacityBytes = capacity_;
    s.usedBytes = used_;
    s.counters = counters_;
    return s;
}

// -------------------------------------------------------------- DiskTier

DiskTier::DiskTier(std::string name) : name_(std::move(name)) {}

TierStats
DiskTier::stats() const
{
    TierStats s;
    s.name = name_;
    s.level = coserve::toString(TierLevel::Disk);
    s.counters = counters_;
    return s;
}

// --------------------------------------------------------- SharedCpuTier

SharedCpuTier::SharedCpuTier(std::int64_t capacityBytes)
    : tier_(name_, capacityBytes, TierLevel::CpuDram), disk_("disk")
{
    COSERVE_CHECK(capacityBytes > 0, "shared CPU tier needs capacity");
    tier_.linkBelow(&disk_);
}

bool
SharedCpuTier::enabled() const
{
    // Capacity is immutable after construction, but taking the lock
    // keeps the thread-safety analysis airtight (no annotated-away
    // access path) and the call is far off any hot path.
    MutexLock lock(mutex_);
    return tier_.enabled();
}

bool
SharedCpuTier::holds(ExpertId e) const
{
    MutexLock lock(mutex_);
    return tier_.holds(e);
}

bool
SharedCpuTier::admit(ExpertId e, std::int64_t bytes, Time now)
{
    (void)now; // replica sim clocks are incomparable; use the tick
    MutexLock lock(mutex_);
    return tier_.admit(e, bytes, ++tick_);
}

bool
SharedCpuTier::warm(ExpertId e, std::int64_t bytes)
{
    // Delegates to the tier's own warm: preloaded entries carry the
    // oldest possible recency (0) here exactly as in a private tier,
    // so shared-vs-private comparisons start from the same priority.
    MutexLock lock(mutex_);
    return tier_.warm(e, bytes);
}

void
SharedCpuTier::refresh(ExpertId e, Time now)
{
    (void)now;
    MutexLock lock(mutex_);
    tier_.refresh(e, ++tick_);
}

bool
SharedCpuTier::lookupAndTouch(ExpertId e, Time now)
{
    (void)now; // replica sim clocks are incomparable; use the tick
    MutexLock lock(mutex_);
    if (!tier_.holds(e))
        return false;
    tier_.noteHit();
    tier_.refresh(e, ++tick_);
    return true;
}

void
SharedCpuTier::noteHit()
{
    MutexLock lock(mutex_);
    tier_.noteHit();
}

void
SharedCpuTier::noteMiss()
{
    MutexLock lock(mutex_);
    tier_.noteMiss();
}

TierStats
SharedCpuTier::stats() const
{
    MutexLock lock(mutex_);
    TierStats s = tier_.stats();
    s.shared = true;
    return s;
}

TierStats
SharedCpuTier::diskStats() const
{
    MutexLock lock(mutex_);
    return disk_.stats();
}

std::size_t
SharedCpuTier::hintUpcomingLoads(const std::vector<ExpertId> &experts)
{
    MutexLock lock(mutex_);
    std::size_t protectedCount = 0;
    for (ExpertId e : experts) {
        if (!tier_.holds(e))
            continue;
        tier_.refresh(e, ++tick_);
        protectedCount += 1;
    }
    stealHintsProtected_ += static_cast<std::int64_t>(protectedCount);
    return protectedCount;
}

std::int64_t
SharedCpuTier::stealHintsProtected() const
{
    MutexLock lock(mutex_);
    return stealHintsProtected_;
}

} // namespace coserve
