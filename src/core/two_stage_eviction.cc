#include "core/two_stage_eviction.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace coserve {

namespace {

constexpr std::size_t kWordBits = 64;

} // namespace

void
TwoStageEviction::bind(const EvictionContext &ctx)
{
    COSERVE_CHECK(ctx.deps != nullptr && ctx.usage != nullptr,
                  "two-stage eviction needs dependency/usage context");
    if (usage_ == nullptr) {
        const UsageProfile &usage = *ctx.usage;
        COSERVE_CHECK(ctx.deps->size() == usage.size(),
                      "dependency graph and usage profile disagree on "
                      "the expert count");
        deps_ = ctx.deps;
        usage_ = ctx.usage;
        byRank_.resize(usage.size());
        std::iota(byRank_.begin(), byRank_.end(), 0);
        std::sort(byRank_.begin(), byRank_.end(),
                  [&](ExpertId a, ExpertId b) {
                      const double pa = usage.probability(a);
                      const double pb = usage.probability(b);
                      return pa < pb || (pa == pb && a < b);
                  });
        rankOf_.resize(byRank_.size());
        for (std::size_t r = 0; r < byRank_.size(); ++r)
            rankOf_[static_cast<std::size_t>(byRank_[r])] =
                static_cast<std::uint32_t>(r);
    }
    COSERVE_CHECK(ctx.deps == deps_ && ctx.usage == usage_,
                  "two-stage eviction serves one model's dependency "
                  "graph and usage profile");
}

TwoStageEviction::PoolIndex &
TwoStageEviction::indexOf(const MemoryTier &pool)
{
    for (PoolIndex &index : pools_) {
        if (index.pool == &pool)
            return index;
    }
    PoolIndex &index = pools_.emplace_back();
    index.pool = &pool;
    index.ranked.assign((byRank_.size() + kWordBits - 1) / kWordBits, 0);
    return index;
}

void
TwoStageEviction::checkInStep(const PoolIndex &index,
                              const MemoryTier &pool)
{
    COSERVE_CHECK(index.count == pool.count() &&
                      index.insertions == pool.counters().insertions,
                  "pool ", pool.name(), " holds ", pool.count(),
                  " experts after ", pool.counters().insertions,
                  " insertions but reported ", index.count, " after ",
                  index.insertions, " to two-stage eviction");
}

void
TwoStageEviction::onPoolChange(const MemoryTier &pool, ExpertId e,
                               bool entered, const EvictionContext &ctx)
{
    bind(ctx);
    PoolIndex &index = indexOf(pool);
    // isSubsequent dies on an out-of-range id before rankOf_ is read.
    const bool subsequent = deps_->isSubsequent(e);
    const std::uint32_t rank = rankOf_[static_cast<std::size_t>(e)];
    std::uint64_t &word = index.ranked[rank / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (rank % kWordBits);
    COSERVE_CHECK(pool.contains(e) == entered &&
                      ((word & bit) != 0) != entered,
                  "pool ", pool.name(), " reported expert ", e,
                  entered ? " entering" : " leaving",
                  " out of step with its membership");
    word ^= bit;
    if (entered) {
        index.count += 1;
        index.insertions += 1;
        if (subsequent)
            index.subsequents.push_back(e);
    } else {
        index.count -= 1;
        if (subsequent) {
            auto &subs = index.subsequents;
            *std::find(subs.begin(), subs.end(), e) = subs.back();
            subs.pop_back();
        }
    }
    checkInStep(index, pool);
}

std::optional<ExpertId>
TwoStageEviction::selectVictim(const MemoryTier &pool,
                               const EvictionContext &ctx)
{
    bind(ctx);
    const PoolIndex &index = indexOf(pool);
    // In step, the index's members are exactly the pool's, so each
    // pool.find below hits.
    checkInStep(index, pool);

    // Stage 1: subsequent experts without a member preliminary,
    // largest footprint first. A preliminary that is loading counts
    // as present: it will run soon, and so may its subsequent expert.
    std::optional<ExpertId> stage1;
    std::int64_t stage1Bytes = -1;
    for (const ExpertId id : index.subsequents) {
        const TierEntry &entry = *pool.find(id);
        if (!evictable(entry, ctx))
            continue;
        bool orphan = true;
        for (const ExpertId pre : deps_->preliminariesOf(id)) {
            if (pool.contains(pre)) {
                orphan = false;
                break;
            }
        }
        if (orphan && (entry.bytes > stage1Bytes ||
                       (entry.bytes == stage1Bytes && id < *stage1))) {
            stage1 = id;
            stage1Bytes = entry.bytes;
        }
    }
    if (stage1)
        return stage1;

    // Stage 2: the first evictable member by ascending usage. No
    // evictable member is an orphan now, so each one is a candidate.
    for (std::size_t w = 0; w < index.ranked.size(); ++w) {
        for (std::uint64_t bits = index.ranked[w]; bits != 0;
             bits &= bits - 1) {
            const ExpertId id = byRank_[w * kWordBits +
                                        static_cast<std::size_t>(
                                            __builtin_ctzll(bits))];
            if (evictable(*pool.find(id), ctx))
                return id;
        }
    }
    return std::nullopt;
}

} // namespace coserve
