#include "metrics/run_result.h"

namespace coserve {

void
TierCounters::merge(const TierCounters &o)
{
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    insertions += o.insertions;
}

double
TierStats::hitRate() const
{
    const std::int64_t accesses = counters.hits + counters.misses;
    return accesses > 0
               ? static_cast<double>(counters.hits) /
                     static_cast<double>(accesses)
               : 0.0;
}

void
SwitchCounters::merge(const SwitchCounters &o)
{
    loadsFromSsd += o.loadsFromSsd;
    loadsFromCache += o.loadsFromCache;
    prefetchLoads += o.prefetchLoads;
    evictions += o.evictions;
    demotions += o.demotions;
    bytesLoaded += o.bytesLoaded;
}

} // namespace coserve
