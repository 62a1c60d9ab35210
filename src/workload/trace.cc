#include "workload/trace.h"

#include "util/logging.h"

namespace coserve {

Trace
Trace::prefix(std::size_t n) const
{
    Trace t;
    t.arrivals.assign(arrivals.begin(),
                      arrivals.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min(n, arrivals.size())));
    return t;
}

std::vector<Trace>
shardTrace(const Trace &trace, const std::vector<std::size_t> &assignment,
           std::size_t numShards)
{
    COSERVE_CHECK(numShards > 0, "need at least one shard");
    COSERVE_CHECK(assignment.size() == trace.arrivals.size(),
                  "assignment size ", assignment.size(),
                  " != trace size ", trace.arrivals.size());

    // Count first so every shard is allocated once at its final size.
    std::vector<std::size_t> sizes(numShards, 0);
    for (const std::size_t shard : assignment) {
        COSERVE_CHECK(shard < numShards, "assignment ", shard,
                      " out of range for ", numShards, " shards");
        ++sizes[shard];
    }
    std::vector<Trace> shards(numShards);
    for (std::size_t s = 0; s < numShards; ++s)
        shards[s].arrivals.reserve(sizes[s]);
    for (std::size_t i = 0; i < trace.arrivals.size(); ++i)
        shards[assignment[i]].arrivals.push_back(trace.arrivals[i]);
    return shards;
}

} // namespace coserve
