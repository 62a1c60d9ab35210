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

Trace
Trace::select(const std::vector<std::size_t> &indices) const
{
    Trace t;
    t.arrivals.reserve(indices.size());
    for (const std::size_t i : indices)
        t.arrivals.push_back(arrivals[i]);
    return t;
}

std::vector<std::vector<std::size_t>>
shardIndices(const std::vector<std::size_t> &assignment,
             std::size_t numShards)
{
    COSERVE_CHECK(numShards > 0, "need at least one shard");
    std::vector<std::vector<std::size_t>> buckets(numShards);
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        COSERVE_CHECK(assignment[i] < numShards, "assignment ",
                      assignment[i], " out of range for ", numShards,
                      " shards");
        buckets[assignment[i]].push_back(i);
    }
    return buckets;
}

} // namespace coserve
