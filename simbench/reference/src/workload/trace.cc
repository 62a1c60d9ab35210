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

    std::vector<Trace> shards(numShards);
    for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
        const std::size_t shard = assignment[i];
        COSERVE_CHECK(shard < numShards, "assignment ", shard,
                      " out of range for ", numShards, " shards");
        shards[shard].arrivals.push_back(trace.arrivals[i]);
    }
    return shards;
}

} // namespace coserve
