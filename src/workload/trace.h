/**
 * @file
 * Workload traces: timed sequences of incoming component images.
 */

#ifndef COSERVE_WORKLOAD_TRACE_H
#define COSERVE_WORKLOAD_TRACE_H

#include <vector>

#include "coe/coe_model.h"
#include "slo/request_class.h"
#include "util/time.h"

namespace coserve {

/** One incoming image in a trace. */
struct ImageArrival
{
    Time time = 0;
    ComponentId component = -1;
    /** Pre-rolled classification outcome (deterministic replays). */
    bool defective = false;
    /** SLO class; None (default) carries no SLO semantics at all. */
    RequestClass cls = RequestClass::None;
    /** Absolute end-to-end deadline; kTimeNever means none. */
    Time deadline = kTimeNever;
};

/** A full task: continuously arriving images (paper Section 5.1). */
struct Trace
{
    std::vector<ImageArrival> arrivals;

    /** @return number of images. */
    std::size_t size() const { return arrivals.size(); }

    /** Truncate to the first @p n images (profiling subsets). */
    Trace prefix(std::size_t n) const;

    /** The arrivals at @p indices, in that order. */
    Trace select(const std::vector<std::size_t> &indices) const;
};

/**
 * The shard rule: bucket the arrival indices by @p assignment (one
 * shard index per arrival, each < @p numShards), in one pass. Bucket s
 * lists shard s's arrivals in arrival order; buckets may be empty.
 * Trace::select() of bucket s is shard s: arrival times are preserved,
 * so every shard stays on the cluster-wide clock and per-shard
 * makespans remain comparable.
 */
std::vector<std::vector<std::size_t>>
shardIndices(const std::vector<std::size_t> &assignment,
             std::size_t numShards);

} // namespace coserve

#endif // COSERVE_WORKLOAD_TRACE_H
