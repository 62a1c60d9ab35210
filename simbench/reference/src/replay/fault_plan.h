/**
 * @file
 * Fault-injection plans for cluster runs.
 *
 * A FaultPlan is a declarative schedule of failures driven from the
 * shared virtual clock, so fault runs are exactly as deterministic as
 * clean ones (and therefore recordable / replayable through the
 * decision log):
 *
 *  - ReplicaCrash: at virtual time t the replica dies. Its pending
 *    events are dropped, its queued and in-flight requests are drained
 *    and re-homed onto active capable siblings through the same
 *    evacuation machinery the autoscaler's quiesce path uses; requests
 *    no surviving replica can serve are counted as lost.
 *  - Straggler: over [from, to) the replica computes `slowdown` times
 *    slower (a thermal throttle / noisy neighbor). Flows into the live
 *    load views naturally, so online routing and stealing react to it.
 *  - StorageBrownout: over [from, to) the replica's storage channel
 *    delivers `factor` of its bandwidth (a degraded SSD / saturated
 *    disaggregated store), stretching every expert switch.
 */

#ifndef COSERVE_REPLAY_FAULT_PLAN_H
#define COSERVE_REPLAY_FAULT_PLAN_H

#include <cstddef>
#include <vector>

#include "util/time.h"

namespace coserve {

/** Kill replica `replica` at virtual time `at`. */
struct ReplicaCrash
{
    std::size_t replica = 0;
    Time at = 0;
};

/** Slow replica `replica` down by `slowdown`x over [from, to). */
struct Straggler
{
    std::size_t replica = 0;
    Time from = 0;
    Time to = 0;
    /** Compute-latency multiplier; must be >= 1. */
    double slowdown = 2.0;
};

/** Scale replica `replica`'s storage bandwidth over [from, to). */
struct StorageBrownout
{
    std::size_t replica = 0;
    Time from = 0;
    Time to = 0;
    /** Bandwidth multiplier; must be in (0, 1]. */
    double factor = 0.5;
};

/** Declarative failure schedule for one cluster run. */
struct FaultPlan
{
    std::vector<ReplicaCrash> crashes;
    std::vector<Straggler> stragglers;
    std::vector<StorageBrownout> brownouts;

    /** @return true when any fault is scheduled. */
    bool
    any() const
    {
        return !crashes.empty() || !stragglers.empty() ||
               !brownouts.empty();
    }
};

} // namespace coserve

#endif // COSERVE_REPLAY_FAULT_PLAN_H
