/**
 * @file
 * SLO request classes.
 *
 * The paper's scheduler optimizes aggregate throughput; production
 * serving is governed by per-request service-level objectives. Every
 * request may carry a *class* — interactive, batch or best-effort —
 * with a latency deadline and a scheduling priority. Classless
 * requests (RequestClass::None, the default everywhere) behave exactly
 * as before this layer existed: no deadline, neutral priority, no SLO
 * accounting — so legacy traces reproduce byte-identical metrics.
 *
 * The class vocabulary is deliberately tiny and flat (an enum, not a
 * registry): the SLO layer threads through the hottest paths of the
 * runtime (queue pop order, dispatch, completion), where a priority
 * must be an array lookup, not a map probe.
 */

#ifndef COSERVE_SLO_REQUEST_CLASS_H
#define COSERVE_SLO_REQUEST_CLASS_H

#include <cstdint>

namespace coserve {

/** Service class of a request. Order = stats array index. */
enum class RequestClass : std::uint8_t
{
    /** Latency-critical, tight deadline (an operator at the line). */
    Interactive = 0,
    /** Throughput-oriented with a loose deadline (batch re-scans). */
    Batch = 1,
    /** No deadline; runs in leftover capacity. Downgrade target. */
    BestEffort = 2,
    /** Legacy / classless request: no SLO semantics at all. */
    None = 3,
};

/** Number of *SLO-tracked* classes (None excluded). */
inline constexpr std::size_t kNumSloClasses = 3;

/**
 * Scheduling priority of a class; higher pops first. None shares the
 * bottom priority so classless and best-effort work interleave in
 * plain FIFO/grouped order.
 */
inline constexpr int
priorityOf(RequestClass cls)
{
    switch (cls) {
    case RequestClass::Interactive:
        return 2;
    case RequestClass::Batch:
        return 1;
    case RequestClass::BestEffort:
    case RequestClass::None:
        return 0;
    }
    return 0;
}

/** @return true for classes the SLO metrics track (not None). */
inline constexpr bool
sloTracked(RequestClass cls)
{
    return cls != RequestClass::None;
}

/** Display name for reports ("interactive", ...). */
const char *toString(RequestClass cls);

} // namespace coserve

#endif // COSERVE_SLO_REQUEST_CLASS_H
