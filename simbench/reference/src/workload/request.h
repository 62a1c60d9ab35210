/**
 * @file
 * Inference requests as seen by the serving runtime.
 *
 * Each incoming *image* produces a classification request; when the
 * classifier reports "ok" and the component has a detection rule, the
 * completion spawns a follow-up detection request (expert dependency,
 * Section 2.1). Both kinds flow through the same scheduler.
 */

#ifndef COSERVE_WORKLOAD_REQUEST_H
#define COSERVE_WORKLOAD_REQUEST_H

#include <cstdint>

#include "coe/coe_model.h"
#include "slo/request_class.h"
#include "util/time.h"

namespace coserve {

/** Dense request identifier. */
using RequestId = std::int64_t;

/** Pipeline stage a request belongs to. */
enum class Stage { Classify, Detect };

/** One inference request (a unit of scheduling). */
struct Request
{
    RequestId id = -1;
    /** The image this request belongs to (== classify request id). */
    RequestId imageId = -1;
    ComponentId component = -1;
    /** Expert this request must run on. */
    ExpertId expert = kNoExpert;
    Stage stage = Stage::Classify;
    /** Time the request entered the system. */
    Time arrival = 0;
    /**
     * Pre-rolled ground truth: whether the classifier will report a
     * defect (ends the chain). Carried in the trace for determinism.
     */
    bool defective = false;
    /** SLO class; chains inherit it (None = classless, the default). */
    RequestClass cls = RequestClass::None;
    /**
     * Absolute end-to-end deadline for the *image* (the whole chain);
     * a detect child inherits its parent's. kTimeNever means none.
     */
    Time deadline = kTimeNever;
    /**
     * Arrival time of the image that started the chain: equals
     * `arrival` for classify requests, is inherited by detect children
     * (whose own arrival is their spawn time) — SLO latency is
     * measured end to end from here.
     */
    Time imageArrival = 0;
};

} // namespace coserve

#endif // COSERVE_WORKLOAD_REQUEST_H
