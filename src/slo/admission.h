/**
 * @file
 * SLO admission control (Clockwork / SHEPHERD-style).
 *
 * A serving system that accepts work it cannot finish in time wastes
 * capacity twice: the hopeless request still occupies executors, and
 * its queueing delay pushes *feasible* requests past their deadlines
 * too. The AdmissionController turns a predicted completion time —
 * computed by the cluster coordinator from the same Section-4.2
 * estimates the schedulers use, over live ReplicaLoadViews — into a
 * verdict:
 *
 *   Admit      predicted completion makes the deadline (or no deadline);
 *   Downgrade  it misses, but the request may continue at BestEffort
 *              *scheduling* priority (cfg.downgrade, default on). The
 *              caller keeps the original deadline for accounting, so
 *              a downgraded straggler finishing late still counts as
 *              violated — goodput cannot be inflated by shedding;
 *   Reject     it misses and downgrading is off — drop at the door.
 *              BestEffort itself is never shed (nothing below it).
 *
 * The controller is pure decision logic: the coordinator
 * (ClusterConfig::admission, the one admission layer) does the
 * prediction and records verdicts into SloStats and its decision log.
 */

#ifndef COSERVE_SLO_ADMISSION_H
#define COSERVE_SLO_ADMISSION_H

#include "slo/request_class.h"
#include "util/time.h"

namespace coserve {

/** Admission-control knobs (default: disabled — legacy behavior). */
struct AdmissionConfig
{
    /** Master switch; off admits everything untouched. */
    bool enabled = false;
    /**
     * Downgrade a predicted-miss to BestEffort scheduling priority
     * (the deadline stays, for violation accounting) instead of
     * dropping it. Off turns every miss into a reject.
     */
    bool downgrade = true;
    /**
     * Deadline slack multiplier: a request is admitted when
     * predicted <= arrival + slack * (deadline - arrival). > 1
     * admits optimistically (the estimate ignores future arrivals
     * that EDF will order *behind* a deadline request); < 1 reserves
     * headroom for estimate error.
     */
    double slack = 1.0;
};

/** Outcome of one admission decision. */
enum class AdmissionVerdict
{
    Admit,
    Downgrade,
    Reject,
};

/** Stateless deadline-feasibility policy (see file comment). */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionConfig cfg) : cfg_(cfg) {}

    /** @return the active configuration. */
    const AdmissionConfig &config() const { return cfg_; }

    /**
     * Judge one arrival.
     *
     * @param cls request class (None is always admitted).
     * @param arrival arrival time (start of the latency budget).
     * @param deadline absolute deadline; kTimeNever always admits.
     * @param predictedCompletion caller's completion estimate.
     */
    AdmissionVerdict assess(RequestClass cls, Time arrival,
                            Time deadline,
                            Time predictedCompletion) const;

  private:
    AdmissionConfig cfg_;
};

} // namespace coserve

#endif // COSERVE_SLO_ADMISSION_H
