/**
 * @file
 * Workload generation for the circuit-board inspection tasks.
 *
 * "In real-world production, a component image is input every 4 ms"
 * (Section 5.1). Components are drawn from the board's image
 * distribution; classification outcomes are pre-rolled with each
 * component's defect probability so every system replays the identical
 * workload.
 *
 * Task presets match the paper:
 *   A1 = 2500 images of board A     A2 = 3500 images of board A
 *   B1 = 2500 images of board B     B2 = 3500 images of board B
 */

#ifndef COSERVE_WORKLOAD_GENERATOR_H
#define COSERVE_WORKLOAD_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "coe/coe_model.h"
#include "slo/request_class.h"
#include "workload/trace.h"

namespace coserve {

/**
 * Arrival process. generateTrace() draws Fixed and Bursty task
 * traces; generateSloTrace() draws Poisson and MMPP tenant streams.
 */
enum class ArrivalProcess
{
    /** One image every `interarrival` (the paper's production line). */
    Fixed,
    /** Poisson arrivals at the tenant's rate. */
    Poisson,
    /** Bursts of `burstSize` back-to-back images every
     *  `burstSize * interarrival` (panel-at-a-time camera feeds). */
    Bursty,
    /**
     * Markov-modulated Poisson process: Poisson arrivals whose rate
     * switches between a calm state (the tenant's rate) and a burst
     * state (`mmppBurstFactor` times it), with exponentially-
     * distributed dwell times — the classic model of bursty open-loop
     * serving traffic.
     */
    MMPP,
};

/** Parameters of one evaluation task: a Fixed or Bursty stream. */
struct TaskSpec
{
    std::string name;
    /** Number of input images. */
    std::size_t numImages = 2500;
    /** Interarrival gap (paper: 4 ms). */
    Time interarrival = milliseconds(4);
    /** Fixed or Bursty; generateTrace() refuses the others. */
    ArrivalProcess arrivals = ArrivalProcess::Fixed;
    /** Images per burst (Bursty only). */
    int burstSize = 32;
    std::uint64_t seed = 42;
};

/**
 * Generate a time-sorted trace for @p task against @p model. fatal()s
 * (exit 1) on a Poisson or MMPP task: those processes come from
 * generateSloTrace().
 */
Trace generateTrace(const CoEModel &model, const TaskSpec &task);

// ------------------------------------------------- SLO-classed traffic

/**
 * One tenant of a multi-tenant SLO workload: an independent open-loop
 * arrival stream whose requests share a class and a latency budget.
 * Streams from all tenants are merged into one time-sorted trace.
 */
struct TenantSpec
{
    std::string name;
    RequestClass cls = RequestClass::Interactive;
    /** Mean arrival rate in images per second. */
    double ratePerSec = 50.0;
    /**
     * Per-image latency budget: deadline = arrival + budget.
     * kTimeNever generates deadline-less requests (best-effort).
     */
    Time latencyBudget = kTimeNever;
    /** Poisson (open-loop) or MMPP (bursty); others are rejected. */
    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    /** Burst-state rate multiplier (MMPP only). */
    double mmppBurstFactor = 8.0;
    /** Mean dwell time in the calm state (MMPP only). */
    Time mmppMeanCalm = seconds(2);
    /** Mean dwell time in the burst state (MMPP only). */
    Time mmppMeanBurst = milliseconds(250);
    /**
     * Diurnal modulation depth in [0, 1): the instantaneous rate is
     * ratePerSec * (1 + amplitude * sin(2*pi*t/period + phase)), so
     * the tenant's "day" peaks at (1+A)x and its "night" troughs at
     * (1-A)x. 0 keeps the rate flat.
     */
    double diurnalAmplitude = 0.0;
    /** Period of the diurnal cycle (a sped-up "day"). */
    Time diurnalPeriod = seconds(60);
    /** Phase offset in radians (tenants can peak at different times). */
    double diurnalPhase = 0.0;
};

/**
 * Generate a multi-tenant SLO trace: each tenant's stream is drawn
 * independently (Poisson thinning implements the diurnal modulation),
 * spans [0, duration), and the merged trace is sorted by time with a
 * deterministic (time, tenant) tie-break. Components and defect
 * outcomes are pre-rolled per tenant from @p seed, so the trace is
 * bit-reproducible.
 */
Trace generateSloTrace(const CoEModel &model,
                       const std::vector<TenantSpec> &tenants,
                       Time duration, std::uint64_t seed);

/** Task A1: 2,500 requests of Circuit Board A. */
TaskSpec taskA1();
/** Task A2: 3,500 requests of Circuit Board A. */
TaskSpec taskA2();
/** Task B1: 2,500 requests of Circuit Board B. */
TaskSpec taskB1();
/** Task B2: 3,500 requests of Circuit Board B. */
TaskSpec taskB2();

} // namespace coserve

#endif // COSERVE_WORKLOAD_GENERATOR_H
