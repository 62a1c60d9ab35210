/**
 * @file
 * SLO accounting: per-class admission, completion and tail-latency
 * counters of one run (or one cluster).
 *
 * SloStats is carried inside RunResult / ClusterResult. A run that
 * never saw a classed request (RequestClass::None everywhere — every
 * pre-SLO trace) keeps the structure empty, and reports are expected
 * to gate their SLO section on any(), so legacy output stays
 * byte-identical.
 *
 * Goodput — the serving-system headline — is the throughput of
 * requests that *met their deadline*: completed-in-time images per
 * second of makespan. A deadline-less class (best-effort, or batch
 * configured without budgets) counts every completion as met, so
 * goodput degenerates to plain throughput when no deadlines exist.
 * Admission-downgraded requests keep their original deadline for this
 * accounting (only their scheduling priority drops), so a downgraded
 * straggler finishing late counts as violated, never as met — goodput
 * cannot be inflated by shedding.
 */

#ifndef COSERVE_SLO_SLO_STATS_H
#define COSERVE_SLO_SLO_STATS_H

#include <array>
#include <cstdint>

#include "slo/quantile_sketch.h"
#include "slo/request_class.h"
#include "util/time.h"

namespace coserve {

/** Counters + latency sketch of one request class. */
struct SloClassStats
{
    /** Classed image chains completed. */
    std::int64_t completed = 0;
    /** Completions at or before their deadline (all, when none set). */
    std::int64_t sloMet = 0;
    /** Completions past their deadline. */
    std::int64_t violated = 0;
    /** Arrivals dropped by admission control. */
    std::int64_t rejected = 0;
    /**
     * Arrivals downgraded out of this class by admission control:
     * they complete under BestEffort scheduling priority but keep
     * their deadline, so late ones count as BestEffort violations.
     */
    std::int64_t downgraded = 0;
    /** End-to-end latency (ms) of completions, image arrival to done. */
    QuantileSketch latencyMs;

    /** Accumulate @p o into this (sketches merge bucket-wise). */
    void merge(const SloClassStats &o);
};

/** Whole-run SLO summary, indexed by RequestClass. */
struct SloStats
{
    std::array<SloClassStats, kNumSloClasses> perClass;

    /** @return stats of @p cls; must be a tracked class (not None). */
    SloClassStats &of(RequestClass cls);
    const SloClassStats &of(RequestClass cls) const;

    /**
     * @return true when any class saw traffic or admission activity —
     *         the gate for printing SLO sections in reports.
     */
    bool any() const;

    // ----- recording (the runtime's completion/admission paths) ------

    /** Record a classed completion; None is ignored. */
    void recordCompletion(RequestClass cls, double latencyMs,
                          bool violatedDeadline);

    /** Record an admission rejection of @p cls. */
    void recordRejected(RequestClass cls);

    /** Record a downgrade out of @p cls (completion lands elsewhere). */
    void recordDowngraded(RequestClass cls);

    // ----- aggregate views -------------------------------------------

    std::int64_t completed() const;
    std::int64_t sloMet() const;
    std::int64_t violated() const;
    std::int64_t rejected() const;
    std::int64_t downgraded() const;

    /** violated / completed across classes; 0 when empty. */
    double violationRate() const;

    /** SLO-met completions per second of @p makespan (goodput). */
    double goodput(Time makespan) const;

    /** Accumulate @p o into this (cluster aggregation). */
    void merge(const SloStats &o);
};

} // namespace coserve

#endif // COSERVE_SLO_SLO_STATS_H
