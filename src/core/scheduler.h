/**
 * @file
 * Dependency-aware request scheduling (paper Section 4.2).
 *
 * For each arriving request the scheduler:
 *  1. predicts the *additional inference latency* each executor queue
 *     would incur: execution part (K when the queue already holds
 *     same-expert requests, else K + B) plus switch part (0 when the
 *     expert is resident or already demanded by the queue, else the
 *     load latency);
 *  2. assigns the request to the queue minimizing the *total* inference
 *     time across all executors (the makespan of queues, Figure 8),
 *     breaking ties by the smallest additional latency;
 *  3. arranges the request directly behind queued requests that use the
 *     same expert (Figure 9), so the expert is loaded at most once for
 *     the whole group.
 */

#ifndef COSERVE_CORE_SCHEDULER_H
#define COSERVE_CORE_SCHEDULER_H

#include <vector>

#include "core/perf_matrix.h"
#include "model/latency_model.h"
#include "runtime/policies.h"

namespace coserve {

class Executor;

/** CoServe's dependency-aware scheduler. */
class DependencyAwareScheduler : public Scheduler
{
  public:
    /**
     * @param perf profiled performance matrix for the K/B execution
     *        estimates; nullptr falls back to the engine's ground
     *        truth (useful in unit tests). Not owned; must outlive
     *        the scheduler.
     */
    explicit DependencyAwareScheduler(const PerfMatrix *perf = nullptr)
        : perf_(perf)
    {}

    const char *name() const override { return "dependency-aware"; }

    void dispatch(ServingEngine &engine, const Request &req) override;

    /**
     * Predicted additional inference latency of adding @p req to
     * executor @p i's queue (public for tests and Figure 19).
     */
    Time additionalLatency(const ServingEngine &engine, std::size_t i,
                           const Request &req) const;

    /**
     * Execution part of the estimate: K when the request joins an
     * existing same-expert group, K + B when it opens a new one.
     * Prefers the profiled @p perf entry, falling back to @p truth
     * (either may be nullptr). Usable without a live engine — the
     * cluster dispatcher reuses it for replica-level makespan
     * prediction.
     */
    static Time execEstimate(const PerfMatrix *perf,
                             const LatencyModel *truth, ArchId arch,
                             ProcKind proc, bool joinsGroup);

  private:
    /** Execution part of the estimate for one (arch, processor). */
    struct ExecCost
    {
        /** K: the request joins a queued same-expert group. */
        Time join = 0;
        /** K + B: the request opens a new group. */
        Time open = 0;
    };

    /**
     * costs_'s row for @p arch, indexed by processor kind. costs_ is
     * refilled from execEstimate() when @p engine's truth model is not
     * the one it was filled from (models are told apart by address and
     * must not change while an engine uses them). A pair neither the
     * matrix nor the truth model covers stays {0, 0}: K is positive.
     */
    const ExecCost *costRow(const ServingEngine &engine, ArchId arch) const;

    /**
     * The Section 4.2 estimate for executor @p i (= @p exec), priced
     * from its kind's entry in @p row, the costRow() of @p arch:
     * K when expert @p e joins a queued group (no switch), else
     * K + B plus the predicted load time.
     */
    Time priced(const ServingEngine &engine, std::size_t i,
                const Executor &exec, const ExecCost *row, ArchId arch,
                ExpertId e) const;

    const PerfMatrix *perf_;
    /**
     * [arch][processor kind] execution estimates, filled once per
     * truth model: dispatch() prices every executor for every request,
     * so the estimate is a table read, not a matrix lookup.
     */
    mutable ExecCost costs_[kNumArchIds][kNumProcKinds] = {};
    /** The truth model costs_ was filled from; nullptr before any. */
    mutable const LatencyModel *costsTruth_ = nullptr;
    /**
     * Reusable dispatch scratch, one entry per executor: each one's
     * as-is finish time and additional latency. dispatch() is called
     * once per request on the hottest path; keeping the buffers across
     * calls makes the steady path allocation-free.
     */
    std::vector<Time> finish_;
    std::vector<Time> add_;
};

} // namespace coserve

#endif // COSERVE_CORE_SCHEDULER_H
