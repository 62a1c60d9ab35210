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
    /** Per-executor dispatch intermediates (finish time + estimate). */
    struct Candidate
    {
        Time finish;
        Time add;
    };

    /**
     * Memo of the execution part of the estimate, which only depends
     * on (processor kind, joins-group): at most four distinct values
     * per dispatched request.
     */
    struct ExecMemo
    {
        Time value[2][2];
        bool valid[2][2] = {{false, false}, {false, false}};
    };

    /**
     * The one implementation of the Section 4.2 estimate; the public
     * additionalLatency() and the dispatch() hot loop both call it,
     * dispatch() passing a @p memo to amortize the execution part
     * across executors.
     */
    Time additionalLatencyImpl(const ServingEngine &engine,
                               std::size_t i, const Request &req,
                               ArchId arch, ExecMemo *memo) const;

    const PerfMatrix *perf_;
    /**
     * Reusable dispatch scratch, one entry per executor. dispatch() is
     * called once per request on the hottest path; keeping the buffer
     * across calls makes the steady path allocation-free.
     */
    std::vector<Candidate> scratch_;
};

} // namespace coserve

#endif // COSERVE_CORE_SCHEDULER_H
