/**
 * @file
 * Baseline request schedulers (paper Section 5.1).
 *
 *  - FcfsSingleScheduler: Samba-CoE — one executor, strict arrival
 *    order, no arrangement.
 *  - RoundRobinScheduler: Samba-CoE Parallel and the "CoServe None"
 *    ablation — requests distributed evenly, FIFO within each queue.
 *  - RoundRobinGroupedScheduler: the "EM+RA" ablation — round-robin
 *    assignment but with CoServe's request *arranging* (grouped
 *    insertion) enabled.
 *  - ReplayScheduler: replays a recorded executor assignment; used for
 *    the pre-scheduled-inference overhead experiment (Figure 19).
 */

#ifndef COSERVE_BASELINES_SCHEDULERS_H
#define COSERVE_BASELINES_SCHEDULERS_H

#include <vector>

#include "runtime/policies.h"

namespace coserve {

/** First-come, first-served into executor 0 (Samba-CoE). */
class FcfsSingleScheduler : public Scheduler
{
  public:
    const char *name() const override { return "fcfs"; }

    void dispatch(ServingEngine &engine, const Request &req) override;
};

/** Even round-robin distribution, FIFO queues. */
class RoundRobinScheduler : public Scheduler
{
  public:
    /** @param grouped enable arranged (grouped) insertion. */
    explicit RoundRobinScheduler(bool grouped = false)
        : grouped_(grouped)
    {}

    const char *name() const override
    {
        return grouped_ ? "round-robin+arrange" : "round-robin";
    }

    void dispatch(ServingEngine &engine, const Request &req) override;

    void reset() override { next_ = 0; }

  private:
    bool grouped_;
    std::size_t next_ = 0;
};

/** Replays a recorded request -> executor assignment. */
class ReplayScheduler : public Scheduler
{
  public:
    /**
     * @param assignments executor index per request id (from
     *        RunResult::assignments of a previous run).
     * @param grouped whether the recorded system used arrangement.
     */
    ReplayScheduler(std::vector<int> assignments, bool grouped);

    const char *name() const override { return "replay"; }

    void dispatch(ServingEngine &engine, const Request &req) override;

  private:
    std::vector<int> assignments_;
    bool grouped_;
};

} // namespace coserve

#endif // COSERVE_BASELINES_SCHEDULERS_H
