/**
 * @file
 * Adaptive memory allocation via the decay-window CDF search
 * (paper Section 4.4, Equations 1-3, Figures 11 and 18).
 *
 * The planner decides how much memory to dedicate to resident experts
 * versus batch intermediate results — i.e. it sizes the GPU level of
 * the memory-tier hierarchy (runtime/memory_tier.h); the tiers below
 * (CPU DRAM cache, disk) absorb whatever the chosen window evicts. On low-compute processors the
 * maximum batch size is small, so the batch workspace is sized for it
 * and the rest goes to experts. On high-compute processors the planner
 * slides a decaying window over the expert-usage CDF: at each window's
 * upper bound it loads that many experts, replays a small sample
 * workload, and measures throughput. A linear fit over the first N
 * probes (Eq. 2) extrapolates the upward trend; the window where the
 * actual throughput falls below the prediction by more than the error
 * margin (Eq. 3) is selected, and the expert count is drawn from
 * within it.
 */

#ifndef COSERVE_CORE_MEMORY_PLANNER_H
#define COSERVE_CORE_MEMORY_PLANNER_H

#include <functional>
#include <vector>

#include "util/rng.h"

namespace coserve {

/** Knobs of the decay-window search. */
struct PlannerOptions
{
    /** Initial window size in experts (paper evaluation: 15). */
    int initialWindow = 15;
    /** Error margin of Equation 3 (paper evaluation: 5%). */
    double errorMargin = 0.05;
    /** Number of leading probes used for the linear fit (N in Eq. 2). */
    int fitPoints = 3;
    /** Safety cap on the number of windows probed. */
    int maxWindows = 16;
    std::uint64_t seed = 0xD0E;
};

/** One probe of the decay-window search. */
struct PlannerProbe
{
    /** Number of experts loaded for this probe (window upper bound). */
    int expertCount = 0;
    /** Measured sample throughput (img/s). */
    double throughput = 0.0;
};

/** Outcome of the decay-window search. */
struct PlannerResult
{
    std::vector<PlannerProbe> probes;
    /** Selected window bounds (expert counts). */
    int windowLow = 0;
    int windowHigh = 0;
    /** Expert count drawn from the selected window. */
    int selectedCount = 0;
    /** Relative deviation that terminated the slide (Eq. 3). */
    double linearError = 0.0;
    /** True when the slide terminated by deviation (vs. exhaustion). */
    bool deviated = false;
};

/** Decay-window searcher. */
class MemoryPlanner
{
  public:
    /**
     * Throughput oracle: run a sample workload with @p expertCount
     * experts' worth of memory dedicated to expert loading and return
     * the measured throughput (img/s).
     */
    using ThroughputFn = std::function<double(int expertCount)>;

    /** @param opts search knobs. */
    explicit MemoryPlanner(PlannerOptions opts = {});

    /**
     * Run the search.
     *
     * @param minExperts smallest admissible expert count (>= 1).
     * @param maxExperts largest admissible expert count.
     * @param measure sample-throughput oracle.
     */
    PlannerResult plan(int minExperts, int maxExperts,
                       const ThroughputFn &measure);

    /** Decay factor from Equation 1: 1 - initialWindow / 100. */
    double decayFactor() const;

  private:
    PlannerOptions opts_;
};

} // namespace coserve

#endif // COSERVE_CORE_MEMORY_PLANNER_H
