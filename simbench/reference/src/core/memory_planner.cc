#include "core/memory_planner.h"

#include <algorithm>
#include <cmath>

#include "util/linear_fit.h"
#include "util/logging.h"

namespace coserve {

MemoryPlanner::MemoryPlanner(PlannerOptions opts) : opts_(opts)
{
    COSERVE_CHECK(opts_.initialWindow >= 1 && opts_.initialWindow < 100,
                  "initial window must be in [1, 100)");
    COSERVE_CHECK(opts_.errorMargin > 0, "error margin must be positive");
    COSERVE_CHECK(opts_.fitPoints >= 2, "need >= 2 fit points");
}

double
MemoryPlanner::decayFactor() const
{
    // Equation 1: decay_factor = 1 - initial_window_value / 100.
    return 1.0 - static_cast<double>(opts_.initialWindow) / 100.0;
}

PlannerResult
MemoryPlanner::plan(int minExperts, int maxExperts,
                    const ThroughputFn &measure)
{
    COSERVE_CHECK(minExperts >= 1 && maxExperts >= minExperts,
                  "bad expert count bounds");
    PlannerResult result;
    Rng rng(opts_.seed);

    double windowSize = static_cast<double>(opts_.initialWindow);
    double low = static_cast<double>(minExperts - 1);
    const double decay = decayFactor();

    int prevProbe = 0;
    for (int w = 0; w < opts_.maxWindows; ++w) {
        double high = low + windowSize;
        const int probeAt = std::clamp(
            static_cast<int>(std::lround(high)), minExperts, maxExperts);
        if (probeAt <= prevProbe)
            break; // window collapsed onto the previous probe
        prevProbe = probeAt;

        result.probes.push_back(
            PlannerProbe{probeAt, measure(probeAt)});
        result.windowLow = std::max(minExperts,
                                    static_cast<int>(std::lround(low)));
        result.windowHigh = probeAt;

        const auto nProbes = static_cast<int>(result.probes.size());
        if (nProbes > opts_.fitPoints) {
            // Equation 2: fit the upward trend on the first N probes.
            std::vector<double> xs, ys;
            for (int i = 0; i < opts_.fitPoints; ++i) {
                xs.push_back(
                    static_cast<double>(result.probes[i].expertCount));
                ys.push_back(result.probes[i].throughput);
            }
            const LinearFit fit = fitLine(xs, ys);
            const double predicted =
                fit(static_cast<double>(probeAt));
            const double actual = result.probes.back().throughput;
            // Equation 3: stop when the actual trend deviates.
            const double deviation =
                predicted > 0 ? (predicted - actual) / predicted : 0.0;
            if (deviation > opts_.errorMargin) {
                result.linearError = deviation;
                result.deviated = true;
                break;
            }
        }

        if (probeAt >= maxExperts)
            break;
        low = high;
        windowSize *= decay;
    }

    COSERVE_CHECK(!result.probes.empty(), "planner made no probes");
    // "CoServe randomly selects a value within the window" — the decay
    // narrowed the window enough that values inside are equivalent.
    const int span = result.windowHigh - result.windowLow;
    result.selectedCount =
        result.windowLow +
        (span > 0
             ? static_cast<int>(rng.uniformInt(
                   static_cast<std::uint64_t>(span) + 1))
             : 0);
    return result;
}

} // namespace coserve
