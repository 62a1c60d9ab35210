/**
 * @file
 * Ordinary least-squares line fitting.
 *
 * The paper's offline profiler models batch latency as
 * latency = K * batch_size + B (Section 4.2 / 4.5) and the memory
 * planner extrapolates throughput trends with a linear fit
 * f(N) = k * N + b (Equation 2). Both use this helper.
 */

#ifndef COSERVE_UTIL_LINEAR_FIT_H
#define COSERVE_UTIL_LINEAR_FIT_H

#include <cstddef>
#include <vector>

namespace coserve {

/** Result of a least-squares line fit y = slope * x + intercept. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]; 1 when degenerate. */
    double r2 = 1.0;

    /** Evaluate the fitted line at @p x. */
    double operator()(double x) const { return slope * x + intercept; }
};

/**
 * Fit a line through (xs[i], ys[i]) by ordinary least squares.
 *
 * @param xs abscissae; size must equal ys and be >= 2 with non-constant x.
 * @param ys ordinates.
 * @return fitted slope/intercept and R^2.
 */
LinearFit fitLine(const std::vector<double> &xs,
                  const std::vector<double> &ys);

} // namespace coserve

#endif // COSERVE_UTIL_LINEAR_FIT_H
