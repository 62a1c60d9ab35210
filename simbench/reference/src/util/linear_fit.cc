#include "util/linear_fit.h"

#include <cmath>

#include "util/logging.h"

namespace coserve {

LinearFit
fitLine(const std::vector<double> &xs, const std::vector<double> &ys)
{
    COSERVE_CHECK(xs.size() == ys.size(), "size mismatch");
    COSERVE_CHECK(xs.size() >= 2, "need at least two points");

    const auto n = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    const double denom = n * sxx - sx * sx;
    COSERVE_CHECK(std::abs(denom) > 1e-12, "degenerate x values");

    LinearFit fit;
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;

    const double my = sy / n;
    double ssTot = 0, ssRes = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double e = ys[i] - fit(xs[i]);
        ssRes += e * e;
        const double d = ys[i] - my;
        ssTot += d * d;
    }
    fit.r2 = ssTot > 1e-12 ? 1.0 - ssRes / ssTot : 1.0;
    return fit;
}

} // namespace coserve
