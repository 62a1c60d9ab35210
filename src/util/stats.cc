#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace coserve {

void
Samples::appendAll(const std::vector<const Samples *> &parts)
{
    std::size_t total = xs_.size();
    for (const Samples *p : parts)
        total += p->xs_.size();
    xs_.reserve(total);
    for (const Samples *p : parts)
        xs_.insert(xs_.end(), p->xs_.begin(), p->xs_.end());
}

double
Samples::mean() const
{
    if (xs_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs_)
        s += x;
    return s / static_cast<double>(xs_.size());
}

double
Samples::percentile(double p) const
{
    if (xs_.empty())
        return 0.0;
    COSERVE_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range");
    std::vector<double> sorted = xs_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace coserve
