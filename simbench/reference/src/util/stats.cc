#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace coserve {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    COSERVE_CHECK(hi > lo && buckets >= 1, "bad histogram bounds");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    const auto i = static_cast<std::size_t>((x - lo_) / width_);
    if (i >= counts_.size()) {
        ++overflow_;
        return;
    }
    ++counts_[i];
}

std::size_t
Histogram::bucketCount(std::size_t i) const
{
    COSERVE_CHECK(i < counts_.size(), "bucket index out of range");
    return counts_[i];
}

double
Histogram::bucketLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

} // namespace coserve
