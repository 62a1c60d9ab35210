#include "slo/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace coserve {

QuantileSketch::QuantileSketch(double relativeError)
{
    COSERVE_CHECK(relativeError > 0.0 && relativeError < 1.0,
                  "relative error must be in (0, 1), got ",
                  relativeError);
    gamma_ = (1.0 + relativeError) / (1.0 - relativeError);
    logGamma_ = std::log(gamma_);
}

int
QuantileSketch::indexOf(double x) const
{
    // ceil(log_gamma(x)): bucket i covers (gamma^(i-1), gamma^i].
    return static_cast<int>(std::ceil(std::log(x) / logGamma_));
}

double
QuantileSketch::valueOf(int index) const
{
    // Geometric midpoint of (gamma^(i-1), gamma^i].
    return 2.0 * std::pow(gamma_, index) / (1.0 + gamma_);
}

std::uint64_t &
QuantileSketch::slotFor(int index)
{
    if (buckets_.empty()) {
        minIndex_ = index;
        buckets_.push_back(0);
    } else if (index < minIndex_) {
        buckets_.insert(buckets_.begin(),
                        static_cast<std::size_t>(minIndex_ - index), 0);
        minIndex_ = index;
    } else if (index >= minIndex_ + static_cast<int>(buckets_.size())) {
        buckets_.resize(static_cast<std::size_t>(index - minIndex_) + 1,
                        0);
    }
    return buckets_[static_cast<std::size_t>(index - minIndex_)];
}

void
QuantileSketch::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    count_ += 1;

    if (x <= 0.0) {
        zeroCount_ += 1;
        return;
    }
    slotFor(indexOf(x)) += 1;
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    COSERVE_CHECK(gamma_ == other.gamma_,
                  "merging sketches with different bucket ratios");
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    zeroCount_ += other.zeroCount_;
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
        if (other.buckets_[i] == 0)
            continue;
        slotFor(other.minIndex_ + static_cast<int>(i)) +=
            other.buckets_[i];
    }
}

double
QuantileSketch::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank (matching util/stats.h Samples::percentile): the
    // smallest bucket whose cumulative count covers rank.
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t cum = zeroCount_;
    if (rank <= cum && zeroCount_ > 0)
        return std::max(0.0, min_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (rank <= cum) {
            const double v = valueOf(minIndex_ + static_cast<int>(i));
            return std::clamp(v, min_, max_);
        }
    }
    return max_;
}

} // namespace coserve
