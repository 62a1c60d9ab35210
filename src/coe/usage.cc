#include "coe/usage.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace coserve {

UsageProfile
UsageProfile::exact(const CoEModel &model)
{
    // Weight of expert e = expected number of executions of e per image.
    std::vector<double> weight(model.numExperts(), 0.0);
    for (const ComponentType &c : model.components()) {
        weight[static_cast<std::size_t>(c.classifier)] += c.imageProb;
        if (c.detector != kNoExpert) {
            weight[static_cast<std::size_t>(c.detector)] +=
                c.imageProb * (1.0 - c.defectProb);
        }
    }
    const double total =
        std::accumulate(weight.begin(), weight.end(), 0.0);
    COSERVE_CHECK(total > 0, "degenerate usage profile");
    for (double &w : weight)
        w /= total;
    return UsageProfile(std::move(weight));
}

UsageProfile::UsageProfile(std::vector<double> probabilities)
    : prob_(std::move(probabilities))
{
    COSERVE_CHECK(!prob_.empty(), "empty usage profile");
    double sum = 0.0;
    for (double p : prob_) {
        COSERVE_CHECK(p >= 0.0, "negative probability");
        sum += p;
    }
    COSERVE_CHECK(std::abs(sum - 1.0) < 1e-6,
                  "usage probabilities sum to ", sum);
    buildDerived();
}

double
UsageProfile::probability(ExpertId e) const
{
    COSERVE_CHECK(e >= 0 && static_cast<std::size_t>(e) < prob_.size(),
                  "expert id out of range: ", e);
    return prob_[static_cast<std::size_t>(e)];
}

const std::vector<ExpertId> &
UsageProfile::byDescendingUsage() const
{
    return order_;
}

double
UsageProfile::topKMass(std::size_t k) const
{
    if (k == 0)
        return 0.0;
    return cdf_[std::min(k, cdf_.size()) - 1];
}

void
UsageProfile::buildDerived()
{
    order_.resize(prob_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::stable_sort(order_.begin(), order_.end(),
                     [&](ExpertId a, ExpertId b) {
                         return prob_[static_cast<std::size_t>(a)] >
                                prob_[static_cast<std::size_t>(b)];
                     });
    cdf_.resize(prob_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        acc += prob_[static_cast<std::size_t>(order_[i])];
        cdf_[i] = acc;
    }
}

} // namespace coserve
