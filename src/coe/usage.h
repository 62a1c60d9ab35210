/**
 * @file
 * Expert usage probabilities (Section 4.5).
 *
 * They are computed exactly from the routing rules and the known
 * component-quantity distribution ("if the routing rules are
 * predefined, expert usage probabilities can be calculated directly").
 *
 * The profile also exposes the descending-probability CDF used by the
 * memory planner's decay-window search (Section 4.4, Figure 11).
 */

#ifndef COSERVE_COE_USAGE_H
#define COSERVE_COE_USAGE_H

#include <vector>

#include "coe/coe_model.h"

namespace coserve {

/** Per-expert usage probabilities plus derived orderings. */
class UsageProfile
{
  public:
    /** Exact probabilities from routing rules (Section 4.5, way 2). */
    static UsageProfile exact(const CoEModel &model);

    /** Construct from raw probabilities (must sum to ~1). */
    explicit UsageProfile(std::vector<double> probabilities);

    /** @return P(a random inference execution uses expert @p e). */
    double probability(ExpertId e) const;

    /** @return number of experts covered. */
    std::size_t size() const { return prob_.size(); }

    /** Expert ids sorted by descending usage probability (stable). */
    const std::vector<ExpertId> &byDescendingUsage() const;

    /**
     * Total probability mass of the top @p k experts: over k, the
     * descending-usage CDF of paper Figure 11.
     */
    double topKMass(std::size_t k) const;

  private:
    /**
     * Compute order_/cdf_ from prob_. Called once, at construction:
     * the derived orderings used to be built lazily in the const
     * accessors, which is a data race once a profile is shared by
     * parallel replica threads (caught by the TSan CI lane). Eager
     * construction makes every accessor a plain read.
     */
    void buildDerived();

    std::vector<double> prob_;
    std::vector<ExpertId> order_;
    std::vector<double> cdf_;
};

} // namespace coserve

#endif // COSERVE_COE_USAGE_H
