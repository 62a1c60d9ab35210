/**
 * @file
 * The Collaboration-of-Experts model: expert pool + routing rules.
 *
 * Matches the paper's Figure 2: a routing module selects a preliminary
 * expert per input; its output either produces the final result or
 * selects a subsequent expert. For circuit-board inspection each
 * component type has a dedicated classification expert; if the
 * classifier finds no defect, some components additionally route to a
 * shared object-detection expert (Section 5.1).
 *
 * Because routing rules are explicit, per-expert usage probabilities
 * and inter-expert dependencies are *computable offline* (Section 4.5)
 * — the property CoServe exploits that MoE systems lack.
 */

#ifndef COSERVE_COE_COE_MODEL_H
#define COSERVE_COE_COE_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/expert.h"

namespace coserve {

/** Dense component-type identifier. */
using ComponentId = std::int32_t;

/** One routable component type (a routing rule of the CoE model). */
struct ComponentType
{
    ComponentId id = -1;
    std::string name;
    /** Dedicated classification expert (preliminary). */
    ExpertId classifier = kNoExpert;
    /** Shared detection expert (subsequent); kNoExpert if none. */
    ExpertId detector = kNoExpert;
    /** Probability that the classifier finds a defect (ends the chain). */
    double defectProb = 0.0;
    /** Fraction of incoming images that show this component type. */
    double imageProb = 0.0;
};

/** Immutable CoE model: experts, components (routing rules). */
class CoEModel
{
  public:
    /**
     * @param name model name for reports.
     * @param experts expert pool; ids must equal vector positions.
     * @param components routing rules; imageProb must sum to ~1.
     */
    CoEModel(std::string name, std::vector<Expert> experts,
             std::vector<ComponentType> components);

    /** @return model name. */
    const std::string &name() const { return name_; }

    /** @return number of experts in the pool. */
    std::size_t numExperts() const { return experts_.size(); }

    /** @return number of component types (routing rules). */
    std::size_t numComponents() const { return components_.size(); }

    /** @return expert by id; panics when out of range. */
    const Expert &expert(ExpertId id) const;

    /** @return component type by id; panics when out of range. */
    const ComponentType &component(ComponentId id) const;

    /** @return all experts. */
    const std::vector<Expert> &experts() const { return experts_; }

    /** @return all component types. */
    const std::vector<ComponentType> &components() const
    {
        return components_;
    }

    /** Total serialized bytes of all experts (the "60 GB" figure). */
    std::int64_t totalWeightBytes() const;

  private:
    void validate() const;

    std::string name_;
    std::vector<Expert> experts_;
    std::vector<ComponentType> components_;
};

} // namespace coserve

#endif // COSERVE_COE_COE_MODEL_H
