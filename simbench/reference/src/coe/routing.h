/**
 * @file
 * The CoE routing module (paper Figure 2).
 *
 * Routing is rule-driven: the component type of an input image selects
 * the preliminary (classification) expert; the classifier's verdict
 * decides whether a subsequent (detection) expert runs. The router is
 * deliberately side-effect free so the offline phase can replay it over
 * sample data to estimate usage probabilities (Section 4.5).
 */

#ifndef COSERVE_COE_ROUTING_H
#define COSERVE_COE_ROUTING_H

#include "coe/coe_model.h"

namespace coserve {

/** Verdict of a preliminary (classification) inference. */
enum class ClassVerdict
{
    Defective, ///< chain ends; the board part is rejected
    Ok,        ///< continue to the detection expert if the rule has one
};

/** Stateless view over a CoEModel's routing rules. */
class Router
{
  public:
    /** @param model CoE model whose rules this router applies. */
    explicit Router(const CoEModel &model) : model_(&model) {}

    /** Preliminary expert for an input of component type @p c. */
    ExpertId preliminary(ComponentId c) const
    {
        return model_->component(c).classifier;
    }

    /**
     * Subsequent expert after a preliminary verdict; kNoExpert when the
     * chain ends (defective part, or no detection rule).
     */
    ExpertId subsequent(ComponentId c, ClassVerdict verdict) const
    {
        if (verdict == ClassVerdict::Defective)
            return kNoExpert;
        return model_->component(c).detector;
    }

    /**
     * Number of inference executions an image of component @p c incurs
     * given the verdict (1 or 2).
     */
    int chainLength(ComponentId c, ClassVerdict verdict) const
    {
        return subsequent(c, verdict) == kNoExpert ? 1 : 2;
    }

    /** @return the underlying model. */
    const CoEModel &model() const { return *model_; }

  private:
    const CoEModel *model_;
};

} // namespace coserve

#endif // COSERVE_COE_ROUTING_H
