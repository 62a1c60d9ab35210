#include "coe/coe_model.h"

#include <cmath>

#include "util/logging.h"

namespace coserve {

CoEModel::CoEModel(std::string name, std::vector<Expert> experts,
                   std::vector<ComponentType> components)
    : name_(std::move(name)), experts_(std::move(experts)),
      components_(std::move(components))
{
    validate();
}

const Expert &
CoEModel::expert(ExpertId id) const
{
    COSERVE_CHECK(id >= 0 && static_cast<std::size_t>(id) < experts_.size(),
                  "expert id out of range: ", id);
    return experts_[static_cast<std::size_t>(id)];
}

const ComponentType &
CoEModel::component(ComponentId id) const
{
    COSERVE_CHECK(id >= 0 &&
                      static_cast<std::size_t>(id) < components_.size(),
                  "component id out of range: ", id);
    return components_[static_cast<std::size_t>(id)];
}

std::int64_t
CoEModel::totalWeightBytes() const
{
    std::int64_t total = 0;
    for (const Expert &e : experts_)
        total += e.weightBytes;
    return total;
}

void
CoEModel::validate() const
{
    COSERVE_CHECK(!experts_.empty(), "CoE model needs experts");
    COSERVE_CHECK(!components_.empty(), "CoE model needs routing rules");

    for (std::size_t i = 0; i < experts_.size(); ++i) {
        const Expert &e = experts_[i];
        COSERVE_CHECK(e.id == static_cast<ExpertId>(i),
                      "expert id ", e.id, " != position ", i);
        COSERVE_CHECK(e.weightBytes > 0, "expert ", e.name,
                      " has no weights");
    }

    double probSum = 0.0;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        const ComponentType &c = components_[i];
        COSERVE_CHECK(c.id == static_cast<ComponentId>(i),
                      "component id ", c.id, " != position ", i);
        COSERVE_CHECK(c.classifier >= 0 &&
                          static_cast<std::size_t>(c.classifier) <
                              experts_.size(),
                      "component ", c.name, " has bad classifier");
        COSERVE_CHECK(expert(c.classifier).role == ExpertRole::Preliminary,
                      "classifier of ", c.name, " must be preliminary");
        if (c.detector != kNoExpert) {
            COSERVE_CHECK(static_cast<std::size_t>(c.detector) <
                              experts_.size(),
                          "component ", c.name, " has bad detector");
            COSERVE_CHECK(expert(c.detector).role == ExpertRole::Subsequent,
                          "detector of ", c.name, " must be subsequent");
        }
        COSERVE_CHECK(c.defectProb >= 0.0 && c.defectProb <= 1.0,
                      "defect probability out of range");
        COSERVE_CHECK(c.imageProb >= 0.0, "negative image probability");
        probSum += c.imageProb;
    }
    COSERVE_CHECK(std::abs(probSum - 1.0) < 1e-6,
                  "component image probabilities sum to ", probSum);
}

} // namespace coserve
