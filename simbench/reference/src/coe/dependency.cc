#include "coe/dependency.h"

#include <algorithm>

#include "util/logging.h"

namespace coserve {

DependencyGraph::DependencyGraph(const CoEModel &model)
    : preliminaries_(model.numExperts()),
      subsequents_(model.numExperts()),
      isSubsequent_(model.numExperts(), false)
{
    for (const Expert &e : model.experts()) {
        if (e.role == ExpertRole::Subsequent)
            isSubsequent_[static_cast<std::size_t>(e.id)] = true;
    }
    for (const ComponentType &c : model.components()) {
        if (c.detector == kNoExpert)
            continue;
        auto &pre = preliminaries_[static_cast<std::size_t>(c.detector)];
        if (std::find(pre.begin(), pre.end(), c.classifier) == pre.end())
            pre.push_back(c.classifier);
        auto &sub = subsequents_[static_cast<std::size_t>(c.classifier)];
        if (std::find(sub.begin(), sub.end(), c.detector) == sub.end())
            sub.push_back(c.detector);
    }
}

bool
DependencyGraph::isSubsequent(ExpertId e) const
{
    COSERVE_CHECK(e >= 0 &&
                      static_cast<std::size_t>(e) < isSubsequent_.size(),
                  "expert id out of range: ", e);
    return isSubsequent_[static_cast<std::size_t>(e)];
}

const std::vector<ExpertId> &
DependencyGraph::preliminariesOf(ExpertId e) const
{
    COSERVE_CHECK(e >= 0 &&
                      static_cast<std::size_t>(e) < preliminaries_.size(),
                  "expert id out of range: ", e);
    return preliminaries_[static_cast<std::size_t>(e)];
}

const std::vector<ExpertId> &
DependencyGraph::subsequentsOf(ExpertId e) const
{
    COSERVE_CHECK(e >= 0 &&
                      static_cast<std::size_t>(e) < subsequents_.size(),
                  "expert id out of range: ", e);
    return subsequents_[static_cast<std::size_t>(e)];
}

} // namespace coserve
