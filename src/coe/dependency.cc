#include "coe/dependency.h"

#include <algorithm>

namespace coserve {

DependencyGraph::DependencyGraph(const CoEModel &model)
    : subsequent_(model.numExperts(), 0)
{
    for (const Expert &e : model.experts()) {
        if (e.role == ExpertRole::Subsequent)
            subsequent_[static_cast<std::size_t>(e.id)] = 1;
    }
    std::vector<std::vector<ExpertId>> pre(model.numExperts());
    for (const ComponentType &c : model.components()) {
        if (c.detector == kNoExpert)
            continue;
        auto &list = pre[static_cast<std::size_t>(c.detector)];
        if (std::find(list.begin(), list.end(), c.classifier) == list.end())
            list.push_back(c.classifier);
    }
    offsets_.reserve(pre.size() + 1);
    offsets_.push_back(0);
    for (const std::vector<ExpertId> &list : pre) {
        preliminaries_.insert(preliminaries_.end(), list.begin(),
                              list.end());
        offsets_.push_back(
            static_cast<std::uint32_t>(preliminaries_.size()));
    }
}

} // namespace coserve
