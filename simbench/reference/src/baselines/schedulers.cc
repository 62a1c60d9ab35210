#include "baselines/schedulers.h"

#include "runtime/engine.h"
#include "util/logging.h"

namespace coserve {

void
FcfsSingleScheduler::dispatch(ServingEngine &engine, const Request &req)
{
    engine.enqueue(0, req, /*grouped=*/false);
}

void
RoundRobinScheduler::dispatch(ServingEngine &engine, const Request &req)
{
    const std::size_t target = next_ % engine.numExecutors();
    next_ += 1;
    engine.enqueue(target, req, grouped_);
}

ReplayScheduler::ReplayScheduler(std::vector<int> assignments,
                                 bool grouped)
    : assignments_(std::move(assignments)), grouped_(grouped)
{
}

void
ReplayScheduler::dispatch(ServingEngine &engine, const Request &req)
{
    COSERVE_CHECK(static_cast<std::size_t>(req.id) < assignments_.size(),
                  "no recorded assignment for request ", req.id);
    const int target = assignments_[static_cast<std::size_t>(req.id)];
    COSERVE_CHECK(target >= 0, "request ", req.id, " was never assigned");
    engine.enqueue(static_cast<std::size_t>(target), req, grouped_);
}

} // namespace coserve
