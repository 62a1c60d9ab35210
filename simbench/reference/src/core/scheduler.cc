#include "core/scheduler.h"

#include <algorithm>

#include "runtime/engine.h"
#include "util/logging.h"

namespace coserve {

Time
DependencyAwareScheduler::execEstimate(const PerfMatrix *perf,
                                       const LatencyModel *truth,
                                       ArchId arch, ProcKind proc,
                                       bool joinsGroup)
{
    // Joining an existing same-expert group costs K; opening a new
    // group pays the batch overhead B as well.
    Time k = 0, b = 0;
    if (perf && perf->has(arch, proc)) {
        const PerfEntry &entry = perf->at(arch, proc);
        k = entry.k;
        b = entry.b;
    } else {
        COSERVE_CHECK(truth != nullptr,
                      "need a perf matrix or a latency model");
        const LatencyParams &p = truth->params(arch, proc);
        k = p.perImage;
        b = p.fixed;
    }
    return joinsGroup ? k : k + b;
}

Time
DependencyAwareScheduler::additionalLatency(const ServingEngine &engine,
                                            std::size_t i,
                                            const Request &req) const
{
    const ArchId arch = engine.model().expert(req.expert).arch;
    return additionalLatencyImpl(engine, i, req, arch, nullptr);
}

Time
DependencyAwareScheduler::additionalLatencyImpl(
    const ServingEngine &engine, std::size_t i, const Request &req,
    ArchId arch, ExecMemo *memo) const
{
    const Executor &exec = engine.executorAt(i);

    // Execution part (K / K + B, Section 4.2).
    const bool joinsGroup = exec.queue().containsExpert(req.expert);
    Time execPart;
    if (memo) {
        const int kindIdx = exec.kind() == ProcKind::GPU ? 0 : 1;
        if (!memo->valid[kindIdx][joinsGroup]) {
            memo->value[kindIdx][joinsGroup] = execEstimate(
                perf_, &engine.truth(), arch, exec.kind(), joinsGroup);
            memo->valid[kindIdx][joinsGroup] = true;
        }
        execPart = memo->value[kindIdx][joinsGroup];
    } else {
        execPart = execEstimate(perf_, &engine.truth(), arch,
                                exec.kind(), joinsGroup);
    }

    // Switch part: zero when resident or already demanded (Section 4.2).
    const Time switchPart = engine.predictLoadTime(i, req.expert);

    return execPart + switchPart;
}

void
DependencyAwareScheduler::dispatch(ServingEngine &engine,
                                   const Request &req)
{
    const std::size_t n = engine.numExecutors();
    COSERVE_CHECK(n > 0, "no executors");

    scratch_.clear();
    scratch_.reserve(n); // no-op once warm

    // One pass over the executors gathers both the as-is finish time
    // and the additional latency (the two loops of the original
    // formulation, folded), memoizing the execution part of the
    // estimate across executors.
    const ArchId arch = engine.model().expert(req.expert).arch;
    const Time now = engine.now();
    ExecMemo memo;

    Time maxFinish = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Executor &exec = engine.executorAt(i);
        const Time finish = std::max(now, exec.busyUntil()) +
                            exec.queue().pendingWork();
        maxFinish = std::max(maxFinish, finish);
        scratch_.push_back(
            {finish, additionalLatencyImpl(engine, i, req, arch, &memo)});
    }

    std::size_t best = 0;
    Time bestTotal = kTimeNever;
    Time bestAdd = kTimeNever;
    for (std::size_t i = 0; i < n; ++i) {
        // Total inference time across executors if assigned to i
        // (queues run in parallel; the longest one dictates, Fig. 8).
        const Time total =
            std::max(maxFinish, scratch_[i].finish + scratch_[i].add);
        if (total < bestTotal ||
            (total == bestTotal && scratch_[i].add < bestAdd)) {
            best = i;
            bestTotal = total;
            bestAdd = scratch_[i].add;
        }
    }

    engine.enqueue(best, req, /*grouped=*/true, bestAdd);
}

} // namespace coserve
