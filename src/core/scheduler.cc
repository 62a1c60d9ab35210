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

const DependencyAwareScheduler::ExecCost *
DependencyAwareScheduler::costRow(const ServingEngine &engine,
                                  ArchId arch) const
{
    const LatencyModel &truth = engine.truth();
    if (costsTruth_ != &truth) {
        for (int a = 0; a < kNumArchIds; ++a) {
            for (int k = 0; k < kNumProcKinds; ++k) {
                const auto id = static_cast<ArchId>(a);
                const auto proc = static_cast<ProcKind>(k);
                if ((perf_ && perf_->has(id, proc)) || truth.has(id, proc)) {
                    costs_[a][k] = {
                        execEstimate(perf_, &truth, id, proc, true),
                        execEstimate(perf_, &truth, id, proc, false)};
                } else {
                    costs_[a][k] = {};
                }
            }
        }
        costsTruth_ = &truth;
    }
    return costs_[static_cast<int>(arch)];
}

Time
DependencyAwareScheduler::priced(const ServingEngine &engine,
                                 std::size_t i, const Executor &exec,
                                 const ExecCost *row, ArchId arch,
                                 ExpertId e) const
{
    const ExecCost &cost = row[static_cast<int>(exec.kind())];
    if (cost.join == 0) // no entry: execEstimate panics with its message
        execEstimate(perf_, &engine.truth(), arch, exec.kind(), true);
    // Execution part K / K + B (Section 4.2). The switch part is zero
    // when the request joins a queued group, which already demands
    // the expert; otherwise predictLoadTime() prices it.
    if (exec.queue().containsExpert(e))
        return cost.join;
    return cost.open + engine.predictLoadTime(i, e);
}

Time
DependencyAwareScheduler::additionalLatency(const ServingEngine &engine,
                                            std::size_t i,
                                            const Request &req) const
{
    const ArchId arch = engine.model().expert(req.expert).arch;
    return priced(engine, i, engine.executorAt(i), costRow(engine, arch),
                  arch, req.expert);
}

void
DependencyAwareScheduler::dispatch(ServingEngine &engine,
                                   const Request &req)
{
    const std::size_t n = engine.numExecutors();
    COSERVE_CHECK(n > 0, "no executors");
    finish_.resize(n); // no-op once warm
    add_.resize(n);

    // One pass over the executors gathers both the as-is finish time
    // and the additional latency (the two loops of the original
    // formulation, folded), into flat arrays the pick loop only reads.
    const ArchId arch = engine.model().expert(req.expert).arch;
    const ExecCost *row = costRow(engine, arch);
    const Time now = engine.now();

    Time maxFinish = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Executor &exec = engine.executorAt(i);
        const Time finish = std::max(now, exec.busyUntil()) +
                            exec.queue().pendingWork();
        maxFinish = std::max(maxFinish, finish);
        finish_[i] = finish;
        add_[i] = priced(engine, i, exec, row, arch, req.expert);
    }

    std::size_t best = 0;
    Time bestTotal = kTimeNever;
    Time bestAdd = kTimeNever;
    for (std::size_t i = 0; i < n; ++i) {
        // Total inference time across executors if assigned to i
        // (queues run in parallel; the longest one dictates, Fig. 8).
        const Time total = std::max(maxFinish, finish_[i] + add_[i]);
        if (total < bestTotal ||
            (total == bestTotal && add_[i] < bestAdd)) {
            best = i;
            bestTotal = total;
            bestAdd = add_[i];
        }
    }

    engine.enqueue(best, req, /*grouped=*/true, bestAdd);
}

} // namespace coserve
