/**
 * @file
 * ReferenceSim: compiled against simbench/reference/src/ with the
 * simulator's namespace renamed (see CMakeLists.txt), so every
 * simulator name used here is the frozen reference copy's.
 */

#include "reference.h"

#include <memory>

#include "util/logging.h"
#include "util/walltime.h"
#include "workloads.h"

namespace simbench {

struct ReferenceSim::Impl
{
    Kind kind = Kind::BoardBacklog;
    std::uint64_t seed = 0;
    double scale = 1.0;
    std::unique_ptr<CoEModel> model;
    std::unique_ptr<Harness> harness;
    Trace trace;
    EngineConfig cfg;
};

ReferenceSim::ReferenceSim(const char *workload, std::uint64_t seed,
                           double scale)
    : impl_(std::make_unique<Impl>())
{
    const WorkloadSpec *w = findWorkload(workload);
    COSERVE_CHECK(w != nullptr, "unknown workload ", workload);
    impl_->kind = w->kind;
    impl_->seed = seed;
    impl_->scale = scale;
    setupSeconds();
}

ReferenceSim::~ReferenceSim() = default;

double
ReferenceSim::usPerRequest()
{
    Impl &m = *impl_;
    double wallS = 0;
    if (!isCluster(m.kind)) {
        auto engine = makeCoServeEngine(m.harness->context(), m.cfg);
        const WallTimer t;
        // Named, so the result is freed after the timer stops, as in
        // simbench.cc's runOnce.
        const RunResult r = engine->run(m.trace);
        wallS = t.elapsedSeconds();
    } else {
        ClusterEngine cluster(
            clusterConfig(m.kind, m.harness->context(), m.cfg));
        const RunOptions opts = runOptions(m.kind, {});
        const WallTimer t;
        const ClusterResult r = cluster.run(m.trace, opts);
        wallS = t.elapsedSeconds();
    }
    return wallS * 1e6 / static_cast<double>(m.trace.size());
}

double
ReferenceSim::setupSeconds()
{
    Impl &m = *impl_;
    const WallTimer t;
    auto model =
        std::make_unique<CoEModel>(buildBoard(workloadBoard(m.kind)));
    auto harness = std::make_unique<Harness>(workloadDevice(m.kind), *model);
    Trace trace = generateWorkloadTrace(m.kind, *model, m.seed, m.scale);
    EngineConfig cfg = engineConfig(m.kind, *harness, trace);
    if (isCluster(m.kind))
        ClusterEngine cluster(clusterConfig(m.kind, harness->context(), cfg));
    else
        makeCoServeEngine(harness->context(), cfg);
    const double seconds = t.elapsedSeconds();
    // Replaced outside the timer, as simbench.cc replaces its Bench;
    // the old harness goes before the old model it refers to.
    m.cfg = std::move(cfg);
    m.trace = std::move(trace);
    m.harness = std::move(harness);
    m.model = std::move(model);
    return seconds;
}

} // namespace simbench
