#include "cluster/router.h"

#include <algorithm>

#include "core/scheduler.h"
#include "util/logging.h"

namespace coserve {

const char *
toString(RoutingPolicy policy)
{
    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return "round-robin";
    case RoutingPolicy::LeastLoaded:
        return "least-loaded";
    case RoutingPolicy::ExpertAffinity:
        return "expert-affinity";
    }
    return "?";
}

namespace {

/** splitmix64 finalizer: spreads dense expert ids across replicas. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * First chain-capable replica at or after @p start (wrapping): an
 * assignment must not pin a component onto a replica whose context
 * lacks a perf entry for its classifier — or for the detector its
 * chain may continue on.
 */
std::size_t
firstChainCapable(const std::vector<ReplicaView> &replicas,
                  const CoEModel &model, ComponentId component,
                  std::size_t start)
{
    for (std::size_t j = 0; j < replicas.size(); ++j) {
        const std::size_t i = (start + j) % replicas.size();
        if (chainCapable(replicas[i], model, component))
            return i;
    }
    panic("no replica can serve component ",
          static_cast<int>(component));
}

class RoundRobinRouter : public ReplicaRouter
{
  public:
    RoundRobinRouter(const CoEModel &model,
                     std::vector<ReplicaView> replicas)
        : model_(model), replicas_(std::move(replicas)),
          last_(replicas_.size() - 1) // first arrival starts at 0
    {}

    const char *name() const override { return "round-robin"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        // The wheel continues from the previously *chosen* replica,
        // so incapable replicas are skipped without donating their
        // turn to a fixed successor (which would double that
        // replica's share). Identical to plain round-robin on a
        // fully-capable cluster.
        last_ = firstChainCapable(replicas_, model_, arrival.component,
                                  (last_ + 1) % replicas_.size());
        return last_;
    }

  private:
    const CoEModel &model_;
    std::vector<ReplicaView> replicas_;
    /** Replica chosen for the previous arrival (wheel position). */
    std::size_t last_;
};

class ExpertAffinityRouter : public ReplicaRouter
{
  public:
    ExpertAffinityRouter(const CoEModel &model,
                         std::vector<ReplicaView> replicas)
        : model_(model), replicas_(std::move(replicas))
    {}

    const char *name() const override { return "expert-affinity"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        return capableFrom(home(e), arrival.component);
    }

    bool usesLiveViews() const override { return true; }

    std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        // Prefer a replica that *actually* holds the classifier
        // resident right now — the hash is only a stateless guess at
        // that. The hashed home wins ties, and the fallback scan
        // wraps from it, so the mapping stays sticky instead of
        // biasing toward low replica indices. Quiesced replicas
        // (acceptingWork false, autoscaler) are skipped; the
        // coordinator re-homes the hashed fallback if needed.
        const std::size_t hashed = capableFrom(home(e), arrival.component);
        if (views[hashed].acceptingWork && views[hashed].resident(e))
            return hashed;
        for (std::size_t j = 1; j < replicas_.size(); ++j) {
            const std::size_t i = (hashed + j) % replicas_.size();
            if (views[i].acceptingWork &&
                chainCapable(replicas_[i], model_, arrival.component) &&
                views[i].resident(e))
                return i;
        }
        return hashed;
    }

  private:
    std::size_t
    home(ExpertId e) const
    {
        return static_cast<std::size_t>(
            mix64(static_cast<std::uint64_t>(e)) % replicas_.size());
    }

    std::size_t
    capableFrom(std::size_t start, ComponentId component) const
    {
        return firstChainCapable(replicas_, model_, component, start);
    }

    const CoEModel &model_;
    std::vector<ReplicaView> replicas_;
};

/**
 * Least-loaded by predicted makespan. Per replica we track (a) the
 * predicted completion time of the work routed so far and (b) an LRU
 * approximation of which experts are resident, sized from the
 * replica's pool bytes. Each candidate's cost is the dependency-aware
 * scheduler's execution estimate (K / K + B) plus the profiled load
 * latency when the expert is predicted non-resident, divided by the
 * replica's executor parallelism.
 */
class LeastLoadedRouter : public ReplicaRouter
{
  public:
    LeastLoadedRouter(const CoEModel &model,
                      std::vector<ReplicaView> replicas)
        : model_(model), replicas_(std::move(replicas))
    {
        for (const ReplicaView &view : replicas_) {
            // Footprints are per-device: size each replica's residency
            // estimate from its own context.
            std::int64_t totalBytes = 0;
            for (const Expert &e : model_.experts())
                totalBytes += view.ctx->footprint().expertBytes(e.arch);
            const std::int64_t avgBytes =
                totalBytes /
                static_cast<std::int64_t>(model_.numExperts());

            State st;
            std::int64_t poolBytes = 0;
            for (const ExecutorConfig &e : view.cfg->executors) {
                poolBytes += e.poolBytes;
                if (e.kind == ProcKind::GPU)
                    st.hasGpu = true;
            }
            st.parallelism =
                std::max<std::size_t>(1, view.cfg->executors.size());
            st.capacity = std::max<std::size_t>(
                1, static_cast<std::size_t>(poolBytes /
                                            std::max<std::int64_t>(
                                                1, avgBytes)));
            states_.push_back(std::move(st));
        }
    }

    const char *name() const override { return "least-loaded"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId expert =
            model_.component(arrival.component).classifier;
        const ArchId arch = model_.expert(expert).arch;

        std::size_t best = replicas_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            if (!chainCapable(replicas_[i], model_,
                              arrival.component))
                continue;
            const Time add = additionalLatency(i, expert, arch);
            const Time finish =
                std::max(arrival.time, states_[i].finish) + add;
            if (finish < bestFinish ||
                (finish == bestFinish && add < bestAdd)) {
                best = i;
                bestFinish = finish;
                bestAdd = add;
            }
        }
        COSERVE_CHECK(best < replicas_.size(),
                      "no replica can serve arch ",
                      static_cast<int>(arch));

        states_[best].finish = bestFinish;
        touch(states_[best], expert);
        return best;
    }

    /**
     * Online routing: replace the router's private finish model and
     * LRU residency guess with the replicas' actual state — the
     * earliest-free executor's predicted finish, and residency from
     * the replica's live pools. The prediction itself is stateless
     * (nothing drifts between arrivals); the only cross-arrival state
     * is the sticky per-expert home used for affinity hysteresis.
     */
    bool usesLiveViews() const override { return true; }

    std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views) override
    {
        const ExpertId expert =
            model_.component(arrival.component).classifier;
        const ArchId arch = model_.expert(expert).arch;

        std::size_t best = replicas_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        std::vector<Time> &finishes = liveScratch_;
        finishes.assign(replicas_.size(), kTimeNever);
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            // Quiesced replicas (autoscaler) take no new work; their
            // finishes entry stays kTimeNever, which also disarms the
            // affinity hysteresis below while a home is drained.
            if (!views[i].acceptingWork ||
                !chainCapable(replicas_[i], model_,
                              arrival.component))
                continue;
            const ReplicaView &view = replicas_[i];
            const ReplicaLoadView &live = views[i];
            const ProcKind proc =
                states_[i].hasGpu ? ProcKind::GPU : ProcKind::CPU;
            // Section 4.2 at replica granularity, with *actual* state:
            // joining an already-queued same-expert group costs K and
            // no switch; a resident expert skips the switch; anything
            // else pays K + B plus the switch — the profiled load
            // latency inflated by the replica's live GPU memory
            // pressure and queued behind its in-flight storage
            // transfers, both of which the offline router cannot see.
            const bool joins = live.queued(expert);
            const bool resident = live.resident(expert);
            Time add = DependencyAwareScheduler::execEstimate(
                &view.ctx->perf(), &view.ctx->truth(), arch, proc,
                joins);
            if (!joins && !resident)
                add += switchCost(i, arch, proc, live, arrival.time);
            // Earliest-free executor at the arrival instant: live
            // per-executor loads make the offline parallelism
            // division unnecessary.
            Time soonest = kTimeNever;
            for (const ReplicaLoadView::ExecutorLoad &ex :
                 live.executors) {
                soonest = std::min(
                    soonest, std::max(arrival.time, ex.busyUntil) +
                                 ex.pendingWork);
            }
            if (live.executors.empty())
                soonest = arrival.time;
            const Time finish = std::max(arrival.time, soonest) + add;
            finishes[i] = finish;
            if (finish < bestFinish ||
                (finish == bestFinish && add < bestAdd)) {
                best = i;
                bestFinish = finish;
                bestAdd = add;
            }
        }
        COSERVE_CHECK(best < replicas_.size(),
                      "no replica can serve arch ",
                      static_cast<int>(arch));

        // Cache-affinity hysteresis: greedy finish-minimization would
        // re-home an expert on every load-balance wobble, scattering
        // copies of the hot experts across all pools (each re-homing
        // pays a load now and evicts someone else's expert later).
        // Stay with the expert's established home unless its live
        // finish trails the greedy pick by more than one switch —
        // i.e. rebalance exactly when affinity costs more than the
        // load it saves.
        if (static_cast<std::size_t>(expert) >= home_.size())
            home_.resize(static_cast<std::size_t>(expert) + 1, SIZE_MAX);
        const std::size_t h = home_[expert];
        if (h != SIZE_MAX && h != best && finishes[h] != kTimeNever) {
            const ProcKind proc =
                states_[h].hasGpu ? ProcKind::GPU : ProcKind::CPU;
            if (finishes[h] <= bestFinish + switchCost(h, arch, proc,
                                                       views[h],
                                                       arrival.time))
                best = h;
        }
        home_[expert] = best;
        return best;
    }

  private:
    struct State
    {
        /** Predicted completion of all work routed to this replica. */
        Time finish = 0;
        /** MRU-ordered experts predicted resident (front = newest). */
        std::vector<ExpertId> resident;
        std::size_t capacity = 1;
        std::size_t parallelism = 1;
        bool hasGpu = false;
    };

    /**
     * Live switch cost of loading @p arch onto replica @p i at time
     * @p at: the profiled load latency, inflated by the replica's
     * current GPU memory pressure, queued behind its in-flight
     * storage transfers. @p at is the decision instant (the arrival
     * time) — a cached view's own clock may be older.
     */
    Time
    switchCost(std::size_t i, ArchId arch, ProcKind proc,
               const ReplicaLoadView &live, Time at) const
    {
        const ReplicaView &view = replicas_[i];
        if (!view.ctx->perf().has(arch, proc))
            return 0;
        const Time load = view.ctx->perf().at(arch, proc).loadLatency;
        Time cost = proc == ProcKind::GPU
                        ? static_cast<Time>(static_cast<double>(load) *
                                            live.gpuPressure)
                        : load;
        cost += std::max<Time>(0, live.storageFreeAt -
                                      std::max(live.now, at));
        return cost;
    }

    Time
    additionalLatency(std::size_t i, ExpertId expert, ArchId arch) const
    {
        const ReplicaView &view = replicas_[i];
        const State &st = states_[i];
        const ProcKind proc =
            st.hasGpu ? ProcKind::GPU : ProcKind::CPU;

        const bool resident =
            std::find(st.resident.begin(), st.resident.end(), expert) !=
            st.resident.end();
        // A resident expert's group is likely still queued: K only.
        const Time execPart = DependencyAwareScheduler::execEstimate(
            &view.ctx->perf(), &view.ctx->truth(), arch, proc, resident);
        Time switchPart = 0;
        if (!resident && view.ctx->perf().has(arch, proc))
            switchPart = view.ctx->perf().at(arch, proc).loadLatency;

        // Executor queues inside the replica drain in parallel; the
        // division rounds up so small estimates stay > 0 (plain
        // integer division truncates them to zero and degenerates the
        // finish/add tie-break).
        return replicaAdditionalLatency(execPart, switchPart,
                                        st.parallelism);
    }

    void
    touch(State &st, ExpertId expert)
    {
        auto it = std::find(st.resident.begin(), st.resident.end(),
                            expert);
        if (it != st.resident.end())
            st.resident.erase(it);
        st.resident.insert(st.resident.begin(), expert);
        if (st.resident.size() > st.capacity)
            st.resident.resize(st.capacity);
    }

    const CoEModel &model_;
    std::vector<ReplicaView> replicas_;
    std::vector<State> states_;
    /** Live mode: each expert's current home replica (SIZE_MAX: none). */
    std::vector<std::size_t> home_;
    /** Live mode: per-arrival finish scratch (allocation-free). */
    std::vector<Time> liveScratch_;
};

} // namespace

std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           std::vector<ReplicaView> replicas)
{
    COSERVE_CHECK(!replicas.empty(), "router needs replicas");
    for (const ReplicaView &v : replicas)
        COSERVE_CHECK(v.ctx != nullptr && v.cfg != nullptr,
                      "replica view missing context or config");

    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>(model,
                                                  std::move(replicas));
    case RoutingPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>(model,
                                                   std::move(replicas));
    case RoutingPolicy::ExpertAffinity:
        return std::make_unique<ExpertAffinityRouter>(model,
                                                      std::move(replicas));
    }
    panic("unknown routing policy");
}

} // namespace coserve
