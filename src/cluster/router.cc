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

/** @return one past the largest architecture id any expert uses. */
std::size_t
archCount(const CoEModel &model)
{
    std::size_t n = 0;
    for (const Expert &e : model.experts())
        n = std::max(n, static_cast<std::size_t>(e.arch) + 1);
    return n;
}

/**
 * Per-replica capability, computed once at router construction.
 * capable() and chainCapable() stay the single capability rule; the
 * table only caches their answers, so routing an arrival reads flat
 * bytes instead of walking each replica's perf matrix. Stored
 * replica-minor, so one arrival's scan over the replicas is
 * contiguous.
 */
class CapabilityTable
{
  public:
    CapabilityTable(const CoEModel &model,
                    const std::vector<ReplicaView> &replicas)
        : replicas_(replicas.size())
    {
        const std::size_t archs = archCount(model);
        archOk_.assign(archs * replicas_, 0);
        chainOk_.assign(model.numComponents() * replicas_, 0);
        for (std::size_t i = 0; i < replicas_; ++i) {
            for (std::size_t a = 0; a < archs; ++a) {
                archOk_[a * replicas_ + i] =
                    capable(replicas[i], static_cast<ArchId>(a));
            }
            for (std::size_t c = 0; c < model.numComponents(); ++c) {
                chainOk_[c * replicas_ + i] = chainCapable(
                    replicas[i], model, static_cast<ComponentId>(c));
            }
        }
    }

    /** @return number of replicas. */
    std::size_t replicas() const { return replicas_; }

    /** capable(replica, arch), cached. */
    bool
    archOk(std::size_t replica, ArchId arch) const
    {
        return archOk_[static_cast<std::size_t>(arch) * replicas_ +
                       replica] != 0;
    }

    /** chainCapable(replica, component), cached. */
    bool
    chainOk(std::size_t replica, ComponentId component) const
    {
        return chainOk_[static_cast<std::size_t>(component) * replicas_ +
                        replica] != 0;
    }

    /**
     * First chain-capable replica at or after @p start (wrapping): an
     * assignment must not pin a component onto a replica whose context
     * lacks a perf entry for its classifier — or for the detector its
     * chain may continue on.
     */
    std::size_t
    firstChainCapable(ComponentId component, std::size_t start) const
    {
        for (std::size_t j = 0; j < replicas_; ++j) {
            const std::size_t i = (start + j) % replicas_;
            if (chainOk(i, component))
                return i;
        }
        panic("no replica can serve component ",
              static_cast<int>(component));
    }

  private:
    std::size_t replicas_;
    /** [arch * replicas + replica] */
    std::vector<char> archOk_;
    /** [component * replicas + replica] */
    std::vector<char> chainOk_;
};

class RoundRobinRouter : public ReplicaRouter
{
  public:
    RoundRobinRouter(const CoEModel &model,
                     const std::vector<ReplicaView> &replicas)
        : caps_(model, replicas),
          last_(replicas.size() - 1) // first arrival starts at 0
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
        last_ = caps_.firstChainCapable(arrival.component,
                                        (last_ + 1) % caps_.replicas());
        return last_;
    }

  private:
    CapabilityTable caps_;
    /** Replica chosen for the previous arrival (wheel position). */
    std::size_t last_;
};

class ExpertAffinityRouter : public ReplicaRouter
{
  public:
    ExpertAffinityRouter(const CoEModel &model,
                         const std::vector<ReplicaView> &replicas)
        : model_(model), caps_(model, replicas)
    {}

    const char *name() const override { return "expert-affinity"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        return caps_.firstChainCapable(arrival.component, home(e));
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
        const std::size_t n = caps_.replicas();
        const std::size_t hashed =
            caps_.firstChainCapable(arrival.component, home(e));
        if (views[hashed].acceptingWork && views[hashed].resident(e))
            return hashed;
        for (std::size_t j = 1; j < n; ++j) {
            const std::size_t i = (hashed + j) % n;
            if (views[i].acceptingWork &&
                caps_.chainOk(i, arrival.component) &&
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
            mix64(static_cast<std::uint64_t>(e)) % caps_.replicas());
    }

    const CoEModel &model_;
    CapabilityTable caps_;
};

/**
 * LeastLoaded's residency guess for one replica: a fixed-capacity LRU
 * set over dense expert ids, kept as an intrusive doubly-linked list
 * (head = most recently routed). contains() and touch() are O(1).
 */
class ExpertLru
{
  public:
    ExpertLru(std::size_t numExperts, std::size_t capacity)
        : prev_(numExperts, kNoExpert), next_(numExperts, kNoExpert),
          inList_(numExperts, 0), capacity_(capacity)
    {}

    bool
    contains(ExpertId e) const
    {
        return inList_[static_cast<std::size_t>(e)] != 0;
    }

    /**
     * Move @p e to the head (inserting it if absent), then drop the
     * tail once the list holds more than the capacity.
     */
    void
    touch(ExpertId e)
    {
        if (contains(e))
            unlink(e);
        pushFront(e);
        if (size_ > capacity_)
            unlink(tail_);
    }

  private:
    void
    pushFront(ExpertId e)
    {
        const auto i = static_cast<std::size_t>(e);
        prev_[i] = kNoExpert;
        next_[i] = head_;
        if (head_ != kNoExpert)
            prev_[static_cast<std::size_t>(head_)] = e;
        else
            tail_ = e;
        head_ = e;
        inList_[i] = 1;
        ++size_;
    }

    void
    unlink(ExpertId e)
    {
        const auto i = static_cast<std::size_t>(e);
        const ExpertId p = prev_[i];
        const ExpertId n = next_[i];
        if (p != kNoExpert)
            next_[static_cast<std::size_t>(p)] = n;
        else
            head_ = n;
        if (n != kNoExpert)
            prev_[static_cast<std::size_t>(n)] = p;
        else
            tail_ = p;
        inList_[i] = 0;
        --size_;
    }

    std::vector<ExpertId> prev_;
    std::vector<ExpertId> next_;
    std::vector<char> inList_;
    ExpertId head_ = kNoExpert;
    ExpertId tail_ = kNoExpert;
    std::size_t size_ = 0;
    std::size_t capacity_;
};

/**
 * Least-loaded by predicted makespan. Per replica we track (a) the
 * predicted completion time of the work routed so far and (b) an LRU
 * approximation of which experts are resident, sized from the
 * replica's pool bytes. Each candidate's cost is the dependency-aware
 * scheduler's execution estimate (K / K + B) plus the profiled load
 * latency when the expert is predicted non-resident, divided by the
 * replica's executor parallelism. Those per-(replica, arch) inputs
 * never change during a run, so they are read from the perf matrix
 * once, at construction.
 */
class LeastLoadedRouter : public ReplicaRouter
{
  public:
    LeastLoadedRouter(const CoEModel &model,
                      const std::vector<ReplicaView> &replicas)
        : model_(model), caps_(model, replicas)
    {
        const std::size_t archs = archCount(model);
        for (std::size_t i = 0; i < replicas.size(); ++i) {
            const ReplicaView &view = replicas[i];
            // Footprints are per-device: size each replica's residency
            // estimate from its own context.
            std::int64_t totalBytes = 0;
            for (const Expert &e : model_.experts())
                totalBytes += view.ctx->footprint().expertBytes(e.arch);
            const std::int64_t avgBytes =
                totalBytes /
                static_cast<std::int64_t>(model_.numExperts());

            std::int64_t poolBytes = 0;
            bool hasGpu = false;
            for (const ExecutorConfig &e : view.cfg->executors) {
                poolBytes += e.poolBytes;
                hasGpu = hasGpu || e.kind == ProcKind::GPU;
            }
            State st(model_.numExperts(),
                     std::max<std::size_t>(
                         1, static_cast<std::size_t>(
                                poolBytes /
                                std::max<std::int64_t>(1, avgBytes))));
            st.parallelism =
                std::max<std::size_t>(1, view.cfg->executors.size());
            st.proc = hasGpu ? ProcKind::GPU : ProcKind::CPU;

            // Only capable archs get costs: every replica a route
            // considers is chain-capable, so its classifier arch is.
            st.cost.resize(archs);
            const PerfMatrix &perf = view.ctx->perf();
            for (std::size_t a = 0; a < archs; ++a) {
                const auto arch = static_cast<ArchId>(a);
                if (!caps_.archOk(i, arch))
                    continue;
                ArchCost &c = st.cost[a];
                c.execJoin = DependencyAwareScheduler::execEstimate(
                    &perf, &view.ctx->truth(), arch, st.proc, true);
                c.execNew = DependencyAwareScheduler::execEstimate(
                    &perf, &view.ctx->truth(), arch, st.proc, false);
                c.profiled = perf.has(arch, st.proc);
                if (c.profiled)
                    c.load = perf.at(arch, st.proc).loadLatency;
            }
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

        std::size_t best = states_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            if (!caps_.chainOk(i, arrival.component))
                continue;
            const Time add = additionalLatency(states_[i], expert, arch);
            const Time finish =
                std::max(arrival.time, states_[i].finish) + add;
            if (finish < bestFinish ||
                (finish == bestFinish && add < bestAdd)) {
                best = i;
                bestFinish = finish;
                bestAdd = add;
            }
        }
        COSERVE_CHECK(best < states_.size(),
                      "no replica can serve arch ",
                      static_cast<int>(arch));

        states_[best].finish = bestFinish;
        states_[best].resident.touch(expert);
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
        const auto archIdx = static_cast<std::size_t>(arch);

        std::size_t best = states_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        std::vector<Time> &finishes = liveScratch_;
        finishes.assign(states_.size(), kTimeNever);
        for (std::size_t i = 0; i < states_.size(); ++i) {
            // Quiesced replicas (autoscaler) take no new work; their
            // finishes entry stays kTimeNever, which also disarms the
            // affinity hysteresis below while a home is drained.
            if (!views[i].acceptingWork ||
                !caps_.chainOk(i, arrival.component))
                continue;
            const State &st = states_[i];
            const ArchCost &cost = st.cost[archIdx];
            const ReplicaLoadView &live = views[i];
            // Section 4.2 at replica granularity, with *actual* state:
            // joining an already-queued same-expert group costs K and
            // no switch; a resident expert skips the switch; anything
            // else pays K + B plus the switch — the profiled load
            // latency inflated by the replica's live GPU memory
            // pressure and queued behind its in-flight storage
            // transfers, both of which the offline router cannot see.
            const bool joins = live.queued(expert);
            const bool resident = live.resident(expert);
            Time add = joins ? cost.execJoin : cost.execNew;
            if (!joins && !resident)
                add += switchCost(st.proc, cost, live, arrival.time);
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
        COSERVE_CHECK(best < states_.size(),
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
            const State &st = states_[h];
            if (finishes[h] <= bestFinish +
                                   switchCost(st.proc, st.cost[archIdx],
                                              views[h], arrival.time))
                best = h;
        }
        home_[expert] = best;
        return best;
    }

  private:
    /** One (replica, arch) pair's profiled inputs, read once. */
    struct ArchCost
    {
        /** execEstimate joining a queued same-expert group: K. */
        Time execJoin = 0;
        /** execEstimate opening a new group: K + B. */
        Time execNew = 0;
        /** Whether perf() has the pair (no entry: no switch cost). */
        bool profiled = false;
        /** Profiled load latency (0 when not profiled). */
        Time load = 0;
    };

    struct State
    {
        State(std::size_t numExperts, std::size_t capacity)
            : resident(numExperts, capacity)
        {}

        /** Predicted completion of all work routed to this replica. */
        Time finish = 0;
        /** Experts predicted resident, sized from the pool bytes. */
        ExpertLru resident;
        std::size_t parallelism = 1;
        /** GPU when the replica has a GPU executor, else CPU. */
        ProcKind proc = ProcKind::CPU;
        /** Indexed by arch; filled for capable archs only. */
        std::vector<ArchCost> cost;
    };

    /**
     * Live switch cost of loading an arch costed by @p cost onto a
     * replica whose primary processor is @p proc, at time @p at: the
     * profiled load latency, inflated by the replica's current GPU
     * memory pressure, queued behind its in-flight storage transfers.
     * @p at is the decision instant (the arrival time) — a cached
     * view's own clock may be older.
     */
    static Time
    switchCost(ProcKind proc, const ArchCost &cost,
               const ReplicaLoadView &live, Time at)
    {
        if (!cost.profiled)
            return 0;
        Time t = proc == ProcKind::GPU
                     ? static_cast<Time>(static_cast<double>(cost.load) *
                                         live.gpuPressure)
                     : cost.load;
        t += std::max<Time>(0, live.storageFreeAt -
                                   std::max(live.now, at));
        return t;
    }

    static Time
    additionalLatency(const State &st, ExpertId expert, ArchId arch)
    {
        const ArchCost &cost = st.cost[static_cast<std::size_t>(arch)];
        // A resident expert's group is likely still queued: K only.
        const bool resident = st.resident.contains(expert);
        const Time execPart = resident ? cost.execJoin : cost.execNew;
        const Time switchPart =
            !resident && cost.profiled ? cost.load : 0;

        // Executor queues inside the replica drain in parallel; the
        // division rounds up so small estimates stay > 0 (plain
        // integer division truncates them to zero and degenerates the
        // finish/add tie-break).
        return replicaAdditionalLatency(execPart, switchPart,
                                        st.parallelism);
    }

    const CoEModel &model_;
    CapabilityTable caps_;
    std::vector<State> states_;
    /** Live mode: each expert's current home replica (SIZE_MAX: none). */
    std::vector<std::size_t> home_;
    /** Live mode: per-arrival finish scratch (allocation-free). */
    std::vector<Time> liveScratch_;
};

} // namespace

std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           const std::vector<ReplicaView> &replicas)
{
    COSERVE_CHECK(!replicas.empty(), "router needs replicas");
    for (const ReplicaView &v : replicas)
        COSERVE_CHECK(v.ctx != nullptr && v.cfg != nullptr,
                      "replica view missing context or config");

    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>(model, replicas);
    case RoutingPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>(model, replicas);
    case RoutingPolicy::ExpertAffinity:
        return std::make_unique<ExpertAffinityRouter>(model, replicas);
    }
    panic("unknown routing policy");
}

} // namespace coserve
