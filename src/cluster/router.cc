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

} // namespace

CapabilityTable::CapabilityTable(const CoEModel &model,
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

std::size_t
CapabilityTable::firstChainCapable(ComponentId component,
                                   std::size_t start) const
{
    for (std::size_t j = 0; j < replicas_; ++j) {
        const std::size_t i = (start + j) % replicas_;
        if (chainOk(i, component))
            return i;
    }
    panic("no replica can serve component ", static_cast<int>(component));
}

LiveCostModel::LiveCostModel(const CoEModel &model,
                             const std::vector<ReplicaView> &replicas)
    : caps_(model, replicas)
{
    const std::size_t n = replicas.size();
    const std::size_t archs = archCount(model);
    for (const ComponentType &comp : model.components())
        classifier_.push_back(
            {comp.classifier, model.expert(comp.classifier).arch});
    proc_.resize(n, ProcKind::CPU);
    cost_.resize(archs * n);
    detect_.assign(model.numComponents() * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const ReplicaView &view = replicas[i];
        for (const ExecutorConfig &e : view.cfg->executors) {
            if (e.kind == ProcKind::GPU)
                proc_[i] = ProcKind::GPU;
        }
        // Only capable archs get costs: every replica a caller prices
        // is chain-capable, so its classifier and detector archs are.
        const PerfMatrix &perf = view.ctx->perf();
        const auto estimate = [&](ArchId arch, bool joins) {
            return DependencyAwareScheduler::execEstimate(
                &perf, &view.ctx->truth(), arch, proc_[i], joins);
        };
        for (std::size_t a = 0; a < archs; ++a) {
            const auto arch = static_cast<ArchId>(a);
            if (!caps_.archOk(i, arch))
                continue;
            ArchCost &c = cost_[a * n + i];
            c.execJoin = estimate(arch, true);
            c.execNew = estimate(arch, false);
            c.profiled = perf.has(arch, proc_[i]);
            if (c.profiled)
                c.load = perf.at(arch, proc_[i]).loadLatency;
        }
        for (std::size_t c = 0; c < model.numComponents(); ++c) {
            const ComponentType &comp =
                model.component(static_cast<ComponentId>(c));
            if (comp.detector != kNoExpert &&
                caps_.chainOk(i, static_cast<ComponentId>(c))) {
                detect_[c * n + i] =
                    estimate(model.expert(comp.detector).arch, false);
            }
        }
    }
}

LiveCostModel::Quote
LiveCostModel::quote(std::size_t i, const ImageArrival &a,
                     const ReplicaLoadView &live) const
{
    const auto [expert, arch] =
        classifier_[static_cast<std::size_t>(a.component)];
    const ArchCost &c = cost(i, arch);
    // Section 4.2 at replica granularity, with *actual* state: joining
    // an already-queued same-expert group costs K and no switch; a
    // resident expert skips the switch; anything else pays K + B plus
    // the live switch cost.
    const bool joins = live.queued(expert);
    Time add = joins ? c.execJoin : c.execNew;
    if (!joins && !live.resident(expert))
        add += switchCost(i, arch, live, a.time);
    // Earliest-free executor at the arrival instant: live per-executor
    // loads make an offline parallelism division unnecessary.
    Time soonest = a.time;
    if (!live.executors.empty()) {
        soonest = kTimeNever;
        for (const ReplicaLoadView::ExecutorLoad &ex : live.executors) {
            soonest = std::min(soonest, std::max(a.time, ex.busyUntil) +
                                            ex.pendingWork);
        }
    }
    return {std::max(a.time, soonest) + add, add};
}

void
LiveCostModel::quoteRow(const ImageArrival &a,
                        const std::vector<ReplicaLoadView> &views,
                        std::vector<Quote> &row) const
{
    row.resize(replicas());
    for (std::size_t i = 0; i < row.size(); ++i) {
        // Quiesced (autoscaler) or crashed replicas take no new work.
        row[i] = views[i].acceptingWork && caps_.chainOk(i, a.component)
                     ? quote(i, a, views[i])
                     : Quote{kTimeNever, kTimeNever};
    }
}

Time
LiveCostModel::switchCost(std::size_t i, ArchId arch,
                          const ReplicaLoadView &live, Time at) const
{
    const ArchCost &c = cost(i, arch);
    if (!c.profiled)
        return 0;
    Time t = proc_[i] == ProcKind::GPU
                 ? static_cast<Time>(static_cast<double>(c.load) *
                                     live.gpuPressure)
                 : c.load;
    t += std::max<Time>(0, live.storageFreeAt - std::max(live.now, at));
    return t;
}

namespace {

class RoundRobinRouter : public ReplicaRouter
{
  public:
    RoundRobinRouter(const CoEModel &model,
                     const std::vector<ReplicaView> &replicas)
        : caps_(model, replicas),
          last_(replicas.size() - 1) // first arrival starts at 0
    {}

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

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        return caps_.firstChainCapable(arrival.component, home(e));
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
 * Least-loaded by predicted makespan. Offline, per replica we track (a)
 * the predicted completion time of the work routed so far and (b) an
 * LRU approximation of which experts are resident, sized from the
 * replica's pool bytes. Each candidate's cost is the dependency-aware
 * scheduler's execution estimate (K / K + B) plus the profiled load
 * latency when the expert is predicted non-resident, divided by the
 * replica's executor parallelism. Online, the replicas' live views
 * replace both guesses and the LiveCostModel prices each candidate.
 * The per-(replica, arch) inputs come from the model's tables either
 * way.
 */
class LeastLoadedRouter : public ReplicaRouter
{
  public:
    /**
     * Prices with @p borrowed (see makeRouter()), or with a
     * LiveCostModel of its own when it is null.
     */
    LeastLoadedRouter(const CoEModel &model,
                      const std::vector<ReplicaView> &replicas,
                      const LiveCostModel *borrowed)
        : owned_(borrowed != nullptr
                     ? nullptr
                     : std::make_unique<const LiveCostModel>(model,
                                                             replicas)),
          costs_(borrowed != nullptr ? *borrowed : *owned_)
    {
        COSERVE_CHECK(costs_.replicas() == replicas.size(),
                      "cost model over ", costs_.replicas(),
                      " replicas routes ", replicas.size());
        for (const ReplicaView &view : replicas) {
            // Footprints are per-device: size each replica's residency
            // estimate from its own context.
            std::int64_t totalBytes = 0;
            for (const Expert &e : model.experts())
                totalBytes += view.ctx->footprint().expertBytes(e.arch);
            const std::int64_t avgBytes =
                totalBytes /
                static_cast<std::int64_t>(model.numExperts());

            std::int64_t poolBytes = 0;
            for (const ExecutorConfig &e : view.cfg->executors)
                poolBytes += e.poolBytes;
            State st(model.numExperts(),
                     std::max<std::size_t>(
                         1, static_cast<std::size_t>(
                                poolBytes /
                                std::max<std::int64_t>(1, avgBytes))));
            states_.push_back(std::move(st));
        }
        // route()'s additional latency depends only on (replica, arch,
        // predicted residency): price both residencies once.
        const std::size_t n = replicas.size();
        add_.resize(archCount(model) * n);
        for (std::size_t a = 0; a < add_.size() / n; ++a) {
            for (std::size_t i = 0; i < n; ++i) {
                const LiveCostModel::ArchCost &cost =
                    costs_.cost(i, static_cast<ArchId>(a));
                // Executor queues inside the replica drain in parallel.
                const std::size_t par = replicas[i].cfg->executors.size();
                // A resident expert's group is likely still queued: K
                // only; otherwise K + B plus the profiled load.
                add_[a * n + i] = {
                    replicaAdditionalLatency(cost.execJoin, 0, par),
                    replicaAdditionalLatency(
                        cost.execNew, cost.profiled ? cost.load : 0, par)};
            }
        }
    }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const auto [expert, arch] = costs_.classifier(arrival.component);

        std::size_t best = states_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            if (!costs_.caps().chainOk(i, arrival.component))
                continue;
            const AddCost &cost =
                add_[static_cast<std::size_t>(arch) * states_.size() + i];
            const Time add = states_[i].resident.contains(expert)
                                 ? cost.resident
                                 : cost.cold;
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
     * LRU residency guess with the replicas' actual state, priced by
     * the LiveCostModel as one quote row. The prediction itself is
     * stateless (nothing drifts between arrivals); the only
     * cross-arrival state is the sticky per-expert home used for
     * affinity hysteresis.
     */
    bool usesLiveViews() const override { return true; }

    std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views) override
    {
        costs_.quoteRow(arrival, views, liveRow_);
        return routeQuoted(arrival, views, liveRow_);
    }

    std::size_t
    routeQuoted(const ImageArrival &arrival,
                const std::vector<ReplicaLoadView> &views,
                const std::vector<LiveCostModel::Quote> &row) override
    {
        const auto [expert, arch] = costs_.classifier(arrival.component);

        std::size_t best = states_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            // Quiesced replicas (autoscaler) take no new work; their
            // row entry reads kTimeNever, which also disarms the
            // affinity hysteresis below while a home is drained.
            if (!views[i].acceptingWork ||
                !costs_.caps().chainOk(i, arrival.component))
                continue;
            const LiveCostModel::Quote &q = row[i];
            if (q.finish < bestFinish ||
                (q.finish == bestFinish && q.add < bestAdd)) {
                best = i;
                bestFinish = q.finish;
                bestAdd = q.add;
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
        if (h != SIZE_MAX && h != best && row[h].finish != kTimeNever &&
            row[h].finish <= bestFinish + costs_.switchCost(
                                              h, arch, views[h],
                                              arrival.time))
            best = h;
        home_[expert] = best;
        return best;
    }

  private:
    struct State
    {
        State(std::size_t numExperts, std::size_t capacity)
            : resident(numExperts, capacity)
        {}

        /** Predicted completion of all work routed to this replica. */
        Time finish = 0;
        /** Experts predicted resident, sized from the pool bytes. */
        ExpertLru resident;
    };

    /** route()'s additional latency on one (replica, arch) pair. */
    struct AddCost
    {
        Time resident = 0;
        Time cold = 0;
    };

    /** The router's own cost model; null when it borrows one. */
    std::unique_ptr<const LiveCostModel> owned_;
    const LiveCostModel &costs_;
    std::vector<State> states_;
    /** [arch * replicas + replica] */
    std::vector<AddCost> add_;
    /** Live mode: each expert's current home replica (SIZE_MAX: none). */
    std::vector<std::size_t> home_;
    /** routeLive()'s quote row scratch (allocation-free). */
    std::vector<LiveCostModel::Quote> liveRow_;
};

} // namespace

std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           const std::vector<ReplicaView> &replicas,
           const LiveCostModel *costs)
{
    COSERVE_CHECK(!replicas.empty(), "router needs replicas");
    for (const ReplicaView &v : replicas)
        COSERVE_CHECK(v.ctx != nullptr && v.cfg != nullptr,
                      "replica view missing context or config");

    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>(model, replicas);
    case RoutingPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>(model, replicas, costs);
    case RoutingPolicy::ExpertAffinity:
        return std::make_unique<ExpertAffinityRouter>(model, replicas);
    }
    panic("unknown routing policy");
}

} // namespace coserve
