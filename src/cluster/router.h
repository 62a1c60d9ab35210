/**
 * @file
 * Cluster-level request routing.
 *
 * A ReplicaRouter decides, for every incoming image, which serving
 * replica handles it — *before* the replica's own dependency-aware
 * scheduler picks an executor queue. Three policies:
 *
 *  - RoundRobin       arrival i -> replica i mod N; the baseline
 *                     front-end of Samba-style deployments.
 *  - LeastLoaded      predicted-makespan balancing: the same K/B +
 *                     switch-latency estimate the dependency-aware
 *                     scheduler uses per executor (Section 4.2),
 *                     lifted to replica granularity with a residency
 *                     approximation per replica.
 *  - ExpertAffinity   requests hash by their classification expert, so
 *                     all images of one component type land on one
 *                     home replica, which keeps that expert resident
 *                     (minimizes cluster-wide expert switches).
 */

#ifndef COSERVE_CLUSTER_ROUTER_H
#define COSERVE_CLUSTER_ROUTER_H

#include <memory>
#include <vector>

#include "core/coserve.h"
#include "workload/trace.h"

namespace coserve {

/** Cluster dispatch policies. */
enum class RoutingPolicy
{
    RoundRobin,
    LeastLoaded,
    ExpertAffinity,
};

/** Display name matching bench legends. */
const char *toString(RoutingPolicy policy);

/** What a router may inspect about one replica. */
struct ReplicaView
{
    /** Offline products of the replica's device (not owned). */
    const CoServeContext *ctx = nullptr;
    /** The replica's resolved engine configuration (not owned). */
    const EngineConfig *cfg = nullptr;
};

/**
 * Capability check: whether @p view's context was profiled for
 * @p arch on *every* processor kind the replica runs — the
 * dependency-aware scheduler estimates each executor's cost on
 * dispatch, so one unprofiled executor kind aborts the replica even
 * if another kind could serve the request. A heterogeneous cluster
 * may hold replicas that cannot serve some architectures; routers and
 * the work-stealing filter must both honor this single rule.
 */
inline bool
capable(const ReplicaView &view, ArchId arch)
{
    bool any = false;
    for (const ExecutorConfig &e : view.cfg->executors) {
        if (!view.ctx->perf().has(arch, e.kind))
            return false;
        any = true;
    }
    return any;
}

/**
 * Whole-chain capability: request chains stay replica-local, so a
 * routed arrival must be servable end to end — the classify stage
 * AND the detect child a non-defective classification may spawn.
 */
inline bool
chainCapable(const ReplicaView &view, const CoEModel &model,
             ComponentId component)
{
    const ComponentType &comp = model.component(component);
    if (!capable(view, model.expert(comp.classifier).arch))
        return false;
    return comp.detector == kNoExpert ||
           capable(view, model.expert(comp.detector).arch);
}

/**
 * Per-replica capability, computed once from the views. capable() and
 * chainCapable() stay the single capability rule; the table only
 * caches their answers, so routing an arrival (or filtering a steal)
 * reads flat bytes instead of walking each replica's perf matrix.
 * Stored replica-minor, so one arrival's scan over the replicas is
 * contiguous.
 */
class CapabilityTable
{
  public:
    CapabilityTable(const CoEModel &model,
                    const std::vector<ReplicaView> &replicas);

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
     * chain may continue on. Panics when no replica qualifies.
     */
    std::size_t firstChainCapable(ComponentId component,
                                  std::size_t start) const;

  private:
    std::size_t replicas_;
    /** [arch * replicas + replica] */
    std::vector<char> archOk_;
    /** [component * replicas + replica] */
    std::vector<char> chainOk_;
};

/**
 * The live Section-4.2 estimate at replica granularity: what one
 * arrival would cost on one replica, given that replica's live load
 * view. This class is the only copy of that estimate; cluster
 * admission and LeastLoaded routing both price through it. Online, the
 * coordinator prices each arrival once, as one quote row over the
 * replicas (quoteRow()): admission takes min(finish + detectAdd) from
 * the row and LeastLoaded picks from the same row (routeQuoted()).
 *
 * Everything the estimate needs from a replica's context and config
 * is fixed for a run, so the model reads it once, at construction:
 *  - the CapabilityTable, and each component's classifier and its arch;
 *  - each replica's primary processor (GPU when it runs a GPU
 *    executor, else CPU), on which every cost is priced;
 *  - one ArchCost row per (replica, capable arch): the K and K + B
 *    execution estimates and the profiled load latency;
 *  - one detect-child cost per (replica, chain-capable component):
 *    K + B of the component's detector, 0 when it has none.
 * Pricing an arrival then reads these tables and the live view only.
 */
class LiveCostModel
{
  public:
    /** One (replica, arch) pair's profiled inputs. */
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

    /** A component's classify stage: the expert and its arch. */
    struct Classifier
    {
        ExpertId expert = kNoExpert;
        ArchId arch = ArchId::Custom;
    };

    /** A priced arrival on one replica. */
    struct Quote
    {
        /** Predicted completion of the classify stage. */
        Time finish = 0;
        /** Its execution plus switch cost (finish's tie-break). */
        Time add = 0;
    };

    LiveCostModel(const CoEModel &model,
                  const std::vector<ReplicaView> &replicas);

    /** @return the cached capability rule over the replicas. */
    const CapabilityTable &caps() const { return caps_; }

    /** @return number of replicas. */
    std::size_t replicas() const { return caps_.replicas(); }

    /** Replica @p i's row for @p arch; filled for capable archs only. */
    const ArchCost &
    cost(std::size_t i, ArchId arch) const
    {
        return cost_[static_cast<std::size_t>(arch) * replicas() + i];
    }

    /**
     * Price @p a's classify stage on replica @p i from its live view
     * @p live: K when the classifier joins a queued same-expert group;
     * otherwise K + B, plus switchCost() unless the classifier is
     * resident. The work starts on the earliest-free executor (the
     * arrival instant when the view lists none), so
     * finish = max(a.time, soonest) + add. @p i must be
     * chain-capable for @p a's component.
     */
    Quote quote(std::size_t i, const ImageArrival &a,
                const ReplicaLoadView &live) const;

    /**
     * Price @p a on every replica at once: @p row[i] becomes
     * quote(i, a, views[i]) for each replica that accepts work and is
     * chain-capable for @p a's component, and {kTimeNever, kTimeNever}
     * for the rest. @p row is resized to replicas(). A quote reads
     * the arrival's time and component, never its class.
     */
    void quoteRow(const ImageArrival &a,
                  const std::vector<ReplicaLoadView> &views,
                  std::vector<Quote> &row) const;

    /**
     * Execution cost (K + B) of @p component's detect child on replica
     * @p i; 0 when the component has no detector. @p i must be
     * chain-capable for @p component.
     */
    Time
    detectAdd(std::size_t i, ComponentId component) const
    {
        return detect_[static_cast<std::size_t>(component) * replicas() +
                       i];
    }

    /**
     * Live switch cost of loading @p arch onto replica @p i at time
     * @p at: the profiled load latency, inflated on a GPU replica by
     * its current GPU memory pressure, queued behind its in-flight
     * storage transfers; 0 when the pair was never profiled. @p at is
     * the decision instant (the arrival time) — a cached view's own
     * clock may be older.
     */
    Time switchCost(std::size_t i, ArchId arch,
                    const ReplicaLoadView &live, Time at) const;

    /** @p component's classify stage, cached. */
    const Classifier &
    classifier(ComponentId component) const
    {
        return classifier_[static_cast<std::size_t>(component)];
    }

  private:
    CapabilityTable caps_;
    /** Per component. */
    std::vector<Classifier> classifier_;
    /** Primary processor per replica. */
    std::vector<ProcKind> proc_;
    /** [arch * replicas + replica] */
    std::vector<ArchCost> cost_;
    /** [component * replicas + replica] */
    std::vector<Time> detect_;
};

/** Routes each incoming image to exactly one replica. */
class ReplicaRouter
{
  public:
    virtual ~ReplicaRouter() = default;

    /** @return replica index in [0, numReplicas) for @p arrival. */
    virtual std::size_t route(const ImageArrival &arrival) = 0;

    /**
     * Online overload: route @p arrival using live replica load
     * snapshots (@p views, one per replica in construction order)
     * instead of the router's private model of replica state. The
     * base implementation ignores the views and falls back to
     * route(), so offline-only policies keep working in online mode.
     * A live policy prices the arrival's quote row
     * (LiveCostModel::quoteRow) and hands it to routeQuoted().
     */
    virtual std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views)
    {
        (void)views;
        return route(arrival);
    }

    /**
     * routeLive() from an already priced row: @p row must be
     * LiveCostModel::quoteRow(arrival, views, row) over these same
     * views, unchanged since. The coordinator prices each arrival once
     * and shares the row between cluster admission and the router.
     * A policy that prices nothing ignores the row: routeLive().
     */
    virtual std::size_t
    routeQuoted(const ImageArrival &arrival,
                const std::vector<ReplicaLoadView> &views,
                const std::vector<LiveCostModel::Quote> &row)
    {
        (void)row;
        return routeLive(arrival, views);
    }

    /**
     * Whether routeLive() actually reads the views: a coordinator may
     * skip the per-arrival snapshot and pricing work for policies that
     * fall back to the offline route().
     */
    virtual bool usesLiveViews() const { return false; }
};

/**
 * Replica-level additional-latency estimate used by the least-loaded
 * router's offline route(): the (execution + switch) cost spread over
 * the replica's executor parallelism. Rounded *up* — plain integer
 * Time division truncates sub-parallelism estimates to zero, which
 * collapses the router's finish/additional-latency tie-break into a
 * degenerate arg-min over equal keys.
 */
inline Time
replicaAdditionalLatency(Time execPart, Time switchPart,
                         std::size_t parallelism)
{
    const Time par = static_cast<Time>(parallelism > 0 ? parallelism : 1);
    return (execPart + switchPart + par - 1) / par;
}

/**
 * Build a router over @p replicas for @p model. The router reads the
 * views' contexts and configs only here, into per-replica capability
 * and cost tables; @p model must outlive the router.
 *
 * A LeastLoaded router prices with @p costs when it is given, instead
 * of building its own copy of the same tables: @p costs must be built
 * from @p model and @p replicas and outlive the router. The
 * coordinator passes its own model, so admission and routing price
 * with one copy. The other policies price nothing and ignore it.
 */
std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           const std::vector<ReplicaView> &replicas,
           const LiveCostModel *costs = nullptr);

} // namespace coserve

#endif // COSERVE_CLUSTER_ROUTER_H
