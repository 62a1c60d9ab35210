/**
 * @file
 * The serving engine: ties executors, channels, policies and the CoE
 * model into one runnable system (paper Figure 7).
 *
 * One engine instance executes one workload trace on one configured
 * system (a CoServe variant or a Samba-CoE baseline) over the
 * discrete-event core and returns a RunResult with the paper's metrics.
 */

#ifndef COSERVE_RUNTIME_ENGINE_H
#define COSERVE_RUNTIME_ENGINE_H

#include <algorithm>
#include <memory>
#include <vector>

#include "coe/dependency.h"
#include "coe/usage.h"
#include "hw/transfer.h"
#include "metrics/run_result.h"
#include "model/footprint_model.h"
#include "model/latency_model.h"
#include "preempt/checkpoint_model.h"
#include "preempt/preempt.h"
#include "runtime/executor.h"
#include "runtime/memory_tier.h"
#include "runtime/policies.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "workload/trace.h"

namespace coserve {

class ServingEngine;

/**
 * Live load view of one serving engine, exposed to cluster-level
 * routers (cluster/router.h) in online-routing mode: what a replica is
 * *actually* doing right now, as opposed to the router's private model
 * of what it predicted the replica would do.
 *
 * fillLoadView() copies the scalar fields and per-executor loads.
 * resident() and queued() are not copied: they query the engine live
 * in O(1). They are valid only while the engine outlives the view and
 * has not changed since fillLoadView() — the coordinator's dirty-flag
 * refresh guarantees both at every read, so a live answer equals a
 * snapshot taken at fill time.
 */
struct ReplicaLoadView
{
    /** Replica virtual time at snapshot. */
    Time now = 0;
    /** Requests queued but not yet started, across all executors. */
    std::size_t queueDepth = 0;
    /** Sum of the queues' scheduler latency estimates. */
    Time backlog = 0;
    /** True when the engine has no pending events (drained). */
    bool idle = false;
    /**
     * When the replica's (serialized) storage channel frees up: a new
     * SSD load queues behind every in-flight one, so the effective
     * switch cost is the uncontended load latency plus this backlog.
     */
    Time storageFreeAt = 0;
    /** GPU load slowdown under memory pressure (engine's model). */
    double gpuPressure = 1.0;
    /**
     * Coordinator-owned routing gate (the engine never writes it, and
     * fillLoadView() leaves it as is): false while the autoscaler has
     * this replica quiesced or it crashed — routers must not send new
     * arrivals, though in-flight work still drains.
     */
    bool acceptingWork = true;
    /** Per-executor load components (see executors below). */
    struct ExecutorLoad
    {
        /** When the executor's running batch completes (<= now: idle). */
        Time busyUntil = 0;
        /** The queue's pending-work estimate. */
        Time pendingWork = 0;
    };
    /**
     * Per-executor predicted-finish components, in executor order: a
     * consumer at decision time `at` computes
     * max(at, busyUntil) + pendingWork — keeping the two parts
     * separate lets a cached snapshot stay exact while only the clock
     * has moved.
     */
    std::vector<ExecutorLoad> executors;
    /** The engine this view was filled from (null: never filled). */
    const ServingEngine *engine = nullptr;

    /**
     * @return true when @p e is resident in an executor pool (loading
     *         entries excluded): the actual resident set the offline
     *         routers only approximate with an LRU guess. Defined
     *         inline below ServingEngine, so a quote's probe is a few
     *         loads, not a call.
     */
    inline bool resident(ExpertId e) const;

    /**
     * @return true when a queued request already demands @p e. A new
     *         same-expert request joins the group and pays no switch —
     *         the paper's Section 4.2 condition, lifted to replica
     *         granularity. Inline, like resident().
     */
    inline bool queued(ExpertId e) const;
};

/**
 * One replica's cumulative epoch-sample counters, summed over replicas
 * by ServingEngine::sample().
 */
struct ReplicaSample
{
    /** Completed images, inferences and deadline rescues so far. */
    std::int64_t images = 0;
    std::int64_t inferences = 0;
    std::int64_t rescues = 0;
    /** Requests queued but not yet started. */
    std::int64_t queueDepth = 0;
    /** GPU and CPU-DRAM tier hits and misses (disk excluded). */
    std::int64_t gpuHits = 0, gpuMisses = 0;
    std::int64_t cpuHits = 0, cpuMisses = 0;
};

/** Single-use serving system instance. */
class ServingEngine
{
  public:
    /**
     * @param cfg resolved system configuration.
     * @param model CoE model served (must outlive the engine).
     * @param truth ground-truth execution latency model.
     * @param footprint memory footprint model.
     * @param usage expert usage profile (preload + eviction).
     * @param scheduler request scheduler (ownership transferred).
     * @param eviction eviction policy (ownership transferred).
     */
    ServingEngine(EngineConfig cfg, const CoEModel &model,
                  const LatencyModel &truth,
                  const FootprintModel &footprint,
                  const UsageProfile &usage,
                  std::unique_ptr<Scheduler> scheduler,
                  std::unique_ptr<EvictionPolicy> eviction);

    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    // ----- lifecycle ---------------------------------------------------
    //
    // One protocol drives every engine: beginOnline() once; then any
    // interleaving of admitPlanned (one plan) / admitArrival /
    // stepUntil / stepBefore / nextEventTime / fillLoadView / sample /
    // stealRequests / injectRequest and the fault and migration calls
    // below; then finishOnline() once. run() is that protocol driven
    // to the end over a whole trace. The cluster drives it for every
    // replica: a static replica plans its shard chunk by chunk as it
    // is routed (admitPlanned) and steps on its own between fault
    // actions and epoch samples, taking re-homed work through
    // admitArrival / injectRequest; an online
    // replica steps in lockstep on the shared virtual clock, takes
    // each arrival at its arrival time (admitArrival) and trades
    // queued-but-unstarted requests with its siblings (work stealing).
    //
    // Neither kind of arrival enters the event heap. A planned arrival
    // runs at its reserved (time, seq) slot inside a step; an online
    // one runs at its slot inside admitArrival(), which counts it as
    // an executed event, and the next step's return value includes it.

    /**
     * Serve @p trace to completion: beginOnline(0, 1), admitPlanned(),
     * stepUntil(kTimeNever), finishOnline(). An empty trace is legal (a
     * cluster replica may be routed zero requests) and yields an empty
     * result. Arrival i gets request id i, and every arrival must
     * complete. The arrivals must be time-sorted: admitPlanned()
     * fatal()s (exit 1) on the first one earlier than its predecessor.
     */
    RunResult run(const Trace &trace);

    /**
     * Start a run: resets the scheduler and preloads the pools, but
     * admits no arrivals. Callable once per engine.
     *
     * Request ids are allocated as @p idBase + k * @p idStride so a
     * coordinator can give each replica a disjoint id space (replica i
     * of N uses base i, stride N) — stolen requests keep their id, so
     * ids must be unique cluster-wide.
     */
    void beginOnline(RequestId idBase, RequestId idStride);

    /**
     * Plan known arrivals, in one call or in appended chunks; one plan
     * per engine. @p arrivals points at room for @p capacity arrivals,
     * read in place: the same pointer on every call, its storage kept
     * alive until every arrival has been stepped past. Each call plans
     * its first @p count arrivals (never fewer than the previous call;
     * those stay unchanged), and the @p last one ends the plan. The
     * caller may write arrivals beyond @p count meanwhile, from
     * another thread too.
     *
     * The first call reserves a window of @p capacity sequence
     * numbers (a cluster passes the trace size) before the first
     * step. Planned arrival k then holds the (time, seq0 + k) slot a
     * scheduled arrival event would: after the preload events, before
     * every event the run schedules at the same time, and in index
     * order. Planned arrivals never enter the event heap: each runs at
     * its slot (EventQueue::enterAt) and counts as one executed event.
     *
     * Arrival k takes the k-th id of a block from the id space (id k
     * after beginOnline(0, 1)). The @p last call fixes the block's
     * end, and later ids continue after it. An id drawn while the
     * plan is open (a detect child) is provisional: the run's
     * assignments record it at the id it would have drawn from a
     * fixed block, in draw order right after the block. Nothing may
     * crash the engine (crashDrain) before the last call.
     *
     * The arrivals must be time-sorted: each call fatal()s (exit 1) on
     * the first arrival it plans that is earlier than its predecessor,
     * naming both. stepUntil() admits them in index order; the caller
     * steps an open plan only to before the first arrival it has not
     * yet appended.
     */
    void admitPlanned(const ImageArrival *arrivals, std::size_t count,
                      std::size_t capacity, bool last);

    /**
     * Admit one arrival now: draw its request id, reserve one sequence
     * number and run the arrival at that (@p a.time, seq) slot
     * (EventQueue::enterAt) — after every event already pending at or
     * before @p a.time and the planned arrivals up to @p a.time,
     * before anything its dispatch schedules — then dispatch it (with
     * a deadline rescue first on preemption configs). It holds the
     * slot a heap event scheduled by this call would, and counts as
     * one executed event, reported by the next stepUntil() /
     * stepBefore(). @p a.time must be >= now() ("entering into the
     * past" aborts); a crashed replica refuses it.
     */
    void admitArrival(const ImageArrival &a);

    /**
     * Timestamp of the next pending event or planned arrival;
     * kTimeNever when drained.
     */
    Time
    nextEventTime()
    {
        const Time t = eq_.nextTime();
        return plannedNext_ < plannedEnd_
                   ? std::min(t, planned_[plannedNext_].time)
                   : t;
    }

    /**
     * Admit the planned arrivals and execute the events with
     * timestamp <= @p t, in (time, seq) order, then advance the clock
     * to exactly @p t (also when nothing was pending).
     * stepUntil(kTimeNever) drains the engine and leaves the clock at
     * its last event.
     *
     * @return number of events executed since the previous step
     *         returned, so including an admitArrival() in between —
     *         zero means the engine's observable state (beyond the
     *         clock) did not change, so a coordinator may keep its
     *         cached load view.
     */
    std::uint64_t stepUntil(Time t) { return step(t, t); }

    /**
     * stepUntil(@p t), but admitting only the planned arrivals before
     * @p t: a coordinator that acts at @p t (a fault) acts after every
     * event at @p t and before the arrivals at @p t.
     */
    std::uint64_t stepBefore(Time t) { return step(t - 1, t); }

    /**
     * Fill @p out with this engine's load (buffers reused; the
     * coordinator's acceptingWork gate is left as is) and bind its
     * resident()/queued() queries to this engine. O(executors).
     */
    void fillLoadView(ReplicaLoadView &out) const;

    /**
     * Add this engine's epoch-sample counters to @p acc. The hit
     * counters are the numbers behind the result's tier hit rates,
     * read without building TierStats rows (two string copies each).
     * A crashed replica adds only its pre-crash completions.
     */
    void sample(ReplicaSample &acc) const;

    /**
     * Work stealing (victim side): remove up to @p maxCount
     * queued-but-unstarted requests passing @p allow (the thief's
     * capability filter; null allows everything) from the tails of
     * this engine's executor queues — deepest queue first, never a
     * queue's head request — appending them to @p out.
     *
     * @return number of requests removed.
     */
    std::size_t stealRequests(std::size_t maxCount,
                              std::vector<Request> &out,
                              const RequestQueue::StealFilter &allow);

    /**
     * Dispatch a request taken from a sibling replica (stolen, or
     * re-homed off a crashed one) through this engine's scheduler at
     * the current virtual time. It keeps its arrival time (end-to-end
     * latency stays measured from cluster arrival) and its imageId. A
     * strided (online) replica keeps its id too, which is unique
     * cluster-wide; a replica with id stride 1 (static, or standalone)
     * numbers its own requests from its base, so it draws a fresh id
     * (RunResult::assignments is indexed by id).
     */
    void injectRequest(Request req);

    /**
     * Finish the run and move its metrics out (nothing may read the
     * engine's results afterwards); requires a drained engine (no
     * pending event or planned arrival, no stranded checkpoint). The
     * per-engine images == arrivals invariant is *not* checked here —
     * with work stealing a chain may complete on a different replica
     * than it was admitted to; run() and the cluster validate their
     * totals instead.
     */
    RunResult finishOnline();

    // ----- fault injection (cluster coordinator only) ----------------

    /**
     * Crash this replica at the current virtual time. With migration
     * on (preemption.enabled && migration), every in-flight batch (at
     * its last step boundary), parked image and outbox image is first
     * captured into @p images — no transfer charged; the restoring
     * side pays — buffering a Checkpoint PreemptEvent per captured
     * batch, in executor order. Every other queued and in-flight
     * request is appended to @p requests (for re-homing on surviving
     * replicas). All pending events and the planned arrivals not yet
     * admitted are dropped (the caller re-homes those), and the engine
     * goes permanently idle. finishOnline() still collects the metrics
     * accumulated before the crash.
     */
    void crashDrain(std::vector<CheckpointImage> &images,
                    std::vector<Request> &requests);

    /**
     * Straggler injection: scale every future batch's compute latency
     * by @p scale (>= 1 slows the replica down; 1.0 restores full
     * speed). Live load views reflect the stretched busy times, so
     * online routing and stealing see the straggler naturally.
     */
    void setComputeScale(double scale);

    /**
     * Brownout injection: scale the storage channel's bandwidth for
     * future transfers (0 < @p scale <= 1 degrades; 1.0 restores).
     */
    void setStorageRateScale(double scale);

    // ----- preemption / checkpoint / live migration ------------------
    //
    // See preempt/preempt.h for the policy and the CheckpointImage
    // contract. Engine-local deadline-rescue preemption triggers from
    // admitTimed(); the cluster coordinator drives migration through
    // requestMigrateOut / takeMigratedImages / adoptCheckpoint /
    // crashDrain. The engine buffers PreemptEvents only while it runs
    // events (a step, or the events an admitArrival() runs before its
    // slot) and during a crash's capture; the coordinator drains them into
    // its decision log at fixed points: online after every lockstep
    // step and routed arrival, static at faults, at orphans and at the
    // end, and after a crash's capture.

    /**
     * Ask up to @p maxGroups migratable running batches to pause at
     * their next step boundary and checkpoint into the migration
     * outbox (charged saves). Executors with nothing migratable are
     * skipped. Images appear in takeMigratedImages() once their save
     * transfers complete.
     *
     * @return number of pause requests issued.
     */
    std::size_t requestMigrateOut(std::size_t maxGroups);

    /** Drain the migration outbox into @p out. */
    std::size_t takeMigratedImages(std::vector<CheckpointImage> &out);

    /**
     * Restore side of migration: adopt @p img onto the least-loaded
     * executor of the matching processor kind. The restore transfer
     * (and a demand load when the expert is not resident here) is
     * charged when that executor picks the image up.
     */
    void adoptCheckpoint(CheckpointImage img);

    /** @return true when an executor of @p kind exists. */
    bool hasExecutorKind(ProcKind kind) const;

    /** Move buffered preemption decision events into @p out. */
    void drainPreemptEvents(std::vector<PreemptEvent> &out);

    // ----- API for Scheduler implementations -------------------------

    /** @return number of executors. */
    std::size_t numExecutors() const { return executors_.size(); }

    /** @return executor @p i (schedulers inspect queues/pools). */
    const Executor &executorAt(std::size_t i) const;

    /**
     * Deliver @p req to executor @p i. @p grouped selects arranged
     * insertion; @p estimate is the scheduler's predicted additional
     * latency (used for queue total-time bookkeeping).
     */
    void enqueue(std::size_t i, const Request &req, bool grouped,
                 Time estimate = 0);

    /**
     * Predicted (uncontended) switch latency if @p e had to be loaded
     * for executor @p i right now: 0 when resident or already demanded
     * by a queued request (§4.2), else the transfer-model load time.
     */
    Time predictLoadTime(std::size_t i, ExpertId e) const;

    /** Current virtual time. */
    Time now() const { return eq_.now(); }

    /** @return the served CoE model. */
    const CoEModel &model() const { return model_; }

    // ----- SLO layer -------------------------------------------------

    /** SLO accounting so far (completions against deadlines). */
    const SloStats &sloStats() const { return result_.slo; }

    /** @return ground-truth latency model. */
    const LatencyModel &truth() const { return truth_; }

    /**
     * Slowdown of GPU expert loads when resident experts crowd the
     * GPU: with the expert pool occupying more than ~80% of GPU
     * memory, the framework allocator fragments and synchronously
     * frees/compacts on every load (the "memory contention between
     * intermediate results and experts" of Section 4.4). 1.0 when the
     * batch workspace is comfortable.
     */
    double gpuMemoryPressure() const { return gpuPressure_; }

  private:
    // ----- API for Executor; ReplicaLoadView reads pools and queues ----
    friend class Executor;
    friend struct ReplicaLoadView;

    /** @return the engine configuration. */
    const EngineConfig &config() const { return cfg_; }

    /** @return this replica's span-trace buffer; null when untraced. */
    obs::ReplicaTracer *tracer() const { return cfg_.tracer; }

    /**
     * Begin loading @p e into @p exec's pool, evicting victims as
     * needed through the configured policy.
     *
     * @param isPrefetch prefetch loads may fail (return false) instead
     *        of evicting soft-pinned or unevictable entries.
     * @return true when the load was started.
     */
    bool startLoad(Executor &exec, ExpertId e, bool isPrefetch);

    /** Record completion of one inference request. */
    void onInferenceComplete(Executor &exec, const Request &req,
                             Time batchLatency);

    /** Maximum executable batch size on @p exec for @p arch. */
    int maxExecutableBatch(const Executor &exec, ArchId arch) const;

    /** @return event queue (executors schedule completions). */
    EventQueue &eventQueue() { return eq_; }

    /** @return the current compute-latency multiplier. */
    double computeScale() const { return computeScale_; }

    /**
     * Checkpoint state bytes of @p exec's running batch
     * (CheckpointModel: per-image activations + descriptor).
     */
    std::int64_t checkpointStateBytes(const Executor &exec) const;

    /**
     * Estimated (uncontended) duration of moving @p bytes of
     * checkpoint state for @p exec: over the link channel into the
     * DRAM tier when one exists, else over the storage channel to disk
     * — a cold tier is honestly slower.
     */
    Time predictCheckpointTransfer(const Executor &exec,
                                   std::int64_t bytes) const;

    /**
     * Charge a checkpoint save/restore stream of @p bytes for @p exec
     * through the real channels (FIFO contention with expert loads
     * included); @p done runs at completion.
     *
     * @return the completion time.
     */
    Time chargeCheckpointTransfer(const Executor &exec,
                                  std::int64_t bytes,
                                  EventQueue::Callback done);

    /** Executor callback: a group finished its checkpoint save. */
    void onGroupCheckpointed(Executor &exec, CheckpointImage img,
                             bool migrateOut);

    /** Executor callback: a checkpointed group resumed execution. */
    void onGroupRestored(Executor &exec, int requests);

    /**
     * Append live per-tier statistics (GPU pool, CPU pool, private
     * cache tier, disk) to @p out — the rows finishOnline() reports.
     */
    void appendTierStats(std::vector<TierStats> &out) const;

    void preload();
    /**
     * Admit the planned arrivals with time <= @p admitUntil, then run
     * the events with timestamp <= @p t (all of them for kTimeNever).
     */
    std::uint64_t
    step(Time admitUntil, Time t)
    {
        if (plannedNext_ < plannedEnd_)
            feedPlanned(admitUntil);
        if (t == kTimeNever)
            eq_.run();
        else
            eq_.runUntil(t);
        // Counted from the previous step's return, not this call's
        // start: an admitArrival() in between executed its slot.
        const std::uint64_t ran = eq_.executed() - steppedTo_;
        steppedTo_ = eq_.executed();
        return ran;
    }
    /** Admit every planned arrival with time <= @p t, in order. */
    void feedPlanned(Time t);
    /** Next request id in this engine's (possibly strided) id space. */
    RequestId allocRequestId();
    /** Record @p executor as request @p id's (RunResult::assignments). */
    void assign(RequestId id, int executor);
    /** The classify request for arrival @p a, with request id @p id. */
    Request arrivalRequest(const ImageArrival &a, RequestId id) const;
    /**
     * Arrival-time admission: try a deadline rescue (preemption
     * configs only), then dispatch. Runs at the arrival's virtual
     * time, so the rescue's estimate sees live queue state.
     */
    void admitTimed(const Request &req);
    /**
     * Deadline rescue: scan for a preemptible lower-class batch whose
     * freed slot would let @p req meet its deadline (pause boundary +
     * checkpoint save + possible expert switch + execution <= deadline)
     * and pause the best candidate.
     *
     * @return true when a preemption was issued.
     */
    bool tryPreemptFor(const Request &req);
    /**
     * Predicted completion time of @p req dispatched right now: the
     * earliest over executors of (as-is finish + Section-4.2
     * additional latency + switch), plus the detect child's execution
     * when the component chains one — deadline rescue's feasibility
     * estimate. Uses the ground-truth latency model (the
     * engine has no profiled matrix), matching the scheduler's
     * fallback path.
     */
    Time predictCompletion(const Request &req) const;
    void dispatchTimed(const Request &req);
    ArchId archOf(ExpertId e) const;
    /** Fastest available source for loading @p e into GPU memory. */
    LoadSource gpuLoadSource(ExpertId e) const;

    EngineConfig cfg_;
    const CoEModel &model_;
    const LatencyModel &truth_;
    const FootprintModel &footprint_;
    const UsageProfile &usage_;
    DependencyGraph deps_;

    EventQueue eq_;
    TransferModel transfer_;
    std::unique_ptr<BandwidthChannel> storage_;
    std::unique_ptr<BandwidthChannel> link_;
    /**
     * The memory-tier hierarchy. Executors of the same kind share one
     * pool tier (one GPU memory, one CPU DRAM). The GPU pool links
     * down to the CPU DRAM cache tier (private cpuCache_, or the
     * cluster's shared tier per EngineConfig::externalCpuTier), which
     * links down to the disk tier: evictions demote along the links.
     */
    std::unique_ptr<ModelPool> gpuPool_;
    std::unique_ptr<ModelPool> cpuPool_;
    std::vector<std::unique_ptr<Executor>> executors_;
    /** Private CPU DRAM cache tier (disabled when external is set). */
    MemoryTier cpuCache_;
    DiskTier disk_;
    /** CPU DRAM cache tier in use: &cpuCache_ or the external tier. */
    TierBelow *cpuTier_ = nullptr;

    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<EvictionPolicy> eviction_;
    CheckpointModel ckpt_;
    /** Checkpointed groups awaiting cluster-level migration pickup. */
    std::vector<CheckpointImage> migrateOutbox_;
    /** Buffered preemption decisions (see preempt.h), until drained. */
    std::vector<PreemptEvent> preemptEvents_;
    /** admitPlanned()'s arrivals, read in place. */
    const ImageArrival *planned_ = nullptr;
    /** Planned arrivals admitted so far, and appended so far. */
    std::size_t plannedNext_ = 0;
    std::size_t plannedEnd_ = 0;
    /** The reserved sequence window. */
    std::size_t plannedCapacity_ = 0;
    /** Sequence number and request id of planned arrival 0. */
    std::uint64_t plannedSeq0_ = 0;
    RequestId plannedId0_ = 0;
    /** True once admitPlanned() ran, and until its last call. */
    bool planBegun_ = false;
    bool planOpen_ = false;
    /**
     * Ids drawn while the plan is open are kProvisionalId + j; entry j
     * holds that request's executor (-1: none yet) until collection
     * records it at provisionalId0_ + j * stride.
     */
    static constexpr RequestId kProvisionalId = RequestId{1} << 62;
    std::vector<int> provisional_;
    RequestId provisionalId0_ = 0;

    /** cfg_.maxBatch as a dense [arch][kind] table (default 8). */
    int maxBatch_[kNumArchIds][kNumProcKinds] = {};
    double gpuPressure_ = 1.0;
    /** Straggler fault multiplier on batch latencies (1.0 = nominal). */
    double computeScale_ = 1.0;
    std::uint64_t loadSeq_ = 0;
    /** eq_.executed() when the last step returned (see step()). */
    std::uint64_t steppedTo_ = 0;
    /** Dispatches seen; drives 1-in-16 scheduling-wall sampling. */
    std::uint64_t dispatchCount_ = 0;
    RequestId nextRequestId_ = 0;
    /** Id increment; > 1 only for online cluster replicas. */
    RequestId requestIdStride_ = 1;
    std::int64_t imagesDone_ = 0;
    Time lastCompletion_ = 0;
    /** True once beginOnline() ran. */
    bool begun_ = false;
    /** True once crashDrain() ran (fault injection). */
    bool crashed_ = false;

    RunResult result_;
};

inline bool
ReplicaLoadView::resident(ExpertId e) const
{
    return engine != nullptr &&
           ((engine->gpuPool_ && engine->gpuPool_->resident(e)) ||
            (engine->cpuPool_ && engine->cpuPool_->resident(e)));
}

inline bool
ReplicaLoadView::queued(ExpertId e) const
{
    if (engine == nullptr)
        return false;
    for (const auto &exec : engine->executors_) {
        if (exec->queue().containsExpert(e))
            return true;
    }
    return false;
}

} // namespace coserve

#endif // COSERVE_RUNTIME_ENGINE_H
