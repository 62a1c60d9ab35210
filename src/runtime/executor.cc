#include "runtime/executor.h"

#include <algorithm>

#include "obs/trace.h"
#include "runtime/engine.h"
#include "slo/request_class.h"
#include "util/logging.h"

namespace coserve {

namespace {

/** Highest class priority across a batch's requests. */
int
batchPriority(const std::vector<Request> &batch)
{
    int prio = 0;
    for (const Request &req : batch)
        prio = std::max(prio, priorityOf(req.cls));
    return prio;
}

} // namespace

Executor::Executor(ServingEngine &engine, int index, std::string name,
                   const ExecutorConfig &cfg, ModelPool &pool)
    : engine_(engine), index_(index), name_(std::move(name)), cfg_(cfg),
      pool_(pool)
{
    stats_.name = name_;
}

void
Executor::enqueue(const Request &req, bool grouped, Time estimate)
{
    if (grouped)
        queue_.pushGrouped(req, estimate);
    else
        queue_.pushBack(req, estimate);
    maybeStart();
}

void
Executor::maybeStart()
{
    if (executing_)
        return;
    if (queue_.empty()) {
        // Idle with no queued demand: restore a parked checkpoint if
        // one is waiting. Queued work keeps priority over restores —
        // the parked group is Batch/BestEffort by construction and
        // fills idle gaps, while its deadline accounting still runs.
        maybeRestore();
        return;
    }

    // EDF-within-priority pop order: the most urgent group runs next.
    // Classless queues answer their head group in O(1), keeping the
    // pre-SLO schedule bit-for-bit.
    const ExpertId e = queue_.nextBatchExpert();
    if (pool_.resident(e)) {
        startBatch(e);
        return;
    }
    if (pool_.loading(e))
        return; // onLoadFinished() resumes us.
    // An SLO queue may re-select while an earlier choice's demand load
    // is in flight (a more urgent arrival changed the pick): wait for
    // that load instead of stacking demand loads. Unreachable for
    // classless queues — their selection is pinned to the (stable)
    // head, whose load the branch above already caught.
    if (demandLoadStart_ >= 0)
        return;

    // Demand switch: the next expert must be fetched before we can run.
    demandLoadStart_ = engine_.now();
    const bool started = engine_.startLoad(*this, e, /*isPrefetch=*/false);
    COSERVE_CHECK(started, "demand load failed for expert ", e, " on ",
                  name_);
}

void
Executor::onLoadFinished(ExpertId e, bool wasPrefetch)
{
    if (!wasPrefetch && demandLoadStart_ >= 0) {
        stats_.loadStall += engine_.now() - demandLoadStart_;
        demandLoadStart_ = -1;
    }
    (void)e;
    if (restoring_) {
        maybeResumeRestored();
        return;
    }
    maybeStart();
}

void
Executor::onPoolChanged()
{
    if (restoring_) {
        maybeResumeRestored();
        return;
    }
    maybeStart();
}

void
Executor::clearSoftPinIf(ExpertId e)
{
    if (softPinned_ == e)
        softPinned_ = kNoExpert;
}

void
Executor::startBatch(ExpertId e)
{
    const ArchId arch = engine_.model().expert(e).arch;
    const int maxBatch = engine_.maxExecutableBatch(*this, arch);
    queue_.popBatchFor(e, maxBatch, batchScratch_);
    COSERVE_CHECK(!batchScratch_.empty(), "empty batch");

    pool_.pin(e);
    pool_.touch(e, engine_.now());
    if (softPinned_ == e) {
        pool_.softUnpin(e);
        softPinned_ = kNoExpert;
    }

    // One residency access per batch: the head expert was found
    // resident in this executor's tier.
    pool_.noteHit();

    const auto n = static_cast<int>(batchScratch_.size());
    Time latency = engine_.truth().batchLatency(arch, cfg_.kind, n);
    // Straggler injection: != 1.0 only while a fault plan slows this
    // replica, so clean runs keep the exact unscaled integer latency.
    const double slow = engine_.computeScale();
    if (slow != 1.0) {
        latency =
            static_cast<Time>(static_cast<double>(latency) * slow);
    }
    executing_ = true;
    busyUntil_ = engine_.now() + latency;

    stats_.batches += 1;
    stats_.requests += n;
    stats_.busyTime += latency;

    // Park the batch in the executor (not in the completion closure):
    // a crash between now and the completion must be able to surrender
    // the in-flight requests for re-homing.
    runningBatch_ = std::move(batchScratch_);

    // Span tracing: one queue-wait span per request (arrival to batch
    // start), and the 'f' endpoint of the detect-chain flow arrow for
    // children spawned by a classify completion.
    if (obs::ReplicaTracer *tracer = engine_.tracer()) {
        const std::int32_t tid = index_ + 1;
        for (const Request &req : runningBatch_) {
            tracer->span("queue wait", tid, req.arrival, engine_.now(),
                         {"image", req.imageId});
            if (req.stage == Stage::Detect) {
                tracer->flow("detect chain", tid, engine_.now(),
                             req.imageId, /*start=*/false);
            }
        }
    }

    // Preemption bookkeeping: where this segment is in virtual time
    // and at what per-image step boundaries it could pause.
    runningExpert_ = e;
    batchStart_ = engine_.now();
    batchLatency_ = latency;
    batchFullLatency_ = latency;
    stepLen_ = std::max<Time>(1, latency / n);
    runningPriority_ = batchPriority(runningBatch_);
    runningPreemptions_ = 0;

    // Overlap the next group's switch with this batch's execution.
    issuePrefetch();

    scheduleCompletion(e, latency, latency);
}

void
Executor::scheduleCompletion(ExpertId e, Time segLatency,
                             Time metricLatency)
{
    completionEvent_ = engine_.eventQueue().scheduleAfter(
        segLatency, [this, e, metricLatency]() {
            // The batch span must be emitted before any completion work:
            // completions can start a nested batch on this executor,
            // which overwrites batchStart_.
            if (obs::ReplicaTracer *tracer = engine_.tracer()) {
                tracer->span(
                    "batch", index_ + 1, batchStart_, engine_.now(),
                    {"expert", e},
                    {"size", static_cast<std::int64_t>(
                                 runningBatch_.size())});
            }
            executing_ = false;
            runningExpert_ = kNoExpert;
            pool_.unpin(e);
            pool_.touch(e, engine_.now());
            // Take the batch out first: completions may start a nested
            // batch on this executor, which re-parks runningBatch_.
            std::vector<Request> batch = std::move(runningBatch_);
            runningBatch_.clear();
            for (const Request &req : batch)
                engine_.onInferenceComplete(*this, req, metricLatency);
            // Hand the buffer back for the next batch. A batch started
            // by the completions above used the (empty) moved-from
            // buffer, so this keeps whichever capacity survived.
            batchScratch_ = std::move(batch);
            batchScratch_.clear();
            maybeStart();
        });
}

std::size_t
Executor::surrenderRunning(std::vector<Request> &out)
{
    // Preemption state never survives a crash: a pending pause, a
    // restore in flight or the running-segment bookkeeping are all
    // moot once the event queue is cleared.
    pausePending_ = false;
    pauseMigrate_ = false;
    pendingRemaining_ = -1;
    restoring_ = false;
    restoreTransferDone_ = false;
    runningExpert_ = kNoExpert;
    if (!executing_)
        return 0;
    const std::size_t n = runningBatch_.size();
    out.insert(out.end(), runningBatch_.begin(), runningBatch_.end());
    runningBatch_.clear();
    executing_ = false;
    busyUntil_ = engine_.now();
    demandLoadStart_ = -1;
    return n;
}

// ----- preemption / checkpoint / restore (src/preempt/) --------------

bool
Executor::preemptible(int byPriority, const PreemptionConfig &cfg) const
{
    return executing_ && !restoring_ && !pausePending_ &&
           runningExpert_ != kNoExpert &&
           runningPriority_ < byPriority &&
           runningPreemptions_ < cfg.maxPreemptionsPerGroup;
}

Time
Executor::preemptPauseTime(const PreemptionConfig &cfg) const
{
    COSERVE_CHECK(executing_ && runningExpert_ != kNoExpert,
                  "pause time of an idle executor");
    // The pause lands on the next per-image step boundary, but no
    // earlier than the min-run quantum (anti-thrash): checkpoint
    // streams snapshot between images, not mid-kernel.
    Time elapsed = engine_.now() - batchStart_;
    if (elapsed < cfg.minRunQuantum)
        elapsed = cfg.minRunQuantum;
    const Time steps = (elapsed + stepLen_ - 1) / stepLen_;
    const Time pauseAt = batchStart_ + steps * stepLen_;
    if (pauseAt >= batchStart_ + batchLatency_)
        return kTimeNever; // the batch finishes first — run it out
    return pauseAt;
}

bool
Executor::migratable(const PreemptionConfig &cfg) const
{
    if (!executing_ || restoring_ || pausePending_ ||
        runningExpert_ == kNoExpert ||
        runningPreemptions_ >= cfg.maxPreemptionsPerGroup)
        return false;
    const Time pauseAt = preemptPauseTime(cfg);
    if (pauseAt == kTimeNever)
        return false;
    return (batchStart_ + batchLatency_) - pauseAt >=
           cfg.migrationMinRemaining;
}

bool
Executor::requestPreempt(const PreemptionConfig &cfg, bool migrateOut)
{
    const Time pauseAt = preemptPauseTime(cfg);
    if (pauseAt == kTimeNever)
        return false;
    const bool cancelled = engine_.eventQueue().cancel(completionEvent_);
    COSERVE_CHECK(cancelled, "running batch without a completion event");
    pausePending_ = true;
    pauseMigrate_ = migrateOut;
    pendingRemaining_ = (batchStart_ + batchLatency_) - pauseAt;
    // Routers and predictCompletion() see the executor free after the
    // pause plus the (estimated) checkpoint save, not after the
    // original completion.
    busyUntil_ =
        pauseAt + engine_.predictCheckpointTransfer(
                      *this, engine_.checkpointStateBytes(*this));
    engine_.eventQueue().schedule(pauseAt,
                                  [this]() { onPauseBoundary(); });
    return true;
}

void
Executor::onPauseBoundary()
{
    COSERVE_CHECK(executing_ && pausePending_, "stray pause event");
    // The un-run tail leaves this executor's utilization; the restore
    // (here or on a sibling) adds it back where it actually executes.
    stats_.busyTime -= pendingRemaining_;
    const std::int64_t bytes = engine_.checkpointStateBytes(*this);
    busyUntil_ = engine_.chargeCheckpointTransfer(
        *this, bytes, [this, bytes]() { onSaveDone(bytes); });
}

void
Executor::onSaveDone(std::int64_t bytes)
{
    CheckpointImage img;
    img.expert = runningExpert_;
    img.kind = cfg_.kind;
    img.remaining = pendingRemaining_;
    img.fullLatency = batchFullLatency_;
    img.bytes = bytes;
    img.preemptions = runningPreemptions_ + 1;
    img.requests = std::move(runningBatch_);
    runningBatch_.clear();

    pool_.unpin(img.expert);
    pool_.touch(img.expert, engine_.now());
    executing_ = false;
    busyUntil_ = engine_.now();
    runningExpert_ = kNoExpert;
    pausePending_ = false;
    pendingRemaining_ = -1;
    const bool migrate = pauseMigrate_;
    pauseMigrate_ = false;

    engine_.onGroupCheckpointed(*this, std::move(img), migrate);
    maybeStart();
}

std::size_t
Executor::checkpointRunning(std::vector<CheckpointImage> &out)
{
    if (!executing_ || runningExpert_ == kNoExpert ||
        runningBatch_.empty())
        return 0;
    CheckpointImage img;
    img.expert = runningExpert_;
    img.kind = cfg_.kind;
    if (pendingRemaining_ >= 0) {
        // A pause already fired (its save was in flight): the boundary
        // snapshot it computed is the checkpoint that survives.
        img.remaining = pendingRemaining_;
    } else {
        // Crash mid-segment: the last *completed* step boundary is the
        // surviving snapshot; work since it is re-executed on restore.
        const Time elapsed = std::min(engine_.now() - batchStart_,
                                      batchLatency_);
        const Time done = (elapsed / stepLen_) * stepLen_;
        img.remaining = batchLatency_ - done;
        // The executed-but-now-lost tail (and the already-credited
        // remainder) leave this executor's utilization; the restoring
        // side re-adds what it actually runs.
        stats_.busyTime -= batchLatency_ - elapsed;
    }
    img.fullLatency = batchFullLatency_;
    img.bytes = engine_.checkpointStateBytes(*this);
    img.preemptions = runningPreemptions_;
    img.requests = std::move(runningBatch_);
    runningBatch_.clear();

    pool_.unpin(img.expert);
    executing_ = false;
    busyUntil_ = engine_.now();
    runningExpert_ = kNoExpert;
    pausePending_ = false;
    pauseMigrate_ = false;
    pendingRemaining_ = -1;
    demandLoadStart_ = -1;
    out.push_back(std::move(img));
    return 1;
}

void
Executor::adoptCheckpoint(CheckpointImage img)
{
    COSERVE_CHECK(!img.requests.empty(), "adopting an empty checkpoint");
    parked_.push_back(std::move(img));
    maybeStart();
}

std::size_t
Executor::takeParked(std::vector<CheckpointImage> &out)
{
    // A restore whose transfer is in flight stays parked_.front();
    // taking it cancels the restore (crash / migration capture — the
    // pending transfer event dies with the event queue or is simply a
    // sunk cost).
    const std::size_t n = parked_.size();
    for (CheckpointImage &img : parked_)
        out.push_back(std::move(img));
    parked_.clear();
    restoring_ = false;
    restoreTransferDone_ = false;
    return n;
}

std::size_t
Executor::surrenderParked(std::vector<Request> &out)
{
    std::size_t n = 0;
    for (CheckpointImage &img : parked_) {
        n += img.requests.size();
        out.insert(out.end(), img.requests.begin(), img.requests.end());
    }
    parked_.clear();
    restoring_ = false;
    restoreTransferDone_ = false;
    return n;
}

void
Executor::maybeRestore()
{
    if (restoring_ || parked_.empty())
        return;
    restoring_ = true;
    restoreTransferDone_ = false;
    executing_ = true; // reserve the slot for the resumed batch
    busyUntil_ = engine_.chargeCheckpointTransfer(
        *this, parked_.front().bytes, [this]() {
            restoreTransferDone_ = true;
            maybeResumeRestored();
        });
}

void
Executor::maybeResumeRestored()
{
    COSERVE_CHECK(restoring_, "resume outside a restore");
    if (!restoreTransferDone_)
        return;
    const CheckpointImage &img = parked_.front();
    if (pool_.resident(img.expert)) {
        resumeParked();
        return;
    }
    if (pool_.loading(img.expert) || demandLoadStart_ >= 0)
        return; // onLoadFinished / onPoolChanged resumes us
    // The expert was evicted while the group was parked: the restore
    // honestly pays the demand load (cold tiers make it slower).
    demandLoadStart_ = engine_.now();
    const bool started =
        engine_.startLoad(*this, img.expert, /*isPrefetch=*/false);
    COSERVE_CHECK(started, "restore load failed for expert ",
                  img.expert, " on ", name_);
}

void
Executor::resumeParked()
{
    CheckpointImage img = std::move(parked_.front());
    parked_.erase(parked_.begin());
    restoring_ = false;
    restoreTransferDone_ = false;

    pool_.pin(img.expert);
    pool_.touch(img.expert, engine_.now());
    pool_.noteHit();

    executing_ = true;
    runningExpert_ = img.expert;
    batchStart_ = engine_.now();
    batchLatency_ = img.remaining;
    batchFullLatency_ = img.fullLatency;
    stepLen_ = std::max<Time>(
        1, img.remaining /
               static_cast<Time>(std::max<std::size_t>(
                   1, img.requests.size())));
    runningPriority_ = batchPriority(img.requests);
    runningPreemptions_ = img.preemptions;
    busyUntil_ = engine_.now() + img.remaining;
    // Only the resumed tail occupies this executor (the pause already
    // returned the tail's time on the source side); batches/requests
    // were counted when the group first started, so cluster totals
    // count each group once.
    stats_.busyTime += img.remaining;

    const ExpertId e = img.expert;
    const Time remaining = img.remaining;
    const Time fullLatency = img.fullLatency;
    runningBatch_ = std::move(img.requests);
    engine_.onGroupRestored(*this,
                            static_cast<int>(runningBatch_.size()));
    issuePrefetch();
    scheduleCompletion(e, remaining, fullLatency);
}

void
Executor::issuePrefetch()
{
    if (!engine_.config().prefetch)
        return;
    const ExpertId next = queue_.prefetchExpert();
    if (next == kNoExpert || pool_.contains(next))
        return;
    if (engine_.startLoad(*this, next, /*isPrefetch=*/true)) {
        if (softPinned_ != kNoExpert && softPinned_ != next)
            pool_.softUnpin(softPinned_);
        pool_.softPin(next);
        softPinned_ = next;
    }
}

} // namespace coserve
