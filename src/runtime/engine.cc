#include "runtime/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/walltime.h"

namespace coserve {

ServingEngine::ServingEngine(EngineConfig cfg, const CoEModel &model,
                             const LatencyModel &truth,
                             const FootprintModel &footprint,
                             const UsageProfile &usage,
                             std::unique_ptr<Scheduler> scheduler,
                             std::unique_ptr<EvictionPolicy> eviction)
    : cfg_(std::move(cfg)), model_(model), truth_(truth),
      footprint_(footprint), usage_(usage), deps_(model),
      transfer_(cfg_.device),
      cpuCache_("cpu.cache",
                (cfg_.cpuCacheTier && cfg_.externalCpuTier == nullptr)
                    ? cfg_.cpuCacheBytes
                    : 0,
                TierLevel::CpuDram),
      scheduler_(std::move(scheduler)), eviction_(std::move(eviction)),
      ckpt_(footprint)
{
    COSERVE_CHECK(scheduler_ != nullptr, "engine needs a scheduler");
    COSERVE_CHECK(eviction_ != nullptr, "engine needs an eviction policy");
    COSERVE_CHECK(!cfg_.executors.empty(), "config has no executors");

    // Assemble the tier hierarchy: the CPU DRAM cache tier is either
    // this engine's private tier or a cluster-shared one, and spills
    // into the disk tier; the GPU pool links onto it below.
    cpuTier_ = cfg_.externalCpuTier != nullptr ? cfg_.externalCpuTier
                                               : &cpuCache_;
    cpuCache_.linkBelow(&disk_);

    // Storage channel: SSD read + host deserialization, serialized.
    // We hand the channel a combined effective bandwidth so that
    // duration == TransferModel::storageLeg for the same byte count.
    const double storageBps =
        1.0 / (1.0 / cfg_.device.ssdBps + 1.0 / cfg_.device.deserializeBps);
    storage_ = std::make_unique<BandwidthChannel>(
        eq_, "storage", storageBps, cfg_.device.loadFixedOverhead);

    const double pci =
        cfg_.device.pciBps > 0 ? cfg_.device.pciBps : 1e18;
    const double reorg =
        cfg_.device.reorganizeBps > 0 ? cfg_.device.reorganizeBps : 1e18;
    const double linkBps = 1.0 / (1.0 / pci + 1.0 / reorg);
    link_ = std::make_unique<BandwidthChannel>(
        eq_, "link", linkBps, cfg_.device.linkFixedLatency);

    // Executors of the same kind share one model pool: there is one
    // physical GPU memory and one CPU DRAM, regardless of how many
    // executor queues drain it. Pool capacity is the sum of the
    // per-executor expert budgets.
    std::int64_t gpuPoolBytes = 0, cpuPoolBytes = 0, gpuBatchBytes = 0;
    for (const ExecutorConfig &ec : cfg_.executors) {
        COSERVE_CHECK(ec.batchMemBytes >= 0, "negative batch memory");
        COSERVE_CHECK(ec.poolBytes >= 0, "negative pool memory");
        (ec.kind == ProcKind::GPU ? gpuPoolBytes : cpuPoolBytes) +=
            ec.poolBytes;
        if (ec.kind == ProcKind::GPU)
            gpuBatchBytes += ec.batchMemBytes;
    }
    // A shared pool must hold at least two of the largest expert.
    std::int64_t largest = 0;
    for (const Expert &e : model_.experts())
        largest = std::max(largest, footprint_.expertBytes(e.arch));
    for (std::int64_t poolBytes : {gpuPoolBytes, cpuPoolBytes}) {
        if (poolBytes > 0 && poolBytes < 2 * largest) {
            fatal("shared pool too small (", poolBytes,
                  " bytes) for largest expert (", largest,
                  " bytes): need at least two experts resident");
        }
    }
    if (gpuPoolBytes > 0) {
        gpuPool_ = std::make_unique<ModelPool>("gpu.pool", gpuPoolBytes,
                                               TierLevel::Gpu);
        gpuPool_->linkBelow(cpuTier_);
    }
    if (cpuPoolBytes > 0) {
        // CPU executor pool: same DRAM as the cache tier; evictions
        // drop straight to disk (the copy is already the DRAM copy).
        cpuPool_ = std::make_unique<ModelPool>("cpu.pool", cpuPoolBytes,
                                               TierLevel::CpuDram);
    }

    // Dense copy of the profiled batch limits; 8 where none is given.
    for (auto &row : maxBatch_)
        for (int &limit : row)
            limit = 8;
    for (const auto &[key, limit] : cfg_.maxBatch)
        maxBatch_[static_cast<int>(key.first)][static_cast<int>(key.second)] =
            limit;

    // Memory-pressure slowdown of GPU loads: fraction of GPU memory
    // held by resident experts vs. batch workspace.
    if (gpuPoolBytes > 0) {
        const double fraction =
            static_cast<double>(gpuPoolBytes) /
            static_cast<double>(gpuPoolBytes + gpuBatchBytes);
        const double x =
            std::clamp((fraction - 0.60) / 0.40, 0.0, 1.0);
        gpuPressure_ = 1.0 + 1.6 * x * x;
    }

    int gpuIdx = 0, cpuIdx = 0;
    for (std::size_t i = 0; i < cfg_.executors.size(); ++i) {
        const ExecutorConfig &ec = cfg_.executors[i];
        std::string name =
            ec.kind == ProcKind::GPU
                ? "GPU" + std::to_string(gpuIdx++)
                : "CPU" + std::to_string(cpuIdx++);
        ModelPool &pool =
            ec.kind == ProcKind::GPU ? *gpuPool_ : *cpuPool_;
        executors_.push_back(std::make_unique<Executor>(
            *this, static_cast<int>(i), std::move(name), ec, pool));
    }

    // Perfetto naming: this replica is a process, executors are its
    // threads (tid i+1); tid 0 carries engine-level control events.
    if (cfg_.tracer != nullptr) {
        cfg_.tracer->setProcessName(cfg_.label);
        cfg_.tracer->setThreadName(0, "engine");
        for (std::size_t i = 0; i < executors_.size(); ++i) {
            cfg_.tracer->setThreadName(static_cast<std::int32_t>(i) + 1,
                                       executors_[i]->name());
        }
    }
}

ServingEngine::~ServingEngine() = default;

const Executor &
ServingEngine::executorAt(std::size_t i) const
{
    COSERVE_CHECK(i < executors_.size(), "executor index out of range");
    return *executors_[i];
}

void
ServingEngine::enqueue(std::size_t i, const Request &req, bool grouped,
                       Time estimate)
{
    COSERVE_CHECK(i < executors_.size(), "executor index out of range");
    if (req.id >= kProvisionalId) {
        provisional_[static_cast<std::size_t>(req.id - kProvisionalId)] =
            static_cast<int>(i);
    } else {
        assign(req.id, static_cast<int>(i));
    }
    executors_[i]->enqueue(req, grouped, estimate);
}

void
ServingEngine::assign(RequestId id, int executor)
{
    std::vector<int> &slots = result_.assignments;
    const auto i = static_cast<std::size_t>(id);
    if (i >= slots.size()) {
        // Ids come nearly in order (a replica draws every n-th one), so
        // the table mostly grows by a few entries into spare capacity:
        // push_back keeps that inline, where resize() always calls out
        // of line. Only a reallocation goes through resize(), so the
        // table grows its buffer exactly as it always has.
        if (i < slots.capacity()) {
            while (slots.size() <= i)
                slots.push_back(-1);
        } else {
            slots.resize(i + 1, -1);
        }
    }
    slots[i] = executor;
}

ArchId
ServingEngine::archOf(ExpertId e) const
{
    return model_.expert(e).arch;
}

Time
ServingEngine::predictLoadTime(std::size_t i, ExpertId e) const
{
    const Executor &exec = executorAt(i);
    if (exec.pool().contains(e))
        return 0;
    // A queued request already demands this expert: it will be loaded
    // while earlier requests execute (Section 4.2, second condition).
    if (exec.queue().containsExpert(e))
        return 0;
    const std::int64_t bytes = footprint_.expertBytes(archOf(e));
    if (exec.kind() == ProcKind::CPU) {
        // An expert cached in CPU DRAM is already executable by a CPU
        // executor — adopting it is (nearly) free.
        if (cpuTier_->holds(e))
            return cfg_.device.linkFixedLatency;
        return transfer_.loadToCpu(bytes);
    }
    const LoadSource src = gpuLoadSource(e);
    return static_cast<Time>(
        static_cast<double>(transfer_.loadToGpu(bytes, src)) *
        gpuPressure_);
}

LoadSource
ServingEngine::gpuLoadSource(ExpertId e) const
{
    // Experts already materialized in CPU DRAM — either in the cache
    // tier below the GPU pool or resident in a CPU executor's pool —
    // only need the device-handoff leg (PCIe + reorganization), not
    // the SSD read.
    if (cpuTier_->holds(e))
        return LoadSource::CpuCache;
    if (cpuPool_ && cpuPool_->resident(e))
        return LoadSource::CpuCache;
    return LoadSource::Ssd;
}

int
ServingEngine::maxExecutableBatch(const Executor &exec, ArchId arch) const
{
    if (!cfg_.batching)
        return 1;
    const int profiled =
        maxBatch_[static_cast<int>(arch)][static_cast<int>(exec.kind())];
    const std::int64_t perImage =
        footprint_.activationBytesPerImage(arch, exec.kind());
    const int memBound = static_cast<int>(
        std::max<std::int64_t>(1, exec.batchMemBytes() / perImage));
    return std::max(1, std::min(profiled, memBound));
}

bool
ServingEngine::startLoad(Executor &exec, ExpertId e, bool isPrefetch)
{
    ModelPool &pool = exec.mutablePool();
    COSERVE_CHECK(!pool.contains(e), "loading pooled expert ", e);
    const ArchId arch = archOf(e);
    const std::int64_t bytes = footprint_.expertBytes(arch);

    // Speculative loads must not queue on a saturated storage channel
    // ahead of (or behind) demand loads: defer the prefetch when its
    // SSD leg could not start immediately. Cache-sourced prefetches
    // use only the link channel and stay cheap.
    if (isPrefetch) {
        const bool needsStorage =
            exec.kind() == ProcKind::CPU
                ? !cpuTier_->holds(e)
                : gpuLoadSource(e) == LoadSource::Ssd;
        if (needsStorage && storage_->busyUntil() > eq_.now())
            return false;
    }

    const EvictionContext ctx{&deps_, &usage_, !isPrefetch};

    SwitchCounters &sc = exec.mutableStats().switches;
    while (pool.freeBytes() < bytes) {
        const std::optional<ExpertId> victim =
            eviction_->selectVictim(pool, ctx);
        if (!victim) {
            COSERVE_CHECK(isPrefetch,
                          "demand load cannot free memory on pool ",
                          pool.name());
            return false;
        }
        // Eviction walks the hierarchy: a GPU-pool victim demotes into
        // the CPU DRAM tier below (which may spill to disk); CPU-pool
        // victims have no below link and are dropped.
        const bool demoted = pool.evict(*victim, eq_.now());
        eviction_->onPoolChange(pool, *victim, false, ctx);
        for (const auto &peer : executors_) {
            if (peer->kind() == exec.kind())
                peer->clearSoftPinIf(*victim);
        }
        sc.evictions += 1;
        if (demoted)
            sc.demotions += 1;
    }

    pool.noteMiss();
    pool.beginLoad(e, bytes, ++loadSeq_);
    eviction_->onPoolChange(pool, e, true, ctx);

    // One combined lookup-and-touch on the DRAM tier: residency,
    // hit counting and recency refresh happen under a single snapshot
    // (for a cluster-shared tier, one lock acquisition instead of
    // three — siblings can no longer mutate the tier between them),
    // and the source decision, the remaining counters and the channel
    // choice below all agree on that one view.
    const bool cacheResident = cpuTier_->lookupAndTouch(e, eq_.now());
    const bool inCpuPool = cpuPool_ != nullptr && cpuPool_->resident(e);
    const bool fromCache = exec.kind() == ProcKind::GPU
                               ? (cacheResident || inCpuPool)
                               : cacheResident;
    if (fromCache) {
        sc.loadsFromCache += 1;
        if (!cacheResident) {
            // GPU load adopted from a CPU executor pool's DRAM copy.
            cpuPool_->noteHit();
        }
    } else {
        sc.loadsFromSsd += 1;
        if (cpuTier_->enabled())
            cpuTier_->noteMiss();
        disk_.noteHit();
    }
    if (isPrefetch)
        sc.prefetchLoads += 1;
    sc.bytesLoaded += bytes;
    const Time loadStart = eq_.now();

    auto finish = [this, &exec, e, bytes, fromCache, isPrefetch,
                   loadStart]() {
        if (cfg_.tracer != nullptr) {
            cfg_.tracer->span(
                fromCache ? "load cpu-dram" : "load ssd",
                exec.index() + 1, loadStart, eq_.now(), {"expert", e},
                {"prefetch", isPrefetch ? 1 : 0});
        }
        // Loads from SSD pass through CPU DRAM for deserialization;
        // the materialized copy stays in the cache tier when present.
        if (!fromCache && cpuTier_->enabled())
            cpuTier_->admit(e, bytes, eq_.now());
        exec.mutablePool().finishLoad(e, eq_.now());
        exec.onLoadFinished(e, isPrefetch);
        // The pool is shared: peers of the same kind may have been
        // waiting on this expert too.
        for (const auto &peer : executors_) {
            if (peer.get() != &exec && peer->kind() == exec.kind())
                peer->onPoolChanged();
        }
    };

    if (exec.kind() == ProcKind::CPU) {
        if (cacheResident) {
            // Same DRAM; the expert is adopted, not copied.
            eq_.scheduleAfter(cfg_.device.linkFixedLatency,
                              std::move(finish));
        } else {
            storage_->transfer(bytes, std::move(finish));
        }
    } else {
        // GPU loads slow down under memory pressure (near-full GPU:
        // allocator fragmentation); modelled as inflated transfer size.
        const auto effBytes = static_cast<std::int64_t>(
            static_cast<double>(bytes) * gpuPressure_);
        if (fromCache) {
            link_->transfer(effBytes, std::move(finish));
        } else {
            storage_->transfer(
                effBytes,
                [this, effBytes, finish = std::move(finish)]() mutable {
                    link_->transfer(effBytes, std::move(finish));
                });
        }
    }
    return true;
}

void
ServingEngine::onInferenceComplete(Executor &exec, const Request &req,
                                   Time batchLatency)
{
    (void)exec;
    result_.inferences += 1;
    result_.inferenceLatencyMs.add(toMilliseconds(batchLatency));
    result_.requestLatencyMs.add(toMilliseconds(eq_.now() - req.arrival));

    const ComponentType &comp = model_.component(req.component);
    const bool chainEnds = req.stage == Stage::Detect || req.defective ||
                           comp.detector == kNoExpert;
    if (chainEnds) {
        imagesDone_ += 1;
        lastCompletion_ = std::max(lastCompletion_, eq_.now());
        if (sloTracked(req.cls)) {
            result_.slo.recordCompletion(
                req.cls, toMilliseconds(eq_.now() - req.imageArrival),
                req.deadline != kTimeNever && eq_.now() > req.deadline);
        }
        return;
    }

    Request child;
    child.id = allocRequestId();
    child.imageId = req.imageId;
    child.component = req.component;
    child.expert = comp.detector;
    child.stage = Stage::Detect;
    child.arrival = eq_.now();
    child.defective = false;
    // The chain keeps its image-level SLO: class, absolute deadline
    // and the original image arrival all carry over.
    child.cls = req.cls;
    child.deadline = req.deadline;
    child.imageArrival = req.imageArrival;
    // Parent/child link: a flow arrow from the classify completion to
    // the detect child's batch start (the matching 'f' endpoint is
    // emitted by the executor when the child begins executing).
    if (cfg_.tracer != nullptr) {
        cfg_.tracer->flow("detect chain", exec.index() + 1, eq_.now(),
                          child.imageId, /*start=*/true);
    }
    dispatchTimed(child);
}

RequestId
ServingEngine::allocRequestId()
{
    if (planOpen_) {
        // The plan's id block has no end yet: a provisional id, whose
        // assignment lands at its final id at collection.
        provisional_.push_back(-1);
        return kProvisionalId +
               static_cast<RequestId>(provisional_.size() - 1);
    }
    const RequestId id = nextRequestId_;
    nextRequestId_ += requestIdStride_;
    return id;
}

Request
ServingEngine::arrivalRequest(const ImageArrival &a, RequestId id) const
{
    Request req;
    req.id = id;
    req.imageId = id;
    req.component = a.component;
    req.expert = model_.component(a.component).classifier;
    req.stage = Stage::Classify;
    req.arrival = a.time;
    req.defective = a.defective;
    req.cls = a.cls;
    req.deadline = a.deadline;
    req.imageArrival = a.time;
    return req;
}

void
ServingEngine::admitTimed(const Request &req)
{
    // Deadline rescue: pausing a lower-class batch can free a slot in
    // time for an arrival that would otherwise miss its deadline.
    if (cfg_.preemption.enabled && req.deadline != kTimeNever &&
        sloTracked(req.cls) && predictCompletion(req) > req.deadline) {
        tryPreemptFor(req);
    }
    dispatchTimed(req);
}

Time
ServingEngine::predictCompletion(const Request &req) const
{
    const ArchId arch = archOf(req.expert);
    const ComponentType &comp = model_.component(req.component);
    const Time now = eq_.now();
    Time best = kTimeNever;
    for (std::size_t i = 0; i < executors_.size(); ++i) {
        const Executor &exec = *executors_[i];
        // K when an existing same-expert group absorbs the request,
        // K + B when it opens a new one (Section 4.2) — the ground
        // truth stands in for the profiled matrix, exactly like the
        // scheduler's fallback path.
        const LatencyParams &p = truth_.params(arch, exec.kind());
        Time add = exec.queue().containsExpert(req.expert)
                       ? p.perImage
                       : p.perImage + p.fixed;
        add += predictLoadTime(i, req.expert);
        if (req.stage == Stage::Classify && comp.detector != kNoExpert) {
            // The deadline covers the whole chain; charge the detect
            // child's execution (its switch usually overlaps or hits
            // an arranged group, so only K + B is added).
            const LatencyParams &d = truth_.params(
                archOf(comp.detector), exec.kind());
            add += d.perImage + d.fixed;
        }
        const Time finish = std::max(now, exec.busyUntil()) +
                            exec.queue().pendingWork() + add;
        best = std::min(best, finish);
    }
    return best;
}

bool
ServingEngine::tryPreemptFor(const Request &req)
{
    const int prio = priorityOf(req.cls);
    const ArchId arch = archOf(req.expert);
    const ComponentType &comp = model_.component(req.component);
    std::size_t best = executors_.size();
    Time bestFinish = kTimeNever;
    for (std::size_t i = 0; i < executors_.size(); ++i) {
        const Executor &exec = *executors_[i];
        if (!exec.preemptible(prio, cfg_.preemption))
            continue;
        const Time pauseAt = exec.preemptPauseTime(cfg_.preemption);
        if (pauseAt == kTimeNever)
            continue;
        // The slot frees after the pause boundary plus the checkpoint
        // save; the rescued request then pays its own switch and run —
        // mirroring predictCompletion()'s per-executor estimate.
        const Time avail =
            pauseAt + predictCheckpointTransfer(
                          exec, checkpointStateBytes(exec));
        const LatencyParams &p = truth_.params(arch, exec.kind());
        Time add = p.perImage + p.fixed + predictLoadTime(i, req.expert);
        if (req.stage == Stage::Classify && comp.detector != kNoExpert) {
            const LatencyParams &d =
                truth_.params(archOf(comp.detector), exec.kind());
            add += d.perImage + d.fixed;
        }
        const Time finish = avail + add;
        if (finish < bestFinish) {
            bestFinish = finish;
            best = i;
        }
    }
    // Preempt only when the rescue actually lands the deadline — a
    // pause that still misses would charge checkpoint churn for
    // nothing and burn the victim's hysteresis budget.
    if (best == executors_.size() || bestFinish > req.deadline)
        return false;
    return executors_[best]->requestPreempt(cfg_.preemption,
                                            /*migrateOut=*/false);
}

void
ServingEngine::dispatchTimed(const Request &req)
{
    // Two clock reads per dispatch are measurable on the hot path;
    // 1-in-16 sampling keeps the Figure 19 overhead estimate unbiased
    // (dispatch cost does not correlate with the sample phase) while
    // making the common case a plain virtual call.
    if ((dispatchCount_++ & 0xF) != 0) {
        scheduler_->dispatch(*this, req);
        return;
    }
    const WallTimer timer;
    scheduler_->dispatch(*this, req);
    result_.schedulingWallUs.add(timer.elapsedMicros());
}

void
ServingEngine::preload()
{
    std::vector<ExpertId> order;
    if (cfg_.preloadByUsage) {
        order = usage_.byDescendingUsage();
    } else {
        // Usage-agnostic warm state: deterministic shuffle.
        order.resize(model_.numExperts());
        std::iota(order.begin(), order.end(), 0);
        Rng rng(0x5EED);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.uniformInt(i)]);
    }

    // Round-robin distribution by descending usage (Section 4.1).
    const EvictionContext ctx{&deps_, &usage_};
    std::size_t cursor = 0;
    std::vector<ExpertId> overflow;
    for (ExpertId e : order) {
        const std::int64_t bytes = footprint_.expertBytes(archOf(e));
        bool placed = false;
        for (std::size_t attempt = 0;
             attempt < executors_.size() && !placed; ++attempt) {
            Executor &exec =
                *executors_[(cursor + attempt) % executors_.size()];
            ModelPool &pool = exec.mutablePool();
            if (pool.freeBytes() >= bytes) {
                pool.insertResident(e, bytes, ++loadSeq_, 0);
                eviction_->onPoolChange(pool, e, true, ctx);
                cursor = (cursor + attempt + 1) % executors_.size();
                placed = true;
            }
        }
        if (!placed)
            overflow.push_back(e);
    }
    // Remaining experts warm the CPU DRAM tier when present (never
    // evicting what an earlier warm — or, for a cluster-shared tier, a
    // sibling replica — already placed).
    for (ExpertId e : overflow) {
        if (!cpuTier_->enabled())
            break;
        const std::int64_t bytes = footprint_.expertBytes(archOf(e));
        if (!cpuTier_->warm(e, bytes))
            break;
    }
}

RunResult
ServingEngine::run(const Trace &trace)
{
    beginOnline(0, 1);
    admitPlanned(trace.arrivals.data(), trace.size(), trace.size(), true);
    stepUntil(kTimeNever);
    RunResult result = finishOnline();
    // Every arrival completes; anything else is a lost request.
    COSERVE_CHECK(result.images ==
                      static_cast<std::int64_t>(trace.arrivals.size()),
                  "lost images: ", result.images, " done of ",
                  trace.arrivals.size());
    return result;
}

void
ServingEngine::appendTierStats(std::vector<TierStats> &out) const
{
    // Per-tier counters, top to bottom. A cluster-shared CPU tier is
    // owned (and reported) by the cluster, not by this engine.
    if (gpuPool_)
        out.push_back(gpuPool_->stats());
    if (cpuPool_)
        out.push_back(cpuPool_->stats());
    if (cfg_.externalCpuTier == nullptr && cpuCache_.enabled())
        out.push_back(cpuCache_.stats());
    out.push_back(disk_.stats());
}

// ------------------------------ cluster-level online coordination API

bool
ReplicaLoadView::resident(ExpertId e) const
{
    return engine != nullptr &&
           ((engine->gpuPool_ && engine->gpuPool_->resident(e)) ||
            (engine->cpuPool_ && engine->cpuPool_->resident(e)));
}

bool
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

void
ServingEngine::beginOnline(RequestId idBase, RequestId idStride)
{
    COSERVE_CHECK(!begun_, "ServingEngine instances are single-use");
    COSERVE_CHECK(idStride >= 1, "request id stride must be >= 1");
    begun_ = true;
    nextRequestId_ = idBase;
    requestIdStride_ = idStride;
    result_.label = cfg_.label;
    scheduler_->reset();
    preload();
}

void
ServingEngine::admitPlanned(const ImageArrival *arrivals, std::size_t count,
                            std::size_t capacity, bool last)
{
    COSERVE_CHECK(begun_, "admitPlanned before beginOnline");
    if (!planBegun_) {
        // Planned arrivals never enter the event heap. Arrival k takes
        // sequence number seq0 + k of a window reserved now, before
        // the first step, and feedPlanned() admits it at exactly the
        // (time, seq) slot a scheduled arrival event would hold.
        planBegun_ = true;
        planned_ = arrivals;
        plannedCapacity_ = capacity;
        plannedSeq0_ = eq_.reserveSeq(capacity);
        plannedId0_ = nextRequestId_;
        planOpen_ = true;
    }
    COSERVE_CHECK(planOpen_ && arrivals == planned_,
                  "admitPlanned after the plan's last chunk, or elsewhere");
    COSERVE_CHECK(count >= plannedEnd_ && count <= plannedCapacity_,
                  "planning ", count, " arrivals after ", plannedEnd_,
                  " in a window of ", plannedCapacity_);
    // Planned arrivals run in index order, so every one planned so far
    // may be admitted, and each must be at or after its predecessor.
    for (std::size_t k = std::max<std::size_t>(plannedEnd_, 1); k < count;
         ++k) {
        if (arrivals[k].time < arrivals[k - 1].time) {
            fatal("the engine needs time-sorted arrivals: arrival ", k,
                  " is earlier than arrival ", k - 1);
        }
    }
    plannedEnd_ = count;
    if (!last)
        return;

    // The id block is fixed: later ids, the open plan's provisional
    // ones first, continue after it.
    planOpen_ = false;
    nextRequestId_ =
        plannedId0_ + static_cast<RequestId>(count) * requestIdStride_;
    provisionalId0_ = nextRequestId_;
    nextRequestId_ +=
        static_cast<RequestId>(provisional_.size()) * requestIdStride_;
}

void
ServingEngine::feedPlanned(Time t)
{
    for (; plannedNext_ < plannedEnd_; ++plannedNext_) {
        const ImageArrival &a = planned_[plannedNext_];
        if (a.time > t)
            break;
        eq_.enterAt(a.time, plannedSeq0_ + plannedNext_);
        admitTimed(arrivalRequest(
            a, plannedId0_ +
                   static_cast<RequestId>(plannedNext_) * requestIdStride_));
    }
}

void
ServingEngine::admitArrival(const ImageArrival &a)
{
    COSERVE_CHECK(begun_, "admitArrival before beginOnline");
    COSERVE_CHECK(!crashed_, "admitting into a crashed replica");
    // Online arrivals are heap events: each takes a fresh seq when the
    // coordinator admits it. The id is drawn now, so ids keep admission
    // order; the Request is built when the event fires, which keeps the
    // capture inside the event's inline buffer.
    struct Admit
    {
        ServingEngine *engine;
        ImageArrival arrival;
        RequestId id;

        void
        operator()() const
        {
            engine->admitTimed(engine->arrivalRequest(arrival, id));
        }
    };
    static_assert(sizeof(Admit) <= MoveFunction::kInlineBytes,
                  "an online arrival must not heap-allocate");
    eq_.schedule(a.time, Admit{this, a, allocRequestId()});
}

void
ServingEngine::fillLoadView(ReplicaLoadView &out) const
{
    out.now = eq_.now();
    out.idle = eq_.pending() == 0;
    out.storageFreeAt = storage_->busyUntil();
    out.gpuPressure = gpuPressure_;
    out.queueDepth = 0;
    out.backlog = 0;
    out.executors.clear();
    for (const auto &exec : executors_) {
        out.queueDepth += exec->queue().size();
        // Parked checkpoints are real backlog too: their remaining
        // execution runs here unless migrated away. Zero while the
        // preemption feature is off, keeping legacy views identical.
        out.backlog += exec->queue().pendingWork() + exec->parkedWork();
        out.executors.push_back(
            {exec->busyUntil(), exec->queue().pendingWork()});
    }
    out.engine = this;
}

void
ServingEngine::sample(ReplicaSample &acc) const
{
    // Cumulative columns keep a crashed replica's completions.
    acc.images += imagesDone_;
    acc.inferences += result_.inferences;
    acc.rescues += result_.preemptions;
    if (crashed_)
        return;
    for (const auto &exec : executors_)
        acc.queueDepth += static_cast<std::int64_t>(exec->queue().size());
    // Same tier set as appendTierStats(); a cluster-shared CPU tier
    // is accounted by the cluster, and the disk tier never feeds the
    // gpu/cpu-dram hit rates.
    const auto add = [&acc](TierLevel level, const TierCounters &c) {
        if (level == TierLevel::Gpu) {
            acc.gpuHits += c.hits;
            acc.gpuMisses += c.misses;
        } else if (level == TierLevel::CpuDram) {
            acc.cpuHits += c.hits;
            acc.cpuMisses += c.misses;
        }
    };
    if (gpuPool_)
        add(gpuPool_->level(), gpuPool_->counters());
    if (cpuPool_)
        add(cpuPool_->level(), cpuPool_->counters());
    if (cfg_.externalCpuTier == nullptr && cpuCache_.enabled())
        add(cpuCache_.level(), cpuCache_.counters());
}

std::size_t
ServingEngine::stealRequests(std::size_t maxCount,
                             std::vector<Request> &out,
                             const RequestQueue::StealFilter &allow)
{
    std::size_t total = 0;
    // A queue can run out of stealable (filter-passing, non-head)
    // requests while a shallower one still has some.
    std::vector<char> exhausted(executors_.size(), 0);
    while (total < maxCount) {
        // Level the deepest queue down to the runner-up (ties: lowest
        // executor index, one request when already level) so a steal
        // drains the replica's backlog evenly instead of emptying one
        // executor — chunked, so the tail walk is not restarted per
        // stolen request.
        std::size_t victim = executors_.size();
        std::size_t depth = 1; // > 1: the head request is never stolen
        std::size_t runnerUp = 1;
        for (std::size_t i = 0; i < executors_.size(); ++i) {
            if (exhausted[i])
                continue;
            const std::size_t size = executors_[i]->queue().size();
            if (size > depth) {
                runnerUp = depth;
                depth = size;
                victim = i;
            } else if (size > runnerUp) {
                runnerUp = size;
            }
        }
        if (victim == executors_.size())
            break;
        const std::size_t chunk = std::min(
            maxCount - total, std::max<std::size_t>(1, depth - runnerUp));
        const int got = executors_[victim]->stealFromQueue(
            static_cast<int>(chunk), out, allow);
        // A short count means the tail walk reached the head: nothing
        // further in this queue passes the filter, so don't re-walk
        // its rejected suffix on the next iteration.
        if (got < static_cast<int>(chunk))
            exhausted[victim] = 1;
        total += static_cast<std::size_t>(got);
    }
    return total;
}

void
ServingEngine::injectRequest(Request req)
{
    COSERVE_CHECK(begun_, "injectRequest before beginOnline");
    COSERVE_CHECK(!crashed_, "injecting into a crashed replica");
    COSERVE_CHECK(req.arrival <= eq_.now(),
                  "stolen request from the future");
    if (requestIdStride_ == 1)
        req.id = allocRequestId();
    dispatchTimed(req);
}

void
ServingEngine::crashDrain(std::vector<CheckpointImage> &images,
                          std::vector<Request> &requests)
{
    COSERVE_CHECK(!crashed_, "replica crashed twice");
    COSERVE_CHECK(!planOpen_, "crash before the plan's last chunk");
    crashed_ = true;
    // With migration on, in-flight and parked groups leave as
    // checkpoints (the periodic boundary save is what survives a
    // crash); the request drains below then see only queued work.
    const bool capture =
        cfg_.preemption.enabled && cfg_.preemption.migration;
    for (const auto &exec : executors_) {
        if (capture) {
            const std::size_t mark = images.size();
            if (exec->checkpointRunning(images) > 0) {
                result_.checkpointedGroups += 1;
                preemptEvents_.push_back(
                    {eq_.now(), PreemptEvent::What::Checkpoint,
                     exec->index(),
                     static_cast<std::uint64_t>(
                         images[mark].requests.size())});
            }
            exec->takeParked(images);
        }
        exec->surrenderRunning(requests);
        exec->surrenderParked(requests);
        exec->drainQueue(requests);
    }
    // Outbox images (only migration fills the outbox) were checkpointed
    // and recorded when their saves completed; they just never got
    // picked up.
    takeMigratedImages(images);
    // Drop everything still scheduled — batch completions (their
    // requests were just surrendered), in-flight expert loads, pending
    // prefetches — and end the planned stream. The clock survives, so
    // finishOnline() reports the pre-crash metrics at the right
    // makespan.
    eq_.clear();
    plannedNext_ = plannedEnd_;
}

void
ServingEngine::setComputeScale(double scale)
{
    COSERVE_CHECK(scale >= 1.0,
                  "straggler compute scale must be >= 1, got ", scale);
    computeScale_ = scale;
}

void
ServingEngine::setStorageRateScale(double scale)
{
    storage_->setRateScale(scale);
}

RunResult
ServingEngine::finishOnline()
{
    COSERVE_CHECK(begun_, "finishOnline without beginOnline");
    COSERVE_CHECK(!planOpen_, "finishOnline before the plan's last chunk");
    COSERVE_CHECK(eq_.pending() == 0 && plannedNext_ == plannedEnd_,
                  "finishOnline with ", eq_.pending(), " events and ",
                  plannedEnd_ - plannedNext_, " planned arrivals pending");
    COSERVE_CHECK(migrateOutbox_.empty(), "finishOnline with ",
                  migrateOutbox_.size(),
                  " checkpoints stranded in the migration outbox");
    for (const auto &exec : executors_) {
        COSERVE_CHECK(exec->parkedCount() == 0, "finishOnline with ",
                      exec->parkedCount(), " parked checkpoints on ",
                      exec->name());
    }
    for (std::size_t j = 0; j < provisional_.size(); ++j) {
        if (provisional_[j] >= 0) {
            assign(provisionalId0_ + static_cast<RequestId>(j) *
                                         requestIdStride_,
                   provisional_[j]);
        }
    }
    result_.images = imagesDone_;
    result_.makespan = lastCompletion_;
    result_.eventsExecuted = eq_.executed();
    result_.throughput =
        lastCompletion_ > 0
            ? static_cast<double>(imagesDone_) / toSeconds(lastCompletion_)
            : 0.0;
    for (const auto &exec : executors_) {
        ExecutorStats st = exec->stats();
        st.avgBatchSize =
            st.batches > 0 ? static_cast<double>(st.requests) /
                                 static_cast<double>(st.batches)
                           : 0.0;
        result_.switches.merge(st.switches);
        result_.executors.push_back(std::move(st));
    }

    appendTierStats(result_.tiers);
    return std::move(result_);
}

// ----------------------- preemption / checkpoint / live migration API

std::int64_t
ServingEngine::checkpointStateBytes(const Executor &exec) const
{
    COSERVE_CHECK(exec.runningExpert() != kNoExpert,
                  "checkpoint bytes of an idle executor");
    return ckpt_.stateBytes(archOf(exec.runningExpert()), exec.kind(),
                            exec.runningCount());
}

Time
ServingEngine::predictCheckpointTransfer(const Executor &exec,
                                         std::int64_t bytes) const
{
    if (cpuTier_->enabled()) {
        if (exec.kind() == ProcKind::GPU)
            return link_->transferDuration(bytes);
        // CPU executor state already lives in DRAM: adopting it into
        // the checkpoint tier is a fixed-latency bookkeeping copy.
        return cfg_.device.linkFixedLatency;
    }
    // No DRAM tier configured: checkpoints stream to disk — the cold
    // tier honestly makes save and restore slower.
    return storage_->transferDuration(bytes);
}

Time
ServingEngine::chargeCheckpointTransfer(const Executor &exec,
                                        std::int64_t bytes,
                                        EventQueue::Callback done)
{
    result_.checkpointBytes += bytes;
    const Time start = eq_.now();
    Time doneAt;
    if (cpuTier_->enabled()) {
        if (exec.kind() == ProcKind::GPU) {
            doneAt = link_->transfer(bytes, std::move(done));
        } else {
            doneAt = eq_.scheduleAfter(cfg_.device.linkFixedLatency,
                                        std::move(done))
                          .when;
        }
    } else {
        doneAt = storage_->transfer(bytes, std::move(done));
    }
    if (cfg_.tracer != nullptr) {
        cfg_.tracer->span("checkpoint transfer", exec.index() + 1,
                          start, doneAt, {"bytes", bytes});
    }
    return doneAt;
}

void
ServingEngine::onGroupCheckpointed(Executor &exec, CheckpointImage img,
                                   bool migrateOut)
{
    result_.checkpointedGroups += 1;
    preemptEvents_.push_back(
        {eq_.now(),
         migrateOut ? PreemptEvent::What::Checkpoint
                    : PreemptEvent::What::Preempt,
         exec.index(), static_cast<std::uint64_t>(img.requests.size())});
    if (cfg_.tracer != nullptr) {
        cfg_.tracer->instant(
            migrateOut ? "checkpoint (migrate-out)"
                       : "checkpoint (rescue)",
            exec.index() + 1, eq_.now(),
            {"requests",
             static_cast<std::int64_t>(img.requests.size())});
    }
    if (migrateOut) {
        migrateOutbox_.push_back(std::move(img));
        return;
    }
    result_.preemptions += 1;
    exec.adoptCheckpoint(std::move(img));
}

void
ServingEngine::onGroupRestored(Executor &exec, int requests)
{
    result_.restoredGroups += 1;
    preemptEvents_.push_back({eq_.now(), PreemptEvent::What::Restore,
                              exec.index(),
                              static_cast<std::uint64_t>(requests)});
    if (cfg_.tracer != nullptr) {
        cfg_.tracer->instant("restore", exec.index() + 1, eq_.now(),
                             {"requests", requests});
    }
}

std::size_t
ServingEngine::requestMigrateOut(std::size_t maxGroups)
{
    std::size_t issued = 0;
    for (const auto &exec : executors_) {
        if (issued >= maxGroups)
            break;
        if (!exec->migratable(cfg_.preemption))
            continue;
        if (exec->requestPreempt(cfg_.preemption, /*migrateOut=*/true))
            issued += 1;
    }
    return issued;
}

std::size_t
ServingEngine::takeMigratedImages(std::vector<CheckpointImage> &out)
{
    const std::size_t n = migrateOutbox_.size();
    for (CheckpointImage &img : migrateOutbox_)
        out.push_back(std::move(img));
    migrateOutbox_.clear();
    return n;
}

void
ServingEngine::adoptCheckpoint(CheckpointImage img)
{
    COSERVE_CHECK(!crashed_,
                  "adopting a checkpoint on a crashed replica");
    Executor *best = nullptr;
    Time bestLoad = 0;
    for (const auto &exec : executors_) {
        if (exec->kind() != img.kind)
            continue;
        const Time load = std::max(eq_.now(), exec->busyUntil()) +
                          exec->queue().pendingWork() +
                          exec->parkedWork();
        if (best == nullptr || load < bestLoad) {
            best = exec.get();
            bestLoad = load;
        }
    }
    COSERVE_CHECK(best != nullptr,
                  "no executor matches the checkpoint's processor "
                  "kind; the coordinator must capability-filter "
                  "migration targets");
    best->adoptCheckpoint(std::move(img));
}

bool
ServingEngine::hasExecutorKind(ProcKind kind) const
{
    for (const auto &exec : executors_) {
        if (exec->kind() == kind)
            return true;
    }
    return false;
}

void
ServingEngine::drainPreemptEvents(std::vector<PreemptEvent> &out)
{
    out.insert(out.end(), preemptEvents_.begin(), preemptEvents_.end());
    preemptEvents_.clear();
}

} // namespace coserve
