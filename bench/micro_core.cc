/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the serving
 * engine: event queue churn, request-queue grouped insertion, deep
 * steady-state pops (classless, and EDF over SLO classes) and shallow
 * EDF pops (an online replica's queue), memory-tier
 * residency lookups, eviction victim
 * selection, one dependency-aware dispatch into deep queues (the
 * real-world wall-clock cost behind Figure 19's scheduling bar), one
 * cluster-level LeastLoaded routing decision, the coordinator's live
 * pricing of one arrival (the quote row admission and routing share),
 * one online arrival's admission and step on a replica engine, and a
 * whole ServingEngine::run per arrival.
 */

#include <benchmark/benchmark.h>

#include "baselines/evictions.h"
#include "cluster/router.h"
#include "coe/board_builder.h"
#include "coe/dependency.h"
#include "coe/usage.h"
#include "core/coserve.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/pool.h"
#include "runtime/queue.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace coserve {
namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(i, [] {});
        eq.run();
        benchmark::DoNotOptimize(eq.executed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(8192);

void
BM_RequestQueueGroupedInsert(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state) {
        RequestQueue q;
        for (int i = 0; i < state.range(0); ++i) {
            Request r;
            r.id = i;
            r.expert = static_cast<ExpertId>(rng.uniformInt(64));
            q.pushGrouped(r);
        }
        benchmark::DoNotOptimize(q.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RequestQueueGroupedInsert)->Arg(1024)->Arg(4096);

void
BM_RequestQueueDeep(benchmark::State &state)
{
    // A deep executor queue in steady state (board A's 380 experts,
    // ~30k queued requests, as under a backlogged CoServe engine): each
    // step pops a batch of up to 3 from the next group, reads the
    // prefetch target and refills with grouped pushes.
    constexpr std::uint64_t kExperts = 380;
    Rng rng(3);
    RequestQueue q;
    RequestId id = 0;
    const auto push = [&] {
        Request r;
        r.id = id++;
        r.expert = static_cast<ExpertId>(rng.uniformInt(kExperts));
        q.pushGrouped(r, 1000);
    };
    for (int i = 0; i < state.range(0); ++i)
        push();
    std::vector<Request> batch;
    for (auto _ : state) {
        q.popBatchFor(q.nextBatchExpert(), 3, batch);
        benchmark::DoNotOptimize(q.prefetchExpert());
        for (std::size_t i = 0; i < batch.size(); ++i)
            push();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestQueueDeep)->Arg(30000);

void
BM_RequestQueueSloDeep(benchmark::State &state)
{
    // BM_RequestQueueDeep's steady state with SLO classes: 30% of the
    // requests are Interactive with a tight deadline, the rest Batch
    // with a loose one, deadlines advancing with a virtual clock. Each
    // step picks the EDF group, pops up to 3 of it, reads the prefetch
    // target and refills.
    constexpr std::uint64_t kExperts = 380;
    Rng rng(5);
    RequestQueue q;
    RequestId id = 0;
    const auto push = [&] {
        Request r;
        r.id = id++;
        r.expert = static_cast<ExpertId>(rng.uniformInt(kExperts));
        const bool interactive = rng.bernoulli(0.3);
        r.cls = interactive ? RequestClass::Interactive
                            : RequestClass::Batch;
        r.deadline = id * 10 + (interactive ? 20000 : 200000);
        q.pushGrouped(r, 1000);
    };
    for (int i = 0; i < state.range(0); ++i)
        push();
    std::vector<Request> batch;
    for (auto _ : state) {
        q.popBatchFor(q.nextBatchExpert(), 3, batch);
        benchmark::DoNotOptimize(q.prefetchExpert());
        for (std::size_t i = 0; i < batch.size(); ++i)
            push();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestQueueSloDeep)->Arg(30000);

void
BM_RequestQueueSloShallow(benchmark::State &state)
{
    // The online regime: an executor queue of an online replica holds
    // a handful of requests, mostly of distinct experts out of board
    // A's 380, with SLO classes as in BM_RequestQueueSloDeep. Each step
    // picks the EDF group, pops up to 3 of it, reads the prefetch
    // target and refills to the given depth.
    constexpr std::uint64_t kExperts = 380;
    const auto depth = static_cast<std::size_t>(state.range(0));
    Rng rng(11);
    RequestQueue q;
    RequestId id = 0;
    const auto push = [&] {
        Request r;
        r.id = id++;
        r.expert = static_cast<ExpertId>(rng.uniformInt(kExperts));
        const bool interactive = rng.bernoulli(0.3);
        r.cls = interactive ? RequestClass::Interactive
                            : RequestClass::Batch;
        r.deadline = id * 10 + (interactive ? 20000 : 200000);
        q.pushGrouped(r, 1000);
    };
    while (q.size() < depth)
        push();
    std::vector<Request> batch;
    for (auto _ : state) {
        q.popBatchFor(q.nextBatchExpert(), 3, batch);
        benchmark::DoNotOptimize(q.prefetchExpert());
        while (q.size() < depth)
            push();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestQueueSloShallow)->Arg(16);

void
BM_TierLookup(benchmark::State &state)
{
    // resident() / contains() over every board-A expert id against a
    // 64-entry pool: the residency probes behind load-time prediction.
    constexpr ExpertId kExperts = 380;
    ModelPool pool("bench", 1ll << 40);
    Rng rng(5);
    while (pool.count() < 64) {
        const auto e = static_cast<ExpertId>(rng.uniformInt(kExperts));
        if (!pool.contains(e))
            pool.insertResident(e, 190ll << 20, pool.count(), 0);
    }
    for (auto _ : state) {
        int hits = 0;
        for (ExpertId e = 0; e < kExperts; ++e)
            hits += (pool.resident(e) ? 1 : 0) + (pool.contains(e) ? 1 : 0);
        benchmark::DoNotOptimize(hits);
    }
    state.SetItemsProcessed(state.iterations() * 2 * kExperts);
}
BENCHMARK(BM_TierLookup);

void
BM_EvictionSelection(benchmark::State &state)
{
    const CoEModel model = buildBoard(boardA());
    const DependencyGraph deps(model);
    const UsageProfile usage = UsageProfile::exact(model);
    EvictionContext ctx;
    ctx.deps = &deps;
    ctx.usage = &usage;

    // The pool fills through the engine's path: each insert is
    // reported, so the two-stage policy selects from its index.
    ModelPool pool("bench", 1ll << 40);
    TwoStageEviction twoStage;
    for (ExpertId e = 0; e < static_cast<ExpertId>(state.range(0)); ++e) {
        pool.insertResident(e, 190ll << 20, static_cast<uint64_t>(e), e);
        twoStage.onPoolChange(pool, e, true, ctx);
    }

    LruEviction lru;
    for (auto _ : state) {
        benchmark::DoNotOptimize(twoStage.selectVictim(pool, ctx));
        benchmark::DoNotOptimize(lru.selectVictim(pool, ctx));
    }
}
BENCHMARK(BM_EvictionSelection)->Arg(32)->Arg(128)->Arg(380);

/**
 * Upkeep of the two-stage index: one reported eviction and one
 * reported load of the same expert, cycling over a pool holding the
 * first @p n experts of board A. Its subsequent experts (the last 28
 * ids) churn only at n = 380.
 */
void
BM_EvictionChurn(benchmark::State &state)
{
    const CoEModel model = buildBoard(boardA());
    const DependencyGraph deps(model);
    const UsageProfile usage = UsageProfile::exact(model);
    EvictionContext ctx;
    ctx.deps = &deps;
    ctx.usage = &usage;

    const auto n = static_cast<ExpertId>(state.range(0));
    ModelPool pool("bench", 1ll << 40);
    TwoStageEviction twoStage;
    for (ExpertId e = 0; e < n; ++e) {
        pool.insertResident(e, 190ll << 20, static_cast<uint64_t>(e), e);
        twoStage.onPoolChange(pool, e, true, ctx);
    }
    ExpertId next = 0;
    for (auto _ : state) {
        pool.erase(next);
        twoStage.onPoolChange(pool, next, false, ctx);
        pool.insertResident(next, 190ll << 20, 0, 0);
        twoStage.onPoolChange(pool, next, true, ctx);
        next = next + 1 == n ? 0 : next + 1;
    }
}
BENCHMARK(BM_EvictionChurn)->Arg(128)->Arg(380);

void
BM_ZipfSampling(benchmark::State &state)
{
    ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 1.0);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfSampling)->Arg(352);

void
BM_UsageProfileBuild(benchmark::State &state)
{
    const CoEModel model = buildBoard(boardA());
    for (auto _ : state) {
        const UsageProfile usage = UsageProfile::exact(model);
        benchmark::DoNotOptimize(usage.topKMass(35));
    }
}
BENCHMARK(BM_UsageProfileBuild);

/**
 * Board A on the Table 1 NUMA device, one GPU executor with the middle
 * admissible expert count, and a Task A2 trace of @p images images.
 */
struct BoardASetup
{
    explicit BoardASetup(std::int64_t images)
    {
        TaskSpec task = taskA2();
        task.numImages = static_cast<std::size_t>(images);
        trace = generateTrace(model, task);
    }

    // ctx points at model: a copy would point at the original's.
    BoardASetup(const BoardASetup &) = delete;
    BoardASetup &operator=(const BoardASetup &) = delete;

    static EngineConfig
    midConfig(const CoServeContext &ctx)
    {
        const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 1, 0);
        return coserveConfig(
            ctx,
            coserveExecutorLayout(ctx, 1, 0, (minCount + maxCount) / 2),
            "bench");
    }

    const DeviceSpec device = numaRtx3080Ti();
    const CoEModel model = buildBoard(boardA());
    const CoServeContext ctx{device, model};
    const EngineConfig cfg = midConfig(ctx);
    Trace trace;
};

/** Report a per-arrival time counter @p name for @p arrivals a pass. */
void
perArrivalCounter(benchmark::State &state, const char *name,
                  std::size_t arrivals)
{
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(arrivals));
    state.counters[name] = benchmark::Counter(
        static_cast<double>(arrivals),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
BM_LeastLoadedRoute(benchmark::State &state)
{
    // Offline LeastLoaded routing of the trace over a 4-replica
    // cluster; a fresh router per pass, built outside the timed
    // region. "route" reads as time per route() call.
    const BoardASetup s(state.range(0));
    const std::vector<ReplicaView> views(4, ReplicaView{&s.ctx, &s.cfg});

    for (auto _ : state) {
        state.PauseTiming();
        auto router =
            makeRouter(RoutingPolicy::LeastLoaded, s.model, views);
        state.ResumeTiming();
        for (const ImageArrival &a : s.trace.arrivals)
            benchmark::DoNotOptimize(router->route(a));
    }
    perArrivalCounter(state, "route", s.trace.size());
}
BENCHMARK(BM_LeastLoadedRoute)->Arg(8192);

void
BM_LiveQuote(benchmark::State &state)
{
    // The coordinator's pricing of one arrival over 4 replicas:
    // LiveCostModel::quoteRow, the row admission and LeastLoaded share,
    // then admission's min of finish plus detectAdd over it. The live
    // views come from 4 online engines fed the first half of the trace
    // round-robin, so queued/resident answers are mixed; the timed loop
    // prices the second half against them. "quote" reads as time per
    // priced arrival (all 4 replicas).
    const BoardASetup s(state.range(0));
    constexpr std::size_t kReplicas = 4;
    const std::vector<ReplicaView> views(kReplicas,
                                         ReplicaView{&s.ctx, &s.cfg});
    const LiveCostModel costs(s.model, views);

    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (std::size_t i = 0; i < kReplicas; ++i) {
        engines.push_back(makeCoServeEngine(s.ctx, s.cfg));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(kReplicas));
    }
    const std::size_t half = s.trace.size() / 2;
    for (std::size_t k = 0; k < half; ++k) {
        const ImageArrival &a = s.trace.arrivals[k];
        for (const auto &engine : engines)
            engine->stepUntil(a.time);
        engines[k % kReplicas]->admitArrival(a);
    }
    std::vector<ReplicaLoadView> live(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i)
        engines[i]->fillLoadView(live[i]);

    std::vector<LiveCostModel::Quote> row;
    for (auto _ : state) {
        for (std::size_t k = half; k < s.trace.size(); ++k) {
            const ImageArrival &a = s.trace.arrivals[k];
            costs.quoteRow(a, live, row);
            Time best = kTimeNever;
            for (std::size_t i = 0; i < kReplicas; ++i) {
                best = std::min(best, row[i].finish +
                                          costs.detectAdd(i, a.component));
            }
            benchmark::DoNotOptimize(best);
        }
    }
    perArrivalCounter(state, "quote", s.trace.size() - half);
}
BENCHMARK(BM_LiveQuote)->Arg(8192);

void
BM_OnlineAdmit(benchmark::State &state)
{
    // The engine side of an online arrival: admitArrival() on one of 4
    // board-A online engines (round-robin) and stepUntil() its arrival
    // instant, as the coordinator drives a replica. A replica steps only
    // when it takes an arrival, so each admission first runs the
    // replica's events due before its slot. Every pass builds fresh
    // engines outside the timed region; the events still pending after
    // the last arrival are not run. "admit" reads as time per arrival,
    // the events it runs included.
    const BoardASetup s(state.range(0));
    constexpr std::size_t kReplicas = 4;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (auto _ : state) {
        state.PauseTiming();
        engines.clear();
        for (std::size_t i = 0; i < kReplicas; ++i) {
            engines.push_back(makeCoServeEngine(s.ctx, s.cfg));
            engines.back()->beginOnline(static_cast<RequestId>(i),
                                        static_cast<RequestId>(kReplicas));
        }
        state.ResumeTiming();
        for (std::size_t k = 0; k < s.trace.size(); ++k) {
            const ImageArrival &a = s.trace.arrivals[k];
            ServingEngine &engine = *engines[k % kReplicas];
            engine.admitArrival(a);
            benchmark::DoNotOptimize(engine.stepUntil(a.time));
        }
    }
    perArrivalCounter(state, "admit", s.trace.size());
}
BENCHMARK(BM_OnlineAdmit)->Arg(8192);

void
BM_Dispatch(benchmark::State &state)
{
    // Dependency-aware dispatch on a board-A CoServe Casual engine
    // (three GPU executors, one CPU executor). Each pass builds a fresh
    // engine and feeds it the first half of the trace online, outside
    // the timed region; Task A2 arrivals outpace it, so its queues are
    // deep and its executors busy. The timed loop then dispatches the
    // second half's classify requests into those queues (no event
    // runs, so they only deepen). "dispatch" reads as time per
    // dispatch() call.
    const BoardASetup s(state.range(0));
    const EngineConfig cfg = coserveConfig(
        s.ctx, splitMemory(s.device, 3, 1, 0.75, 0.80), "bench-dispatch");
    DependencyAwareScheduler sched(&s.ctx.perf());

    const std::size_t half = s.trace.size() / 2;
    std::vector<Request> requests;
    for (std::size_t k = half; k < s.trace.size(); ++k) {
        const ImageArrival &a = s.trace.arrivals[k];
        Request r;
        r.id = static_cast<RequestId>(2 * s.trace.size() + k);
        r.imageId = r.id;
        r.component = a.component;
        r.expert = s.model.component(a.component).classifier;
        r.stage = Stage::Classify;
        r.arrival = a.time;
        r.imageArrival = a.time;
        requests.push_back(r);
    }

    std::unique_ptr<ServingEngine> engine;
    for (auto _ : state) {
        state.PauseTiming();
        engine = makeCoServeEngine(s.ctx, cfg);
        engine->beginOnline(0, 1);
        for (std::size_t k = 0; k < half; ++k) {
            const ImageArrival &a = s.trace.arrivals[k];
            engine->stepUntil(a.time);
            engine->admitArrival(a);
        }
        state.ResumeTiming();
        for (const Request &r : requests)
            sched.dispatch(*engine, r);
    }
    perArrivalCounter(state, "dispatch", requests.size());
}
BENCHMARK(BM_Dispatch)->Arg(16384);

void
BM_EngineRun(benchmark::State &state)
{
    // ServingEngine::run of the whole trace on one CoServe engine; the
    // engine is built, and the previous one destroyed, outside the
    // timed region. "arrival" reads as run() time per arrival. Task A2
    // arrivals outpace this engine, so its request queues deepen with
    // trace length and the per-arrival cost grows with it even though
    // the event heap holds only in-flight events.
    const BoardASetup s(state.range(0));
    std::unique_ptr<ServingEngine> engine;
    for (auto _ : state) {
        state.PauseTiming();
        engine = makeCoServeEngine(s.ctx, s.cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(engine->run(s.trace).images);
    }
    perArrivalCounter(state, "arrival", s.trace.size());
}
BENCHMARK(BM_EngineRun)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace coserve

BENCHMARK_MAIN();
