/**
 * @file
 * Property-based sweeps (parameterized gtest): engine invariants must
 * hold for every (system, workload seed) combination, and distribution
 * invariants for a range of board shapes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/systems.h"
#include "coe/board_builder.h"
#include "coe/usage.h"

namespace coserve {
namespace {

// ---------------------------------------------------------------------
// Engine invariants across systems x seeds (tiny board, tiny device).
// ---------------------------------------------------------------------

using EngineParam = std::tuple<SystemKind, std::uint64_t>;

class EngineInvariants : public ::testing::TestWithParam<EngineParam>
{
  protected:
    static CoEModel &
    model()
    {
        static CoEModel m = [] {
            BoardSpec spec = tinyBoard();
            spec.numComponents = 24;
            spec.numDetectionExperts = 5;
            return buildBoard(spec);
        }();
        return m;
    }

    static Harness &
    harness()
    {
        static Harness h(tinyTestDevice(), model());
        return h;
    }
};

TEST_P(EngineInvariants, HoldForAllSystemsAndSeeds)
{
    const auto [kind, seed] = GetParam();
    TaskSpec task;
    task.name = "prop";
    task.numImages = 250;
    task.seed = seed;
    const Trace trace = generateTrace(model(), task);

    const RunResult r = harness().run(kind, trace);

    // Completion: every image finishes exactly once.
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace.size()));
    // Chains: at least one inference per image, at most two.
    EXPECT_GE(r.inferences, r.images);
    EXPECT_LE(r.inferences, 2 * r.images);
    // Clock sanity: cannot finish before the last arrival.
    EXPECT_GE(r.makespan, trace.arrivals.back().time);
    // Switch accounting is internally consistent.
    EXPECT_EQ(r.switches.total(),
              r.switches.loadsFromSsd + r.switches.loadsFromCache);
    EXPECT_LE(r.switches.prefetchLoads, r.switches.total());
    // Per-executor stats sum to run totals.
    std::int64_t requests = 0, batches = 0;
    for (const ExecutorStats &es : r.executors) {
        requests += es.requests;
        batches += es.batches;
        EXPECT_LE(es.busyTime, r.makespan);
    }
    EXPECT_EQ(requests, r.inferences);
    EXPECT_GE(batches, 1);
    // Latency samples cover every inference.
    EXPECT_EQ(r.requestLatencyMs.count(),
              static_cast<std::size_t>(r.inferences));
    // Throughput is consistent with makespan.
    EXPECT_NEAR(r.throughput,
                static_cast<double>(r.images) / toSeconds(r.makespan),
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsBySeeds, EngineInvariants,
    ::testing::Combine(
        ::testing::Values(SystemKind::SambaCoE, SystemKind::SambaFifo,
                          SystemKind::SambaParallel,
                          SystemKind::CoServeNone, SystemKind::CoServeEM,
                          SystemKind::CoServeEMRA,
                          SystemKind::CoServeCasual),
        ::testing::Values(1u, 2u, 3u, 4u)),
    [](const ::testing::TestParamInfo<EngineParam> &paramInfo) {
        std::string name = toString(std::get<0>(paramInfo.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_seed" +
               std::to_string(std::get<1>(paramInfo.param));
    });

// ---------------------------------------------------------------------
// Usage-profile invariants across board shapes.
// ---------------------------------------------------------------------

using BoardParam = std::tuple<int, double, double>; // n, zipfS, headMass

class BoardInvariants : public ::testing::TestWithParam<BoardParam>
{
};

TEST_P(BoardInvariants, UsageProfileWellFormed)
{
    const auto [n, zipfS, headMass] = GetParam();
    BoardSpec spec = tinyBoard();
    spec.numComponents = n;
    spec.numDetectionExperts = std::max(1, n / 12);
    spec.zipfS = zipfS;
    spec.headMass = headMass;
    const CoEModel model = buildBoard(spec);
    const UsageProfile usage = UsageProfile::exact(model);

    // Probabilities form a distribution.
    double sum = 0.0;
    for (std::size_t e = 0; e < usage.size(); ++e) {
        const double p = usage.probability(static_cast<ExpertId>(e));
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // CDF is monotone and ends at 1.
    for (std::size_t k = 2; k <= usage.size(); ++k)
        EXPECT_GE(usage.topKMass(k) + 1e-12, usage.topKMass(k - 1));
    EXPECT_NEAR(usage.topKMass(usage.size()), 1.0, 1e-9);

    // Descending order really descends.
    const auto &order = usage.byDescendingUsage();
    for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_GE(usage.probability(order[i - 1]) + 1e-12,
                  usage.probability(order[i]));
    }

    // The CDF lies between the linear and step extremes (Figure 11).
    const std::size_t k = usage.size() / 4;
    if (k > 0 && zipfS > 0.0) {
        EXPECT_GE(usage.topKMass(k),
                  static_cast<double>(k) /
                      static_cast<double>(usage.size()) -
                      1e-9);
        EXPECT_LE(usage.topKMass(k), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BoardShapes, BoardInvariants,
    ::testing::Combine(::testing::Values(16, 48, 96),
                       ::testing::Values(0.5, 0.9, 1.3),
                       ::testing::Values(0.90, 0.985)),
    [](const ::testing::TestParamInfo<BoardParam> &paramInfo) {
        return "n" + std::to_string(std::get<0>(paramInfo.param)) + "_s" +
               std::to_string(
                   static_cast<int>(std::get<1>(paramInfo.param) * 10)) +
               "_m" +
               std::to_string(
                   static_cast<int>(std::get<2>(paramInfo.param) * 1000));
    });

// ---------------------------------------------------------------------
// Trace invariants across tasks.
// ---------------------------------------------------------------------

class TraceInvariants
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceInvariants, ArrivalsAreMonotone)
{
    const CoEModel model = buildBoard(tinyBoard());
    TaskSpec task;
    task.numImages = 500;
    task.seed = GetParam();
    const Trace t = generateTrace(model, task);
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GE(t.arrivals[i].time, t.arrivals[i - 1].time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariants,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

} // namespace
} // namespace coserve
