/**
 * @file
 * Unit tests for the offline profiler (K/B fitting, plateau detection)
 * and the decay-window memory planner (Equations 1-3).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/memory_planner.h"
#include "core/profiler.h"
#include "runtime/config.h"

namespace coserve {
namespace {

class ProfilerTest : public ::testing::Test
{
  protected:
    ProfilerTest()
        : device_(numaRtx3080Ti()),
          truth_(LatencyModel::calibrated(device_)),
          footprint_(FootprintModel::calibrated(device_))
    {
    }

    DeviceSpec device_;
    LatencyModel truth_;
    FootprintModel footprint_;
};

TEST_F(ProfilerTest, FittedKBCloseToTruth)
{
    OfflineProfiler profiler(device_, truth_, footprint_);
    const PerfEntry e =
        profiler.profilePair(ArchId::ResNet101, ProcKind::GPU);
    const LatencyParams &p =
        truth_.params(ArchId::ResNet101, ProcKind::GPU);
    EXPECT_NEAR(static_cast<double>(e.k), static_cast<double>(p.perImage),
                0.10 * static_cast<double>(p.perImage));
    EXPECT_NEAR(static_cast<double>(e.b), static_cast<double>(p.fixed),
                0.30 * static_cast<double>(p.fixed));
    EXPECT_GT(e.r2, 0.98);
}

TEST_F(ProfilerTest, MaxBatchNearSaturation)
{
    OfflineProfiler profiler(device_, truth_, footprint_);
    for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU}) {
        const PerfEntry e =
            profiler.profilePair(ArchId::ResNet101, proc);
        const int sat =
            truth_.params(ArchId::ResNet101, proc).saturationBatch;
        EXPECT_GE(e.maxBatch, sat / 2) << toString(proc);
        EXPECT_LE(e.maxBatch, sat + 8) << toString(proc);
    }
}

TEST_F(ProfilerTest, LoadLatencyMatchesTransferModel)
{
    OfflineProfiler profiler(device_, truth_, footprint_);
    const PerfEntry e =
        profiler.profilePair(ArchId::YoloV5m, ProcKind::GPU);
    const TransferModel tm(device_);
    EXPECT_EQ(e.loadLatency,
              tm.loadToGpu(footprint_.expertBytes(ArchId::YoloV5m),
                           LoadSource::Ssd));
    EXPECT_EQ(e.expertBytes, footprint_.expertBytes(ArchId::YoloV5m));
}

TEST_F(ProfilerTest, SweepShapesMatchFigure5)
{
    OfflineProfiler profiler(device_, truth_, footprint_);
    const auto sweep = profiler.sweep(ArchId::ResNet101, ProcKind::GPU);
    ASSERT_GT(sweep.size(), 30u);
    // Average latency at a healthy batch is clearly below batch 1.
    EXPECT_LT(sweep[15].avgLatency, sweep[0].avgLatency);
    // Batch latency grows monotonically (noise-tolerant: compare far
    // points).
    EXPECT_GT(sweep[30].batchLatency, sweep[5].batchLatency);
}

TEST_F(ProfilerTest, ProfileCoversRequestedArchs)
{
    OfflineProfiler profiler(device_, truth_, footprint_);
    const PerfMatrix m =
        profiler.profile({ArchId::ResNet101, ArchId::YoloV5l});
    EXPECT_TRUE(m.has(ArchId::ResNet101, ProcKind::GPU));
    EXPECT_TRUE(m.has(ArchId::ResNet101, ProcKind::CPU));
    EXPECT_TRUE(m.has(ArchId::YoloV5l, ProcKind::GPU));
    EXPECT_FALSE(m.has(ArchId::YoloV5m, ProcKind::GPU));
    EXPECT_EQ(m.size(), 4u);
}

TEST_F(ProfilerTest, DeterministicForSeed)
{
    ProfilerOptions opts;
    opts.seed = 77;
    OfflineProfiler p1(device_, truth_, footprint_, opts);
    OfflineProfiler p2(device_, truth_, footprint_, opts);
    const PerfEntry a = p1.profilePair(ArchId::ResNet101, ProcKind::GPU);
    const PerfEntry b = p2.profilePair(ArchId::ResNet101, ProcKind::GPU);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.maxBatch, b.maxBatch);
}

TEST(PerfMatrixTest, SetTwiceKeepsLastEntry)
{
    PerfMatrix m;
    EXPECT_EQ(m.size(), 0u);
    PerfEntry e;
    e.k = milliseconds(1);
    m.set(ArchId::YoloV5l, ProcKind::GPU, e);
    e.k = milliseconds(4);
    e.maxBatch = 6;
    m.set(ArchId::YoloV5l, ProcKind::GPU, e);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.at(ArchId::YoloV5l, ProcKind::GPU).k, milliseconds(4));
    EXPECT_EQ(m.at(ArchId::YoloV5l, ProcKind::GPU).maxBatch, 6);
    EXPECT_FALSE(m.has(ArchId::YoloV5l, ProcKind::CPU));

    m.set(ArchId::Custom, ProcKind::CPU, e);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.has(ArchId::Custom, ProcKind::CPU));
}

TEST(PerfMatrixTest, MissingEntryDies)
{
    PerfMatrix m;
    PerfEntry e;
    e.k = milliseconds(1);
    m.set(ArchId::ResNet101, ProcKind::GPU, e);
    EXPECT_DEATH(m.at(ArchId::ResNet101, ProcKind::CPU),
                 "no perf entry for arch 0 on CPU");
    EXPECT_DEATH(m.at(ArchId::YoloV5m, ProcKind::GPU),
                 "no perf entry for arch 1 on GPU");
}

TEST(SaturationMaxBatchTest, PicksArgminAverage)
{
    const LatencyModel m = LatencyModel::calibrated(numaRtx3080Ti());
    const int best =
        saturationMaxBatch(m, ArchId::ResNet101, ProcKind::GPU);
    const Time bestAvg =
        m.avgLatency(ArchId::ResNet101, ProcKind::GPU, best);
    for (int n = 1; n <= 64; ++n) {
        EXPECT_LE(bestAvg,
                  m.avgLatency(ArchId::ResNet101, ProcKind::GPU, n));
    }
}

TEST(PlannerTest, DecayFactorEquation1)
{
    PlannerOptions opts;
    opts.initialWindow = 15;
    EXPECT_DOUBLE_EQ(MemoryPlanner(opts).decayFactor(), 0.85);
    opts.initialWindow = 30;
    EXPECT_DOUBLE_EQ(MemoryPlanner(opts).decayFactor(), 0.70);
}

TEST(PlannerTest, WindowsShrinkGeometrically)
{
    PlannerOptions opts;
    opts.initialWindow = 15;
    opts.fitPoints = 3;
    MemoryPlanner planner(opts);
    // Monotone increasing throughput: planner runs to exhaustion.
    const PlannerResult r = planner.plan(
        1, 100, [](int n) { return static_cast<double>(n); });
    ASSERT_GE(r.probes.size(), 3u);
    EXPECT_EQ(r.probes[0].expertCount, 15);
    EXPECT_EQ(r.probes[1].expertCount,
              static_cast<int>(std::lround(15 + 15 * 0.85)));
    EXPECT_FALSE(r.deviated);
}

TEST(PlannerTest, StopsOnDeviation)
{
    // Synthetic rise-then-fall curve peaking at 40 experts.
    const auto curve = [](int n) {
        const double x = static_cast<double>(n);
        return 30.0 - 0.02 * (x - 40.0) * (x - 40.0);
    };
    PlannerOptions opts;
    opts.initialWindow = 15;
    opts.errorMargin = 0.05;
    MemoryPlanner planner(opts);
    const PlannerResult r = planner.plan(1, 150, curve);
    EXPECT_TRUE(r.deviated);
    EXPECT_GT(r.linearError, 0.05);
    // The selected window should bracket a region near the peak.
    EXPECT_GE(r.windowHigh, 35);
    EXPECT_LE(r.windowLow, 60);
    EXPECT_GE(r.selectedCount, r.windowLow);
    EXPECT_LE(r.selectedCount, r.windowHigh);
}

TEST(PlannerTest, SelectedCountInBounds)
{
    MemoryPlanner planner;
    const PlannerResult r = planner.plan(
        10, 20, [](int n) { return 1.0 / n; });
    EXPECT_GE(r.selectedCount, 10);
    EXPECT_LE(r.selectedCount, 20);
}

TEST(PlannerTest, ProbesClampedToMax)
{
    MemoryPlanner planner;
    const PlannerResult r =
        planner.plan(1, 12, [](int n) { return static_cast<double>(n); });
    for (const PlannerProbe &p : r.probes)
        EXPECT_LE(p.expertCount, 12);
}

TEST(SplitMemoryTest, NumaSplitsPerTier)
{
    const DeviceSpec dev = numaRtx3080Ti();
    const auto execs = splitMemory(dev, 3, 1, 0.75, 0.8);
    ASSERT_EQ(execs.size(), 4u);
    std::int64_t gpuTotal = 0;
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(execs[static_cast<std::size_t>(i)].kind, ProcKind::GPU);
        gpuTotal += execs[static_cast<std::size_t>(i)].poolBytes +
                    execs[static_cast<std::size_t>(i)].batchMemBytes;
    }
    EXPECT_LE(gpuTotal, dev.gpuMemoryBytes - dev.reservedBytes);
    EXPECT_EQ(execs[3].kind, ProcKind::CPU);
}

TEST(SplitMemoryTest, UmaSharesUnifiedPool)
{
    const DeviceSpec dev = umaAppleM2();
    const auto execs = splitMemory(dev, 2, 1, 0.75, 0.8);
    ASSERT_EQ(execs.size(), 3u);
    std::int64_t total = 0;
    for (const ExecutorConfig &e : execs)
        total += e.poolBytes + e.batchMemBytes;
    EXPECT_LE(total, dev.gpuMemoryBytes - dev.reservedBytes);
}

} // namespace
} // namespace coserve
