/**
 * @file
 * Unit tests for hardware descriptions, the transfer model, expert
 * architectures, and the latency/footprint truth models.
 */

#include <gtest/gtest.h>

#include "hw/device.h"
#include "hw/transfer.h"
#include "model/architecture.h"
#include "model/footprint_model.h"
#include "model/latency_model.h"

namespace coserve {
namespace {

TEST(DeviceTest, Table1Presets)
{
    const DeviceSpec numa = numaRtx3080Ti();
    EXPECT_EQ(numa.arch, MemArch::NUMA);
    EXPECT_EQ(numa.gpuMemoryBytes, 12ll * 1024 * 1024 * 1024);
    EXPECT_EQ(numa.cpuMemoryBytes, 16ll * 1024 * 1024 * 1024);
    EXPECT_TRUE(numa.hasCpuTier());
    EXPECT_GT(numa.pciBps, 0);

    const DeviceSpec uma = umaAppleM2();
    EXPECT_EQ(uma.arch, MemArch::UMA);
    EXPECT_EQ(uma.gpuMemoryBytes, 24ll * 1024 * 1024 * 1024);
    EXPECT_EQ(uma.cpuMemoryBytes, 0);
    EXPECT_FALSE(uma.hasCpuTier());
    EXPECT_EQ(uma.pciBps, 0);
    // Paper Fig. 1: the UMA SSD is ~6x faster than the NUMA one.
    EXPECT_GT(uma.ssdBps, 5 * numa.ssdBps);
}

TEST(DeviceTest, ToStringHelpers)
{
    EXPECT_STREQ(toString(ProcKind::GPU), "GPU");
    EXPECT_STREQ(toString(ProcKind::CPU), "CPU");
}

TEST(TransferTest, LegsCompose)
{
    const TransferModel tm(numaRtx3080Ti());
    const std::int64_t bytes = 100 * 1024 * 1024;
    EXPECT_EQ(tm.loadToGpu(bytes, LoadSource::Ssd),
              tm.storageLeg(bytes) + tm.linkLeg(bytes));
    EXPECT_EQ(tm.loadToGpu(bytes, LoadSource::CpuCache),
              tm.linkLeg(bytes));
    EXPECT_EQ(tm.loadToCpu(bytes), tm.storageLeg(bytes));
}

TEST(TransferTest, CacheLoadsMuchFasterThanSsd)
{
    const TransferModel tm(numaRtx3080Ti());
    const std::int64_t bytes = resnet101().weightBytes;
    EXPECT_LT(tm.loadToGpu(bytes, LoadSource::CpuCache) * 5,
              tm.loadToGpu(bytes, LoadSource::Ssd));
}

TEST(TransferTest, SwitchDominatesInference)
{
    // The premise of the paper (Fig. 1): switching an expert from SSD
    // takes > 90% of single-inference latency on both devices.
    for (const DeviceSpec &dev : {numaRtx3080Ti(), umaAppleM2()}) {
        const TransferModel tm(dev);
        const LatencyModel lat = LatencyModel::calibrated(dev);
        const Time sw =
            tm.loadToGpu(resnet101().weightBytes, LoadSource::Ssd);
        const Time ex =
            lat.batchLatency(ArchId::ResNet101, ProcKind::GPU, 1);
        const double share = static_cast<double>(sw) /
                             static_cast<double>(sw + ex);
        EXPECT_GT(share, 0.90) << dev.name;
    }
}

TEST(ArchTest, BuiltinSpecs)
{
    EXPECT_EQ(resnet101().id, ArchId::ResNet101);
    EXPECT_NEAR(resnet101().params / 1e6, 44.5, 0.1);
    EXPECT_NEAR(yolov5m().params / 1e6, 21.2, 0.1);
    EXPECT_NEAR(yolov5l().params / 1e6, 46.5, 0.1);
    // fp32 weights: 4 bytes per parameter (within rounding).
    EXPECT_NEAR(static_cast<double>(resnet101().weightBytes),
                static_cast<double>(resnet101().params) * 4.0,
                2e6);
    EXPECT_EQ(&archSpec(ArchId::YoloV5m), &yolov5m());
}

TEST(LatencyModelTest, LinearBelowSaturation)
{
    const LatencyModel m = LatencyModel::calibrated(numaRtx3080Ti());
    const LatencyParams &p =
        m.params(ArchId::ResNet101, ProcKind::GPU);
    for (int n = 1; n <= p.saturationBatch; ++n) {
        EXPECT_EQ(m.batchLatency(ArchId::ResNet101, ProcKind::GPU, n),
                  p.perImage * n + p.fixed);
    }
}

TEST(LatencyModelTest, PenaltyAboveSaturation)
{
    const LatencyModel m = LatencyModel::calibrated(numaRtx3080Ti());
    const LatencyParams &p =
        m.params(ArchId::ResNet101, ProcKind::GPU);
    const int n = p.saturationBatch + 4;
    EXPECT_GT(m.batchLatency(ArchId::ResNet101, ProcKind::GPU, n),
              p.perImage * n + p.fixed);
}

TEST(LatencyModelTest, AvgLatencyFallsThenRises)
{
    const LatencyModel m = LatencyModel::calibrated(numaRtx3080Ti());
    const Time avg1 = m.avgLatency(ArchId::ResNet101, ProcKind::GPU, 1);
    const Time avgSat = m.avgLatency(ArchId::ResNet101, ProcKind::GPU,
                                     24);
    const Time avgOver = m.avgLatency(ArchId::ResNet101, ProcKind::GPU,
                                      48);
    EXPECT_LT(avgSat, avg1);
    EXPECT_GT(avgOver, avgSat);
}

TEST(LatencyModelTest, CpuSlowerThanGpu)
{
    for (const DeviceSpec &dev : {numaRtx3080Ti(), umaAppleM2()}) {
        const LatencyModel m = LatencyModel::calibrated(dev);
        EXPECT_GT(m.batchLatency(ArchId::ResNet101, ProcKind::CPU, 8),
                  m.batchLatency(ArchId::ResNet101, ProcKind::GPU, 8))
            << dev.name;
    }
}

TEST(LatencyModelTest, MeasurementNoiseBounded)
{
    const LatencyModel m = LatencyModel::calibrated(numaRtx3080Ti());
    Rng rng(1);
    const Time truth =
        m.batchLatency(ArchId::YoloV5m, ProcKind::GPU, 4);
    for (int i = 0; i < 200; ++i) {
        const Time meas =
            m.measure(ArchId::YoloV5m, ProcKind::GPU, 4, rng, 0.05);
        EXPECT_GE(meas, static_cast<Time>(truth * 0.94));
        EXPECT_LE(meas, static_cast<Time>(truth * 1.06));
    }
}

TEST(LatencyModelTest, MissingEntryDetected)
{
    LatencyModel m;
    EXPECT_FALSE(m.has(ArchId::ResNet101, ProcKind::GPU));
    LatencyParams p;
    p.perImage = milliseconds(1);
    m.setParams(ArchId::ResNet101, ProcKind::GPU, p);
    EXPECT_TRUE(m.has(ArchId::ResNet101, ProcKind::GPU));
}

TEST(LatencyModelTest, SetParamsTwiceKeepsLastEntry)
{
    LatencyModel m;
    LatencyParams p;
    p.perImage = milliseconds(1);
    m.setParams(ArchId::YoloV5m, ProcKind::CPU, p);
    p.perImage = milliseconds(2);
    p.fixed = milliseconds(3);
    m.setParams(ArchId::YoloV5m, ProcKind::CPU, p);

    int entries = 0;
    for (int a = 0; a < kNumArchIds; ++a) {
        for (ProcKind k : {ProcKind::GPU, ProcKind::CPU})
            entries += m.has(static_cast<ArchId>(a), k) ? 1 : 0;
    }
    EXPECT_EQ(entries, 1);
    const LatencyParams &got = m.params(ArchId::YoloV5m, ProcKind::CPU);
    EXPECT_EQ(got.perImage, milliseconds(2));
    EXPECT_EQ(got.fixed, milliseconds(3));
}

TEST(LatencyModelTest, MissingParamsDie)
{
    LatencyModel m;
    LatencyParams p;
    p.perImage = milliseconds(1);
    m.setParams(ArchId::YoloV5m, ProcKind::GPU, p);
    EXPECT_DEATH(m.params(ArchId::YoloV5m, ProcKind::CPU),
                 "no latency params for arch 1 on CPU");
    EXPECT_DEATH(m.batchLatency(ArchId::Custom, ProcKind::GPU, 1),
                 "no latency params for arch 3 on GPU");
}

TEST(FootprintTest, ExpertBytesIncludeOverhead)
{
    const FootprintModel f = FootprintModel::calibrated(numaRtx3080Ti());
    EXPECT_GT(f.expertBytes(ArchId::ResNet101),
              resnet101().weightBytes);
    EXPECT_LT(f.expertBytes(ArchId::ResNet101),
              resnet101().weightBytes * 2);
}

TEST(FootprintTest, BatchBytesLinear)
{
    const FootprintModel f = FootprintModel::calibrated(numaRtx3080Ti());
    const std::int64_t one =
        f.activationBytesPerImage(ArchId::ResNet101, ProcKind::GPU);
    EXPECT_EQ(f.batchBytes(ArchId::ResNet101, ProcKind::GPU, 8),
              8 * one);
    EXPECT_EQ(f.batchBytes(ArchId::ResNet101, ProcKind::GPU, 0), 0);
}

TEST(FootprintTest, PaperAnchorOneBatchIsAboutOneAndAHalfExperts)
{
    // Section 3.3: "increasing ResNet101's batch size by one consumes
    // as much memory as loading 1.5 experts on a NUMA GPU".
    const FootprintModel f = FootprintModel::calibrated(numaRtx3080Ti());
    const double ratio =
        static_cast<double>(f.activationBytesPerImage(
            ArchId::ResNet101, ProcKind::GPU)) /
        static_cast<double>(f.expertBytes(ArchId::ResNet101));
    EXPECT_NEAR(ratio, 1.5, 0.25);
}

TEST(FootprintTest, GpuAndCpuFootprintsDiffer)
{
    const FootprintModel f = FootprintModel::calibrated(umaAppleM2());
    EXPECT_NE(f.activationBytesPerImage(ArchId::ResNet101, ProcKind::GPU),
              f.activationBytesPerImage(ArchId::ResNet101,
                                        ProcKind::CPU));
}

} // namespace
} // namespace coserve
