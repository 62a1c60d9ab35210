#include "hw/device.h"

namespace coserve {

namespace {

constexpr std::int64_t kGiB = 1024ll * 1024 * 1024;
constexpr double kMBps = 1024.0 * 1024.0;

} // namespace

const char *
toString(ProcKind k)
{
    return k == ProcKind::GPU ? "GPU" : "CPU";
}

DeviceSpec
numaRtx3080Ti()
{
    DeviceSpec d;
    d.name = "NUMA (RTX3080Ti + Xeon 4214R)";
    d.arch = MemArch::NUMA;
    d.gpu = {ProcKind::GPU, "RTX3080Ti", 1.0};
    d.cpu = {ProcKind::CPU, "Xeon-4214R", 1.0};
    d.gpuMemoryBytes = 12 * kGiB;
    d.cpuMemoryBytes = 16 * kGiB;
    d.reservedBytes = static_cast<std::int64_t>(0.8 * kGiB);
    // MICRON MTFDDAK480TDS: 530 MB/s sustained reads (paper Fig. 1).
    d.ssdBps = 530 * kMBps;
    // PyTorch-style weight deserialization is the dominant load cost
    // (Fig. 1 shows >90% switch share even on fast SSDs).
    d.deserializeBps = 250 * kMBps;
    d.pciBps = 12000 * kMBps;
    d.reorganizeBps = 3700 * kMBps;
    d.loadFixedOverhead = milliseconds(18);
    d.linkFixedLatency = microseconds(30);
    return d;
}

DeviceSpec
umaAppleM2()
{
    DeviceSpec d;
    d.name = "UMA (Apple M2, 24GB unified)";
    d.arch = MemArch::UMA;
    d.gpu = {ProcKind::GPU, "M2-GPU", 0.62};
    d.cpu = {ProcKind::CPU, "M2-CPU", 1.35};
    d.gpuMemoryBytes = 24 * kGiB; // unified pool
    d.cpuMemoryBytes = 0;
    // macOS + the AI framework keep a large slice of unified memory
    // (wired pages, MPS heaps); the serving system cannot use it.
    d.reservedBytes = static_cast<std::int64_t>(3.5 * kGiB);
    // APPLE SSD AP0512Z: ~3000 MB/s reads (paper Fig. 1).
    d.ssdBps = 3000 * kMBps;
    d.deserializeBps = 270 * kMBps;
    d.pciBps = 0; // no discrete link
    d.reorganizeBps = 1900 * kMBps;
    d.loadFixedOverhead = milliseconds(14);
    d.linkFixedLatency = microseconds(10);
    return d;
}

DeviceSpec
tinyTestDevice()
{
    DeviceSpec d;
    d.name = "tiny-test";
    d.arch = MemArch::NUMA;
    d.gpu = {ProcKind::GPU, "toy-gpu", 1.0};
    d.cpu = {ProcKind::CPU, "toy-cpu", 1.0};
    d.gpuMemoryBytes = 2 * kGiB;
    d.cpuMemoryBytes = 2 * kGiB;
    d.reservedBytes = 0;
    d.ssdBps = 500 * kMBps;
    d.deserializeBps = 500 * kMBps;
    d.pciBps = 8000 * kMBps;
    d.reorganizeBps = 4000 * kMBps;
    d.loadFixedOverhead = milliseconds(5);
    d.linkFixedLatency = microseconds(10);
    return d;
}

} // namespace coserve
