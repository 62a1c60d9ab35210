#include "model/footprint_model.h"

#include "util/logging.h"

namespace coserve {

namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

int
archIndex(ArchId a)
{
    const int i = static_cast<int>(a);
    COSERVE_CHECK(i >= 0 && i < kNumBuiltinArchs,
                  "footprint model only covers built-in architectures");
    return i;
}

int
procIndex(ProcKind p)
{
    return p == ProcKind::GPU ? 0 : 1;
}

} // namespace

FootprintModel
FootprintModel::calibrated(const DeviceSpec &device)
{
    FootprintModel m;
    const bool numa = device.arch == MemArch::NUMA;
    // Paper Fig. 6 anchors: NUMA GPU reaches ~10 GB near batch 30 for
    // ResNet101 => ~260 MiB/image; "+1 batch ~ 1.5 experts" (~255 MiB).
    // CPU-side tensors are packed differently and smaller; the UMA
    // framework uses another layout again (Section 3.3).
    const std::int64_t gpuRes = (numa ? 260 : 185) * kMiB;
    const std::int64_t cpuRes = (numa ? 105 : 140) * kMiB;
    m.activations_[archIndex(ArchId::ResNet101)][0] = gpuRes;
    m.activations_[archIndex(ArchId::ResNet101)][1] = cpuRes;
    m.activations_[archIndex(ArchId::YoloV5m)][0] = (numa ? 210 : 150) * kMiB;
    m.activations_[archIndex(ArchId::YoloV5m)][1] = (numa ? 85 : 110) * kMiB;
    m.activations_[archIndex(ArchId::YoloV5l)][0] = (numa ? 310 : 225) * kMiB;
    m.activations_[archIndex(ArchId::YoloV5l)][1] = (numa ? 125 : 165) * kMiB;
    return m;
}

std::int64_t
FootprintModel::expertBytes(ArchId arch) const
{
    const ArchSpec &spec = archSpec(arch);
    return static_cast<std::int64_t>(
        static_cast<double>(spec.weightBytes) * weightOverhead_);
}

std::int64_t
FootprintModel::activationBytesPerImage(ArchId arch, ProcKind proc) const
{
    return activations_[archIndex(arch)][procIndex(proc)];
}

std::int64_t
FootprintModel::batchBytes(ArchId arch, ProcKind proc, int batchSize) const
{
    COSERVE_CHECK(batchSize >= 0, "negative batch size");
    return activationBytesPerImage(arch, proc) * batchSize;
}

} // namespace coserve
