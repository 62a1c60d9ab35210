#include "hw/transfer.h"

#include "util/logging.h"

namespace coserve {

namespace {

Time
bytesOver(std::int64_t bytes, double bps)
{
    if (bps <= 0)
        return 0;
    return seconds(static_cast<double>(bytes) / bps);
}

} // namespace

TransferModel::TransferModel(const DeviceSpec &device) : device_(device)
{
    COSERVE_CHECK(device_.ssdBps > 0, "device needs SSD bandwidth");
    COSERVE_CHECK(device_.deserializeBps > 0,
                  "device needs deserialization bandwidth");
}

Time
TransferModel::storageLeg(std::int64_t bytes) const
{
    return device_.loadFixedOverhead + bytesOver(bytes, device_.ssdBps) +
           bytesOver(bytes, device_.deserializeBps);
}

Time
TransferModel::linkLeg(std::int64_t bytes) const
{
    return device_.linkFixedLatency + bytesOver(bytes, device_.pciBps) +
           bytesOver(bytes, device_.reorganizeBps);
}

Time
TransferModel::loadToGpu(std::int64_t bytes, LoadSource src) const
{
    if (src == LoadSource::CpuCache)
        return linkLeg(bytes);
    return storageLeg(bytes) + linkLeg(bytes);
}

Time
TransferModel::loadToCpu(std::int64_t bytes) const
{
    return storageLeg(bytes);
}

} // namespace coserve
