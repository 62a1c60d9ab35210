/**
 * @file
 * Analytical expert-load cost model over a DeviceSpec.
 *
 * The engine uses BandwidthChannel instances for *contended* transfers;
 * this class provides the uncontended per-leg durations both for those
 * channels and for latency prediction in the scheduler (Section 4.2:
 * "the expert switching latency is either zero or the time required to
 * load the expert").
 */

#ifndef COSERVE_HW_TRANSFER_H
#define COSERVE_HW_TRANSFER_H

#include <cstdint>

#include "hw/device.h"
#include "util/time.h"

namespace coserve {

/** Source tier of an expert load. */
enum class LoadSource { Ssd, CpuCache };

/** Per-leg and end-to-end expert load durations for one device. */
class TransferModel
{
  public:
    /** @param device device description the model reads from. */
    explicit TransferModel(const DeviceSpec &device);

    /**
     * Duration of the storage leg: SSD read + host deserialization +
     * fixed load overhead. This is the cost of materializing an expert
     * in host memory from disk.
     */
    Time storageLeg(std::int64_t bytes) const;

    /**
     * Duration of the device-handoff leg: PCIe copy (NUMA) plus
     * framework data reorganization. On UMA there is no PCIe but the
     * reorganization cost remains (paper Fig. 1, UMA CPU->GPU).
     */
    Time linkLeg(std::int64_t bytes) const;

    /**
     * End-to-end uncontended load duration into GPU-visible memory.
     *
     * @param bytes expert weight size.
     * @param src whether the expert is already resident in CPU DRAM.
     */
    Time loadToGpu(std::int64_t bytes, LoadSource src) const;

    /** End-to-end uncontended load duration into a CPU executor pool. */
    Time loadToCpu(std::int64_t bytes) const;

    /** @return the device this model was built from. */
    const DeviceSpec &device() const { return device_; }

  private:
    DeviceSpec device_;
};

} // namespace coserve

#endif // COSERVE_HW_TRANSFER_H
