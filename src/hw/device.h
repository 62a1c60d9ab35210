/**
 * @file
 * Hardware device descriptions (paper Table 1).
 *
 * A DeviceSpec captures everything the serving engine needs to know
 * about an edge device: memory architecture (NUMA vs UMA), per-tier
 * capacities, and the bandwidth/latency parameters of the expert-load
 * paths. Two presets mirror the paper's evaluation machines:
 *
 *  - NUMA: NVIDIA RTX 3080 Ti (12 GB) + Intel Xeon Silver 4214R (16 GB),
 *    Micron MTFDDAK480TDS SSD (530 MB/s reads).
 *  - UMA:  Apple M2, 24 GB unified memory, Apple AP0512Z SSD
 *    (~3000 MB/s reads).
 *
 * Expert loading is modelled as up to three pipeline legs, matching the
 * breakdown implied by Figure 1 (switching dominates even on a 3 GB/s
 * SSD, so the cost is deserialization-bound, not read-bound):
 *
 *   SSD read (ssdBps) -> host deserialization (deserializeBps)
 *     -> device handoff (PCIe pciBps on NUMA; framework data
 *        reorganization reorganizeBps on both, cf. Fig. 1 UMA CPU->GPU).
 */

#ifndef COSERVE_HW_DEVICE_H
#define COSERVE_HW_DEVICE_H

#include <cstdint>
#include <string>

#include "util/time.h"

namespace coserve {

/** Memory organization of the device. */
enum class MemArch { NUMA, UMA };

/** Kind of compute resource an executor runs on. */
enum class ProcKind { GPU, CPU };

/** Number of ProcKind values (dense per-processor tables). */
inline constexpr int kNumProcKinds = 2;

/** @return "GPU" / "CPU". */
const char *toString(ProcKind k);

/** One compute resource of a device. */
struct ProcessorSpec
{
    ProcKind kind = ProcKind::GPU;
    /** Marketing name, e.g. "RTX3080Ti". */
    std::string name;
    /**
     * Relative throughput scale (1.0 = the paper's RTX 3080 Ti). Used
     * only by the synthetic latency tables, not by the engine itself.
     */
    double computeScale = 1.0;
};

/** Full description of an edge device. */
struct DeviceSpec
{
    std::string name;
    MemArch arch = MemArch::NUMA;

    ProcessorSpec gpu;
    ProcessorSpec cpu;

    /** GPU-visible memory (UMA: the unified pool). */
    std::int64_t gpuMemoryBytes = 0;
    /** CPU DRAM (UMA: 0 — everything is in the unified pool). */
    std::int64_t cpuMemoryBytes = 0;
    /** Memory the framework/runtime itself occupies per device. */
    std::int64_t reservedBytes = 0;

    /** Sustained SSD read bandwidth. */
    double ssdBps = 0;
    /** Host-side weight deserialization bandwidth (framework cost). */
    double deserializeBps = 0;
    /** CPU->GPU interconnect bandwidth (NUMA only; 0 on UMA). */
    double pciBps = 0;
    /** Framework data-reorganization bandwidth on CPU->GPU handoff. */
    double reorganizeBps = 0;

    /** Fixed per-load overhead (module allocation, cudaMalloc, ...). */
    Time loadFixedOverhead = 0;
    /** Fixed per-transfer link setup latency. */
    Time linkFixedLatency = 0;

    /** @return true when the device has a separate CPU DRAM tier. */
    bool hasCpuTier() const { return arch == MemArch::NUMA; }
};

/** Paper Table 1, NUMA column: RTX 3080 Ti + Xeon Silver 4214R. */
DeviceSpec numaRtx3080Ti();

/** Paper Table 1, UMA column: Apple M2 (24 GB unified). */
DeviceSpec umaAppleM2();

/** A deliberately weak device for tests (tiny memory, slow SSD). */
DeviceSpec tinyTestDevice();

} // namespace coserve

#endif // COSERVE_HW_DEVICE_H
