/**
 * @file
 * Memory footprint model.
 *
 * Memory for experts splits into (a) resident weights and (b) batch
 * intermediate results (Section 3.3). The paper measures that on the
 * NUMA GPU "increasing ResNet101's batch size by one consumes as much
 * memory as loading 1.5 experts" — i.e. activations dominate, and the
 * footprint differs per processor because AI frameworks organize data
 * differently on CPU and GPU (Figure 6).
 */

#ifndef COSERVE_MODEL_FOOTPRINT_MODEL_H
#define COSERVE_MODEL_FOOTPRINT_MODEL_H

#include <cstdint>

#include "hw/device.h"
#include "model/architecture.h"

namespace coserve {

/** Per-device memory footprint calculator. */
class FootprintModel
{
  public:
    /** Build the calibrated footprint table for @p device. */
    static FootprintModel calibrated(const DeviceSpec &device);

    /** Resident bytes of one expert's weights (incl. runtime buffers). */
    std::int64_t expertBytes(ArchId arch) const;

    /** Intermediate-result bytes for one image of @p arch on @p proc. */
    std::int64_t activationBytesPerImage(ArchId arch, ProcKind proc) const;

    /** Total batch workspace bytes for @p batchSize images. */
    std::int64_t batchBytes(ArchId arch, ProcKind proc,
                            int batchSize) const;

    /**
     * Normalized "memory score" as used for eviction ordering
     * (Section 4.3, Figure 10): expert bytes divided by @p unit.
     */
    double memoryScore(ArchId arch,
                       std::int64_t unit = 64ll * 1024 * 1024) const;

  private:
    /** Multiplier on raw weight bytes for runtime buffers. */
    double weightOverhead_ = 1.05;
    /** Per-image activation bytes, indexed [arch][proc]. */
    std::int64_t activations_[kNumBuiltinArchs][2] = {};
};

} // namespace coserve

#endif // COSERVE_MODEL_FOOTPRINT_MODEL_H
