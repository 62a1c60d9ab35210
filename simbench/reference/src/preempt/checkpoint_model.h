/**
 * @file
 * Costed checkpoint/restore model.
 *
 * A checkpoint is not free: pausing a running batch serializes its
 * live per-image state plus a fixed descriptor (batch cursors, RNG
 * state, pinned-expert id). The pause lands on a per-image step
 * boundary, so the *workspace* footprint (Section 3.3: ~1.5 experts
 * per ResNet101 batch slot — convolution scratch, im2col buffers,
 * allocator slack) is dead at the snapshot point; what survives is
 * each pending image's input tensor and the boundary activations of
 * the image in flight, a small fraction of the peak footprint
 * (kSnapshotDivisor). CheckpointModel turns (architecture, processor,
 * in-flight images) into a byte count; the engine charges those bytes
 * through its real
 * BandwidthChannels — the DRAM-backed link channel when a CPU cache
 * tier exists, the (much slower) storage channel when the replica has
 * no DRAM tier to park state in — so a checkpoint over a cold tier is
 * honestly slower, and restore on a replica that evicted the expert
 * additionally pays the normal demand-load path.
 */

#ifndef COSERVE_PREEMPT_CHECKPOINT_MODEL_H
#define COSERVE_PREEMPT_CHECKPOINT_MODEL_H

#include <cstdint>

#include "model/footprint_model.h"

namespace coserve {

/** Prices checkpoint/restore state for in-flight batches. */
class CheckpointModel
{
  public:
    /** @param footprint footprint model (must outlive this). */
    explicit CheckpointModel(const FootprintModel &footprint)
        : footprint_(&footprint)
    {
    }

    /**
     * State bytes of a checkpoint of @p images in-flight images of
     * @p arch on @p proc: per-image live snapshot bytes plus a fixed
     * descriptor. Monotone in batch size — a bigger paused batch costs
     * proportionally more to move.
     */
    std::int64_t stateBytes(ArchId arch, ProcKind proc, int images) const;

    /** Fixed descriptor bytes (cursors, RNG state, group metadata). */
    static constexpr std::int64_t kDescriptorBytes = 64 * 1024;

    /**
     * Live snapshot bytes per image = workspace footprint / divisor:
     * at a step boundary the conv scratch and allocator slack that
     * dominate the per-slot footprint are dead; only the pending input
     * tensors and the boundary activations persist. 16 keeps the GPU
     * per-image snapshot (~16 MiB for NUMA ResNet101) an order of
     * magnitude above the raw input while staying far below the peak
     * workspace — checkpointing must stay cheaper per image than
     * re-running one, or rescue could never beat recomputation.
     */
    static constexpr std::int64_t kSnapshotDivisor = 16;

  private:
    const FootprintModel *footprint_;
};

} // namespace coserve

#endif // COSERVE_PREEMPT_CHECKPOINT_MODEL_H
