#include "preempt/checkpoint_model.h"

#include "util/logging.h"

namespace coserve {

std::int64_t
CheckpointModel::stateBytes(ArchId arch, ProcKind proc, int images) const
{
    COSERVE_CHECK(images > 0, "checkpoint of an empty batch");
    // Divide before multiplying: the per-image snapshot is a property
    // of one image, so the total stays exactly linear in batch size.
    return kDescriptorBytes +
           static_cast<std::int64_t>(images) *
               (footprint_->activationBytesPerImage(arch, proc) /
                kSnapshotDivisor);
}

} // namespace coserve
