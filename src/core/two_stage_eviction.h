/**
 * @file
 * Dependency-aware expert management (paper Section 4.3, Figure 10).
 *
 * Two-stage eviction:
 *  - Stage 1: evict *subsequent* (detection) experts none of whose
 *    preliminary (classification) experts is resident in the same pool
 *    — they cannot run until a preliminary expert is loaded first, so
 *    keeping them is wasted memory. Victims are taken in descending
 *    memory-footprint order to minimize the number of evictions.
 *  - Stage 2: evict remaining experts in ascending pre-assessed usage
 *    probability, keeping the most likely experts resident.
 *
 * Ties go to the smaller expert id in both stages, so the victim does
 * not depend on the pool's entry order. One selection is a single scan
 * of the pool's dense entry array; per entry it reads the subsequent
 * flag, the flat preliminary slice and the usage probability inline
 * (coe/dependency.h, coe/usage.h), with a pool lookup per preliminary.
 */

#ifndef COSERVE_CORE_TWO_STAGE_EVICTION_H
#define COSERVE_CORE_TWO_STAGE_EVICTION_H

#include "runtime/policies.h"

namespace coserve {

/** CoServe's two-stage, dependency-aware eviction policy. */
class TwoStageEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "two-stage"; }

    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool, const EvictionContext &ctx)
        override;
};

} // namespace coserve

#endif // COSERVE_CORE_TWO_STAGE_EVICTION_H
