/**
 * @file
 * Model pool: the expert residency set of one inference executor.
 *
 * Historically its own class; now one level of the unified memory-tier
 * hierarchy (runtime/memory_tier.h). ModelPool is the tier an executor
 * draws experts from — the GPU tier for GPU executors, the CPU DRAM
 * tier for CPU executors — kept as an alias so policies, schedulers
 * and tests keep reading naturally.
 */

#ifndef COSERVE_RUNTIME_POOL_H
#define COSERVE_RUNTIME_POOL_H

#include "runtime/memory_tier.h"

namespace coserve {

/** Bookkeeping for one pooled expert. */
using PoolEntry = TierEntry;

/** Byte-capacity-bounded expert residency set (a memory tier). */
using ModelPool = MemoryTier;

} // namespace coserve

#endif // COSERVE_RUNTIME_POOL_H
