/**
 * @file
 * Expert model instances.
 *
 * An Expert is one independently trained model in the CoE pool: a
 * per-component ResNet101 classifier (a *preliminary* expert) or a
 * shared YOLOv5 detector (a *subsequent* expert, depending on the
 * output of a preliminary one). Only identity, role and size live here;
 * routing and probabilities are owned by coe::CoEModel.
 */

#ifndef COSERVE_MODEL_EXPERT_H
#define COSERVE_MODEL_EXPERT_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/architecture.h"

namespace coserve {

/** Dense expert identifier (index into CoEModel's expert vector). */
using ExpertId = std::int32_t;

/** Sentinel for "no expert". */
inline constexpr ExpertId kNoExpert = -1;

/** Position of an expert in the inference pipeline (Figure 2). */
enum class ExpertRole
{
    /** First-stage expert selected directly by the routing module. */
    Preliminary,
    /** Second-stage expert that consumes a preliminary expert's output. */
    Subsequent,
};

/** One expert model in the pool. */
struct Expert
{
    ExpertId id = kNoExpert;
    std::string name;
    ArchId arch = ArchId::Custom;
    ExpertRole role = ExpertRole::Preliminary;
    /** Serialized weight bytes (copied from ArchSpec at build time). */
    std::int64_t weightBytes = 0;
};

} // namespace coserve

#endif // COSERVE_MODEL_EXPERT_H
