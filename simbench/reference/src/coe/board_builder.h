/**
 * @file
 * Synthetic circuit-board CoE model builder.
 *
 * The paper evaluates on two proprietary boards: Circuit Board A
 * (352 component types) and Circuit Board B (342). We generate
 * equivalent CoE models: one dedicated ResNet101 classification expert
 * per component type, a pool of shared YOLOv5m/YOLOv5l detection
 * experts, and a component-quantity distribution calibrated against the
 * paper's usage CDF (Figure 11: the top ~35 experts cover ~60% of
 * usage, with a long light tail — between the "linear" and "step"
 * extremes).
 *
 * The distribution is hybrid: a Zipf head carrying most of the mass
 * (common parts: resistors, capacitors) and a uniform light tail (rare
 * parts), which matches both the Figure 11 CDF shape and the low
 * absolute switch counts of Figure 14.
 */

#ifndef COSERVE_COE_BOARD_BUILDER_H
#define COSERVE_COE_BOARD_BUILDER_H

#include <cstdint>
#include <string>

#include "coe/coe_model.h"

namespace coserve {

/** Parameters of a synthetic circuit board CoE model. */
struct BoardSpec
{
    std::string name = "board";
    /** Number of component types == classification experts. */
    int numComponents = 352;
    /** Fraction of component types in the heavy Zipf head. */
    double headFraction = 0.40;
    /** Probability mass carried by the head. */
    double headMass = 0.985;
    /** Zipf exponent inside the head. */
    double zipfS = 0.90;
    /** Fraction of component types with a detection follow-up. */
    double detectionFraction = 0.55;
    /** Number of shared detection experts. */
    int numDetectionExperts = 28;
    /** Fraction of detection experts using YOLOv5l (rest YOLOv5m). */
    double yolov5lFraction = 0.4;
    /** Mean defect probability per component. */
    double defectProb = 0.03;
    /** Seed for per-component jitter. */
    std::uint64_t seed = 1;
};

/** Build a CoE model from @p spec. */
CoEModel buildBoard(const BoardSpec &spec);

/** Circuit Board A: 352 component types (paper Section 5.1). */
BoardSpec boardA();

/** Circuit Board B: 342 component types (paper Section 5.1). */
BoardSpec boardB();

/** A small board for tests (few experts, deterministic). */
BoardSpec tinyBoard();

} // namespace coserve

#endif // COSERVE_COE_BOARD_BUILDER_H
