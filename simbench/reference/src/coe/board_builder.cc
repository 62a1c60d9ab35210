#include "coe/board_builder.h"

#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace coserve {

CoEModel
buildBoard(const BoardSpec &spec)
{
    COSERVE_CHECK(spec.numComponents >= 1, "board needs components");
    COSERVE_CHECK(spec.numDetectionExperts >= 0, "negative detectors");
    COSERVE_CHECK(spec.headFraction > 0.0 && spec.headFraction <= 1.0,
                  "headFraction out of range");
    COSERVE_CHECK(spec.headMass > 0.0 && spec.headMass <= 1.0,
                  "headMass out of range");

    Rng rng(spec.seed);
    const int n = spec.numComponents;
    const int nDet = spec.numDetectionExperts;

    std::vector<Expert> experts;
    experts.reserve(static_cast<std::size_t>(n + nDet));

    // One dedicated ResNet101 classifier per component type.
    for (int i = 0; i < n; ++i) {
        Expert e;
        e.id = static_cast<ExpertId>(experts.size());
        e.name = spec.name + ".cls." + std::to_string(i);
        e.arch = ArchId::ResNet101;
        e.role = ExpertRole::Preliminary;
        e.weightBytes = archSpec(e.arch).weightBytes;
        experts.push_back(std::move(e));
    }
    // Shared YOLOv5 detection experts.
    const int nYolov5l = static_cast<int>(
        std::lround(spec.yolov5lFraction * nDet));
    for (int i = 0; i < nDet; ++i) {
        Expert e;
        e.id = static_cast<ExpertId>(experts.size());
        e.name = spec.name + ".det." + std::to_string(i);
        e.arch = i < nYolov5l ? ArchId::YoloV5l : ArchId::YoloV5m;
        e.role = ExpertRole::Subsequent;
        e.weightBytes = archSpec(e.arch).weightBytes;
        experts.push_back(std::move(e));
    }

    // Component image probabilities: Zipf head + uniform light tail.
    // Rank 0 is the most common component (e.g. 0402 resistors).
    const int headCount =
        std::max(1, static_cast<int>(std::lround(spec.headFraction * n)));
    std::vector<double> prob(static_cast<std::size_t>(n), 0.0);
    double headNorm = 0.0;
    for (int i = 0; i < headCount; ++i)
        headNorm += 1.0 / std::pow(static_cast<double>(i + 1), spec.zipfS);
    for (int i = 0; i < headCount; ++i) {
        prob[static_cast<std::size_t>(i)] =
            spec.headMass / std::pow(static_cast<double>(i + 1),
                                     spec.zipfS) / headNorm;
    }
    const int tailCount = n - headCount;
    if (tailCount > 0) {
        const double tailEach = (1.0 - spec.headMass) / tailCount;
        for (int i = headCount; i < n; ++i)
            prob[static_cast<std::size_t>(i)] = tailEach;
    } else {
        // Renormalize the head to 1 when there is no tail.
        for (double &p : prob)
            p /= spec.headMass;
    }

    std::vector<ComponentType> components;
    components.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        ComponentType c;
        c.id = static_cast<ComponentId>(i);
        c.name = spec.name + ".comp." + std::to_string(i);
        c.classifier = static_cast<ExpertId>(i);
        // Interleave detection assignment across ranks so each shared
        // detector serves a mix of common and rare components (the
        // paper: "multiple classification experts may share the same
        // object detection expert").
        const bool hasDet =
            nDet > 0 && rng.uniform() < spec.detectionFraction;
        c.detector = hasDet
                         ? static_cast<ExpertId>(n + (i % nDet))
                         : kNoExpert;
        c.defectProb = spec.defectProb * rng.uniform(0.5, 1.5);
        c.imageProb = prob[static_cast<std::size_t>(i)];
        components.push_back(std::move(c));
    }

    return CoEModel(spec.name, std::move(experts), std::move(components));
}

BoardSpec
boardA()
{
    BoardSpec s;
    s.name = "boardA";
    s.numComponents = 352;
    s.numDetectionExperts = 28;
    s.seed = 0xA;
    return s;
}

BoardSpec
boardB()
{
    BoardSpec s;
    s.name = "boardB";
    s.numComponents = 342;
    s.numDetectionExperts = 26;
    s.detectionFraction = 0.50;
    s.zipfS = 0.93;
    s.headFraction = 0.42;
    s.seed = 0xB;
    return s;
}

BoardSpec
tinyBoard()
{
    BoardSpec s;
    s.name = "tiny";
    s.numComponents = 12;
    s.numDetectionExperts = 3;
    s.headFraction = 0.5;
    s.headMass = 0.9;
    s.detectionFraction = 0.5;
    s.seed = 7;
    return s;
}

} // namespace coserve
