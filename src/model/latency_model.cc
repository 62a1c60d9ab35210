#include "model/latency_model.h"

#include <algorithm>

#include "util/logging.h"

namespace coserve {

namespace {

/**
 * Calibration anchors for the paper's two devices (Figures 5 and 12).
 * scale > 1 means a slower processor.
 */
LatencyParams
scaled(double kMs, double bMs, int sat, double penMs, double scale)
{
    LatencyParams p;
    p.perImage = milliseconds(kMs * scale);
    p.fixed = milliseconds(bMs * scale);
    p.saturationBatch = sat;
    p.penaltyPerImageSq = milliseconds(penMs * scale);
    return p;
}

} // namespace

LatencyModel
LatencyModel::calibrated(const DeviceSpec &device)
{
    LatencyModel m;
    // computeScale is "relative throughput"; latency scales inversely.
    const double g = 1.0 / device.gpu.computeScale;
    const double c = 1.0 / device.cpu.computeScale;

    if (device.arch == MemArch::NUMA) {
        // RTX 3080 Ti (Fig. 12: ResNet101 ~100 ms at batch 30).
        m.setParams(ArchId::ResNet101, ProcKind::GPU,
                    scaled(3.0, 9.0, 24, 0.35, g));
        m.setParams(ArchId::YoloV5m, ProcKind::GPU,
                    scaled(4.1, 11.0, 20, 0.45, g));
        m.setParams(ArchId::YoloV5l, ProcKind::GPU,
                    scaled(6.2, 14.0, 16, 0.70, g));
        // Xeon Silver 4214R (Fig. 12: ResNet101 ~1200 ms at batch 30).
        m.setParams(ArchId::ResNet101, ProcKind::CPU,
                    scaled(38.0, 55.0, 6, 4.0, c));
        m.setParams(ArchId::YoloV5m, ProcKind::CPU,
                    scaled(46.0, 68.0, 5, 5.0, c));
        m.setParams(ArchId::YoloV5l, ProcKind::CPU,
                    scaled(72.0, 95.0, 4, 8.0, c));
    } else {
        // Apple M2 GPU: slower than the 3080 Ti, optimal batch ~6
        // (Section 3.3); M2 CPU: faster than the Xeon, optimal ~5.
        const double mg = 1.0 / device.gpu.computeScale;
        const double mc = 1.0 / device.cpu.computeScale;
        m.setParams(ArchId::ResNet101, ProcKind::GPU,
                    scaled(3.1, 8.6, 6, 0.9, mg));
        m.setParams(ArchId::YoloV5m, ProcKind::GPU,
                    scaled(4.4, 10.5, 6, 1.1, mg));
        m.setParams(ArchId::YoloV5l, ProcKind::GPU,
                    scaled(6.6, 13.5, 5, 1.6, mg));
        m.setParams(ArchId::ResNet101, ProcKind::CPU,
                    scaled(36.0, 42.0, 5, 5.0, mc));
        m.setParams(ArchId::YoloV5m, ProcKind::CPU,
                    scaled(43.0, 52.0, 5, 6.0, mc));
        m.setParams(ArchId::YoloV5l, ProcKind::CPU,
                    scaled(66.0, 74.0, 4, 9.0, mc));
    }
    return m;
}

void
LatencyModel::setParams(ArchId arch, ProcKind proc, LatencyParams p)
{
    COSERVE_CHECK(p.perImage > 0, "latency K must be positive");
    COSERVE_CHECK(p.fixed >= 0 && p.penaltyPerImageSq >= 0,
                  "latency params must be non-negative");
    table_[static_cast<int>(arch)][static_cast<int>(proc)] = p;
}

const LatencyParams &
LatencyModel::params(ArchId arch, ProcKind proc) const
{
    COSERVE_CHECK(has(arch, proc), "no latency params for arch ",
                  static_cast<int>(arch), " on ", toString(proc));
    return table_[static_cast<int>(arch)][static_cast<int>(proc)];
}

bool
LatencyModel::has(ArchId arch, ProcKind proc) const
{
    return table_[static_cast<int>(arch)][static_cast<int>(proc)].perImage > 0;
}

Time
LatencyModel::batchLatency(ArchId arch, ProcKind proc, int batchSize) const
{
    COSERVE_CHECK(batchSize >= 1, "batch size must be >= 1");
    const LatencyParams &p = params(arch, proc);
    const int over = std::max(0, batchSize - p.saturationBatch);
    return p.perImage * batchSize + p.fixed +
           p.penaltyPerImageSq * over * over;
}

Time
LatencyModel::avgLatency(ArchId arch, ProcKind proc, int batchSize) const
{
    return batchLatency(arch, proc, batchSize) / batchSize;
}

Time
LatencyModel::measure(ArchId arch, ProcKind proc, int batchSize, Rng &rng,
                      double noiseFrac) const
{
    const Time t = batchLatency(arch, proc, batchSize);
    const double noisy =
        static_cast<double>(t) * (1.0 + rng.uniform(-noiseFrac, noiseFrac));
    return static_cast<Time>(noisy);
}

} // namespace coserve
